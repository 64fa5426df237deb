"""Binned quality-versus-loss analysis: series binning, curve fits, surfaces.

The regression side fits two model families to binned (loss, quality)
points: an exponential decay ``y = offset + amplitude * exp(-x / decay)``
solved by a damped Gauss-Newton (Levenberg-Marquardt) iteration with an
analytic Jacobian, and a straight line solved in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# The most bins whose float64 edges numpy can address; fewer bins than
# this may still be too many to allocate.
MAX_BINS = sys.maxsize // 8 - 1

MAX_LM_ITERATIONS = 200
LM_RELATIVE_SSE_TOL = 1e-10
_LAMBDA_START = 1e-3
_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12


class TooFewPointsError(ValueError):
    """Raised when a fit has too few input points."""


class DegenerateDataError(ValueError):
    """Raised when the inputs leave the requested model unidentifiable."""


@dataclass(frozen=True)
class FitResult:
    """Fitted model parameters plus goodness and convergence diagnostics."""

    model: str  # "exponential" or "linear"
    params: dict[str, float]
    r_squared: float
    residual_sse: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BinnedSeries:
    """Per-bin columns over uniform x bins; bin k spans ``edges[k]`` to
    ``edges[k + 1]``.  An empty bin has None for its median x, mean y and
    standard deviation of y."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    median_x: tuple[float | None, ...]
    mean_y: tuple[float | None, ...]
    std_y: tuple[float | None, ...]
    out_of_range: int

    def points(self) -> list[tuple[float, float]]:
        """(median_x, mean_y) for every non-empty bin, in bin order."""
        return [(x, y) for n, x, y in zip(self.counts, self.median_x, self.mean_y) if n > 0]


@dataclass(frozen=True)
class SurfaceGrid:
    """Mean quality and sample count per (loss, jitter) cell."""

    p_edges: tuple[float, ...]
    j_edges: tuple[float, ...]
    mean_r: tuple[tuple[float | None, ...], ...]  # [p_cell][j_cell]
    counts: tuple[tuple[int, ...], ...]
    out_of_range: int


def uniform_edges(bins: int, lo: float, hi: float) -> np.ndarray:
    """``bins + 1`` evenly spaced edges from lo to hi, strictly increasing.

    A range too narrow for float steps to separate the edges raises
    ValueError, like an empty range, fewer than one bin or more than
    ``MAX_BINS``.
    """
    if bins < 1:
        raise ValueError(f"need at least 1 bin, got {bins}")
    if bins > MAX_BINS:
        raise ValueError(f"need at most {MAX_BINS} bins, got {bins}")
    if not hi > lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    edges = lo + np.arange(bins + 1) * ((hi - lo) / bins)
    edges[-1] = hi  # keep the top edge exact so boundary points land inside
    if np.any(np.diff(edges) <= 0):
        raise ValueError(f"range [{lo}, {hi}] too narrow for {bins} distinct bins")
    return edges


def _columns(rows: Iterable[Sequence[float]] | np.ndarray, width: int) -> tuple[np.ndarray, ...]:
    """The rows, an iterable or an ``(n, width)`` array, as ``width``
    float64 columns; a row of another width raises ValueError.  Each
    column is a contiguous copy: the fits' BLAS dot products may round
    differently on a strided view."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    table = np.asarray(rows, dtype=float) if len(rows) else np.empty((0, width))
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"expected rows of {width} values")
    return tuple(column.copy() for column in table.T)


def _cells(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the half-open bin [e_k, e_{k+1}) holding each x; the last bin
    is closed at the top.  -1 where x is out of range or NaN."""
    bins = len(edges) - 1
    cell = np.searchsorted(edges, x, side="right") - 1
    cell[x == edges[-1]] = bins - 1
    cell[cell == bins] = -1  # above the top edge, or NaN (sorted last)
    return cell


def _by_cell(
    cell: np.ndarray, n_cells: int, y: np.ndarray, *others: np.ndarray
) -> tuple[int, list[slice], list[np.ndarray]]:
    """The count of cell -1 (out of range), each cell's slice, and the
    columns reordered by cell with y ascending within a cell.

    Sorted values keep every per-cell figure exactly permutation-invariant
    despite float rounding.  Each column is reordered once and the cells
    are views of it: a copy per cell would raise peak memory.
    """
    order = np.lexsort((y, cell))
    starts = np.searchsorted(cell[order], np.arange(n_cells + 1)).tolist()
    slices = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
    return starts[0], slices, [column[order] for column in (y, *others)]


def _per_cell(
    stat: Callable[[np.ndarray], float], column: np.ndarray, slices: list[slice]
) -> tuple[float | None, ...]:
    """``stat`` of each cell's slice of ``column``; None for an empty cell."""
    return tuple(float(stat(column[s])) if s.stop > s.start else None for s in slices)


def bin_series(
    points: Iterable[tuple[float, float]],
    *,
    bins: int = 10,
    lo: float = 0.0,
    hi: float = 0.2,
) -> BinnedSeries:
    """Aggregate (x, y) points over uniform x bins.

    Per bin: the count, the median x, the mean y, and the population
    standard deviation of y.  Out-of-range points are counted and
    excluded; permutation of the input never changes the result.
    """
    edges = uniform_edges(bins, lo, hi)
    x, y = _columns(points, 2)
    out_of_range, slices, (y, x) = _by_cell(_cells(edges, x), bins, y, x)
    return BinnedSeries(
        edges=tuple(edges.tolist()),
        counts=tuple(s.stop - s.start for s in slices),
        median_x=_per_cell(np.median, x, slices),
        mean_y=_per_cell(np.mean, y, slices),
        std_y=_per_cell(np.std, y, slices),
        out_of_range=out_of_range,
    )


def _as_xyw(
    points: Iterable[tuple[float, float]],
    weights: Sequence[float] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    x, y = _columns(points, 2)
    if weights is None:
        return x, y, None
    w = np.asarray(weights, dtype=float)
    if w.shape != x.shape:
        raise ValueError("weights must match the number of points")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    return x, y, w


def _r_squared(y: np.ndarray, y_hat: np.ndarray, w: np.ndarray | None = None) -> float:
    if w is None:
        w = np.ones_like(y)
    sse = float(w @ (y - y_hat) ** 2)
    mean = float(w @ y) / float(np.sum(w))
    sst = float(w @ (y - mean) ** 2)
    if sst == 0.0:
        # Only reachable through exact fits of flat data.
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def exponential_model(x: np.ndarray, offset: float, amplitude: float, decay: float) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        return offset + amplitude * np.exp(-np.asarray(x, dtype=float) / decay)


def fit_exponential(
    points: Iterable[tuple[float, float]],
    *,
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Fit ``y = offset + amplitude * exp(-x / decay)`` by Levenberg-Marquardt.

    Starts from a data-driven heuristic (offset at the sample minimum,
    amplitude spanning the y range, decay a third of the x span) and takes
    damped Gauss-Newton steps: the damping factor is multiplied by 10 on a
    rejected step and divided by 10 on an accepted one.  The decay is
    optimized in log space so it stays positive.  Converged means an
    accepted step reduced the weighted SSE by less than
    ``LM_RELATIVE_SSE_TOL`` of its previous value, or no damped step could
    reduce it further; the ``MAX_LM_ITERATIONS`` cap leaves ``converged``
    False.  Optional weights scale each point's squared residual; the
    reported r_squared uses the same weights.
    """
    x, y, w = _as_xyw(points, weights)
    if x.size < 4:
        raise TooFewPointsError(f"exponential fit needs >= 4 points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("exponential fit needs spread in x")
    if np.ptp(y) == 0.0:
        # Flat data: the decaying term vanishes, the offset carries everything.
        params = {
            "offset": float(y[0]),
            "amplitude": 0.0,
            "decay": float(np.ptp(x)) / 3.0,
        }
        return FitResult("exponential", params, 1.0, 0.0, 0, True)

    sqrt_w = None if w is None else np.sqrt(w)

    def weighted_residuals(theta: np.ndarray) -> tuple[float, np.ndarray]:
        decay = float(np.exp(theta[2]))
        residuals = y - exponential_model(x, theta[0], theta[1], decay)
        if sqrt_w is not None:
            residuals = residuals * sqrt_w
        sse = float(residuals @ residuals)
        return sse, residuals

    theta = np.array([float(np.min(y)), float(np.ptp(y)), math.log(float(np.ptp(x)) / 3.0)])
    lam = _LAMBDA_START
    sse, residuals = weighted_residuals(theta)
    iterations = 0
    converged = False
    while iterations < MAX_LM_ITERATIONS and not converged:
        iterations += 1
        decay = float(np.exp(theta[2]))
        with np.errstate(over="ignore", under="ignore"):
            shape = np.exp(-x / decay)
            # Columns: d/d offset, d/d amplitude, d/d log(decay).
            jacobian = np.column_stack([np.ones_like(x), shape, theta[1] * x * shape / decay])
        if sqrt_w is not None:
            jacobian = jacobian * sqrt_w[:, None]
        gradient = jacobian.T @ residuals
        normal = jacobian.T @ jacobian
        damping = np.diag(np.maximum(np.diag(normal), 1e-12))
        try:
            step = np.linalg.solve(normal + lam * damping, gradient)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                converged = True
            continue
        candidate = theta + step
        candidate_sse, candidate_residuals = weighted_residuals(candidate)
        if math.isfinite(candidate_sse) and candidate_sse < sse:
            drop = sse - candidate_sse
            theta, residuals = candidate, candidate_residuals
            previous, sse = sse, candidate_sse
            lam = max(lam / 10.0, _LAMBDA_MIN)
            if sse == 0.0 or drop <= LM_RELATIVE_SSE_TOL * previous:
                converged = True
        else:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                converged = True  # no damped step improves: local minimum

    decay = float(np.exp(theta[2]))
    params = {"offset": float(theta[0]), "amplitude": float(theta[1]), "decay": decay}
    y_hat = exponential_model(x, **params)
    return FitResult(
        model="exponential",
        params=params,
        r_squared=_r_squared(y, y_hat, w),
        residual_sse=sse,
        iterations=iterations,
        converged=converged,
    )


def fit_linear(
    points: Iterable[tuple[float, float]],
    *,
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Ordinary (optionally weighted) least squares for ``y = intercept + slope * x``.

    Closed form, no iteration; identical x values leave the slope
    unidentifiable and raise DegenerateDataError.
    """
    x, y, w = _as_xyw(points, weights)
    if x.size < 2:
        raise TooFewPointsError(f"linear fit needs >= 2 points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("linear fit needs at least two distinct x values")
    ww = np.ones_like(x) if w is None else w
    x_mean = float(ww @ x) / float(np.sum(ww))
    y_mean = float(ww @ y) / float(np.sum(ww))
    sxx = float(ww @ ((x - x_mean) ** 2))
    sxy = float(ww @ ((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    params = {"intercept": intercept, "slope": slope}
    y_hat = intercept + slope * x
    residuals = y - y_hat
    sse = float(ww @ residuals**2)
    return FitResult(
        model="linear",
        params=params,
        r_squared=_r_squared(y, y_hat, w),
        residual_sse=sse,
        iterations=0,
        converged=True,
    )


def surface_grid(
    samples: Iterable[tuple[float, float, float]],
    *,
    p_bins: int,
    p_range: tuple[float, float],
    j_bins: int,
    j_range: tuple[float, float],
) -> SurfaceGrid:
    """Aggregate (p_loss, j_max, r) samples into per-cell mean R and count,
    over uniform loss and jitter bins.

    Cells with no samples carry a None mean; samples outside either axis
    range are counted and excluded.
    """
    p_edges = uniform_edges(p_bins, *p_range)
    j_edges = uniform_edges(j_bins, *j_range)
    p, j, r = _columns(samples, 3)
    p_cell, j_cell = _cells(p_edges, p), _cells(j_edges, j)
    cell = np.where((p_cell >= 0) & (j_cell >= 0), p_cell * j_bins + j_cell, -1)
    out_of_range, slices, (r,) = _by_cell(cell, p_bins * j_bins, r)
    rows = [slices[i : i + j_bins] for i in range(0, len(slices), j_bins)]
    return SurfaceGrid(
        p_edges=tuple(p_edges.tolist()),
        j_edges=tuple(j_edges.tolist()),
        mean_r=tuple(_per_cell(np.mean, r, row) for row in rows),
        counts=tuple(tuple(s.stop - s.start for s in row) for row in rows),
        out_of_range=out_of_range,
    )
