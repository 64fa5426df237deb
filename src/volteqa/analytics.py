"""Binned quality-versus-loss analysis: series binning, curve fits, surfaces.

The regression side fits two model families to binned (loss, quality)
points: an exponential decay ``y = offset + amplitude * exp(-x / decay)``
solved by a damped Gauss-Newton (Levenberg-Marquardt) iteration with an
analytic Jacobian, and a straight line solved in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "r_squared": self.r_squared,
            "sse": self.residual_sse,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SeriesBin:
    lo: float
    hi: float
    count: int
    median_x: float | None
    mean_y: float | None
    std_y: float | None


@dataclass(frozen=True)
class BinnedSeries:
    edges: tuple[float, ...]
    bins: tuple[SeriesBin, ...]
    out_of_range: int

    def points(self) -> list[tuple[float, float]]:
        """(median_x, mean_y) for every non-empty bin, in bin order."""
        return [(b.median_x, b.mean_y) for b in self.bins if b.count > 0]

    def counts(self) -> list[int]:
        return [b.count for b in self.bins]


@dataclass(frozen=True)
class GridSpec:
    """Cell edges for a 2-D surface aggregation (>= 1 cell per axis)."""

    p_edges: tuple[float, ...]
    j_edges: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, edges in (("p_edges", self.p_edges), ("j_edges", self.j_edges)):
            if len(edges) < 2:
                raise ValueError(f"{name} needs at least 2 edges")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{name} must be strictly increasing")

    @classmethod
    def uniform(
        cls,
        p_bins: int,
        p_range: tuple[float, float],
        j_bins: int,
        j_range: tuple[float, float],
    ) -> "GridSpec":
        return cls(
            p_edges=tuple(uniform_edges(p_bins, *p_range)),
            j_edges=tuple(uniform_edges(j_bins, *j_range)),
        )


@dataclass(frozen=True)
class SurfaceGrid:
    """Mean quality and sample count per (loss, jitter) cell."""

    mean_r: tuple[tuple[float | None, ...], ...]  # [p_cell][j_cell]
    counts: tuple[tuple[int, ...], ...]
    out_of_range: int


def uniform_edges(bins: int, lo: float, hi: float) -> np.ndarray:
    if bins < 1:
        raise ValueError(f"need at least 1 bin, got {bins}")
    if not hi > lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    edges = lo + np.arange(bins + 1) * ((hi - lo) / bins)
    edges[-1] = hi  # keep the top edge exact so boundary points land inside
    return edges


def _bin_index(edges: np.ndarray, x: float) -> int | None:
    """Index of the half-open bin [e_k, e_{k+1}) holding x; the last bin is
    closed at the top.  None when x is out of range or NaN."""
    if not edges[0] <= x <= edges[-1]:
        return None
    idx = int(np.searchsorted(edges, x, side="right")) - 1
    return len(edges) - 2 if idx == len(edges) - 1 else idx


def bin_series(
    points: Iterable[tuple[float, float]],
    *,
    bins: int = 10,
    lo: float = 0.0,
    hi: float = 0.2,
) -> BinnedSeries:
    """Aggregate (x, y) points over uniform x bins.

    Per bin: the median x, the mean y, and the population standard
    deviation of y.  Out-of-range points are counted and excluded;
    permutation of the input never changes the result.
    """
    edges = uniform_edges(bins, lo, hi)
    xs: list[list[float]] = [[] for _ in range(bins)]
    ys: list[list[float]] = [[] for _ in range(bins)]
    out_of_range = 0
    for x, y in points:
        idx = _bin_index(edges, x)
        if idx is None:
            out_of_range += 1
            continue
        xs[idx].append(x)
        ys[idx].append(y)
    series_bins = []
    for k in range(bins):
        if xs[k]:
            # Aggregate over sorted values so the result is exactly
            # permutation-invariant despite float rounding.
            y_sorted = np.sort(ys[k])
            series_bins.append(
                SeriesBin(
                    lo=float(edges[k]),
                    hi=float(edges[k + 1]),
                    count=len(xs[k]),
                    median_x=float(np.median(xs[k])),
                    mean_y=float(np.mean(y_sorted)),
                    std_y=float(np.std(y_sorted)),
                )
            )
        else:
            series_bins.append(
                SeriesBin(
                    lo=float(edges[k]),
                    hi=float(edges[k + 1]),
                    count=0,
                    median_x=None,
                    mean_y=None,
                    std_y=None,
                )
            )
    return BinnedSeries(
        edges=tuple(float(e) for e in edges),
        bins=tuple(series_bins),
        out_of_range=out_of_range,
    )


def _as_xyw(
    points: Iterable[tuple[float, float]],
    weights: Sequence[float] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    pts = list(points)
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
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
    spec: GridSpec,
) -> SurfaceGrid:
    """Aggregate (p_loss, j_max, r) samples into per-cell mean R and count.

    Cells with no samples carry a None mean; samples outside either axis
    range are counted and excluded.
    """
    p_edges = np.asarray(spec.p_edges, dtype=float)
    j_edges = np.asarray(spec.j_edges, dtype=float)
    n_p, n_j = len(p_edges) - 1, len(j_edges) - 1
    cells: list[list[list[float]]] = [[[] for _ in range(n_j)] for _ in range(n_p)]
    out_of_range = 0
    for p, j, r in samples:
        pi = _bin_index(p_edges, p)
        ji = _bin_index(j_edges, j)
        if pi is None or ji is None:
            out_of_range += 1
            continue
        cells[pi][ji].append(r)
    # Sorted per-cell means keep the aggregation permutation-invariant.
    means = tuple(
        tuple(
            float(np.mean(np.sort(cells[i][k]))) if cells[i][k] else None
            for k in range(n_j)
        )
        for i in range(n_p)
    )
    counts = tuple(tuple(len(cells[i][k]) for k in range(n_j)) for i in range(n_p))
    return SurfaceGrid(
        mean_r=means,
        counts=counts,
        out_of_range=out_of_range,
    )
