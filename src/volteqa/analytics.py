"""Binned quality-versus-loss analysis: series binning, curve fits, surfaces.

The regression side fits two model families to (loss, quality) points,
bin medians or raw rows: an exponential ``y = a + b * (1 - exp(-k x)) / k``,
which is the straight line at k = 0, solved by a damped Gauss-Newton
(Levenberg-Marquardt) iteration with an analytic Jacobian, and the
straight line ``y = intercept + slope * x`` solved in closed form.
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

# The fewest points an exponential fit takes: one more than its three
# parameters, so that k has a standard error.
MIN_EXPONENTIAL_POINTS = 4

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
    k_se: float | None = None  # exponential only: standard error of k


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


def _columns(
    rows: Iterable[Sequence[float]] | np.ndarray, width: int, copy: bool = True
) -> tuple[np.ndarray, ...]:
    """The rows, an iterable or an ``(n, width)`` array, as ``width``
    float64 columns; a row of another width raises ValueError.  With
    ``copy``, each column is a contiguous copy: the fits' BLAS dot
    products may round differently on a strided view."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    table = np.asarray(rows, dtype=float) if len(rows) else np.empty((0, width))
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"expected rows of {width} values")
    return tuple(column.copy() if copy else column for column in table.T)


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

    y is sorted first and the cells then by a stable sort, which is the
    order of ``np.lexsort((y, cell))`` but for ties in y: their values
    are equal, and the other columns' figures, such as a median, do not
    depend on the order of their values.  The smallest integer type that
    holds -1 to ``n_cells`` lets numpy radix-sort up to 32,767 cells.
    """
    cell = cell.astype(np.min_scalar_type(-n_cells - 1), copy=False)
    order = np.argsort(y)
    order = order[np.argsort(cell[order], kind="stable")]
    starts = np.searchsorted(cell[order], np.arange(n_cells + 1, dtype=cell.dtype)).tolist()
    slices = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
    return starts[0], slices, [column[order] for column in (y, *others)]


def _per_cell(
    stat: Callable[[np.ndarray], float], column: np.ndarray, slices: list[slice]
) -> tuple[float | None, ...]:
    """``stat`` of each cell's slice of ``column``; None for an empty cell."""
    return tuple(float(stat(column[s])) if s.stop > s.start else None for s in slices)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty column without NaN, bit for bit: the
    same partition, its -1 included, and the same mean of the middle one
    or two values.  np.median's NaN check, which a bin never needs, calls
    ``np.ma.isMaskedArray`` and so imports numpy.ma, which nothing else
    here uses.  The mean, not ``(lower + upper) / 2``: np.median of
    ``[-0.0]`` is 0.0."""
    half = len(x) // 2
    part = np.partition(x, [half, -1] if len(x) % 2 else [half - 1, half, -1])
    return part[(len(x) - 1) // 2 : half + 1].mean()


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
        median_x=_per_cell(_median, x, slices),
        mean_y=_per_cell(np.mean, y, slices),
        std_y=_per_cell(np.std, y, slices),
        out_of_range=out_of_range,
    )


def _sum(v: np.ndarray) -> float:
    """The sum of v as ``ones @ v``, the dot product that every sum of the
    fits rounds as: ``np.sum(v)``, or ``r @ r`` for a sum of squares, can
    differ from it in the last bit."""
    return float(np.ones_like(v) @ v)


def _sse(residuals: np.ndarray) -> float:
    return _sum(residuals * residuals)


def _r_squared(y: np.ndarray, sse: float) -> float:
    sst = _sse(y - _sum(y) / y.size)
    if sst == 0.0:
        # Only reachable through exact fits of flat data.
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def _line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (intercept, slope) in closed form; an x spread whose
    squares underflow or overflow raises DegenerateDataError."""
    x_mean, y_mean = _sum(x) / x.size, _sum(y) / y.size
    with np.errstate(all="ignore"):
        sxx = _sum((x - x_mean) ** 2)
    if not 0.0 < sxx < math.inf:
        raise DegenerateDataError(f"x spread too small or too large to fit a slope: {sxx}")
    sxy = _sum((x - x_mean) * (y - y_mean))
    slope = sxy / sxx
    return y_mean - slope * x_mean, slope


# Below this |k x|, g and dg/dk come from their Taylor series in -k x: the
# closed forms divide by k, and dg/dk also cancels.  Eight terms leave a
# truncation error under 2**-52 of the sum there.
_SERIES_BELOW = 0.05
_SERIES_TERMS = 8
# Highest power first:
#   g / x           = sum_n (-k x)**n / (n + 1)!
#   -(dg/dk) / x**2 = sum_n (n + 1) (-k x)**n / (n + 2)!
_G_SERIES = [1.0 / math.factorial(n + 1) for n in reversed(range(_SERIES_TERMS))]
_DG_SERIES = [(n + 1) / math.factorial(n + 2) for n in reversed(range(_SERIES_TERMS))]


def _horner(coefficients: list[float], v: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients, highest power first, at each
    v, in one array (``np.polyval`` makes a temporary per term)."""
    out = np.full_like(v, coefficients[0])
    for c in coefficients[1:]:
        out *= v
        out += c
    return out


def saturation_shape(x: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """``g = (1 - exp(-k x)) / k`` at each x, and its derivative in k.

    g is x at k = 0, so ``a + b * g`` holds the straight line as the case
    k = 0, a convex decay for k > 0 and a concave bend for k < 0.  Both
    come back as 1-d arrays, also for a scalar x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):  # k = 0 and overflow are handled below or by the caller
        v = x * -k
        near = np.abs(v) < _SERIES_BELOW
        dg = np.expm1(v)
        g = dg / -k
        dg *= x  # in place from here: one array fewer at a time
        dg += x
        dg -= g
        dg /= k  # (x exp(-k x) - g) / k
    # A slice, so views rather than copies, when every point is near k x = 0.
    near = slice(None) if near.all() else near
    v, xs = v[near], x[near]
    series = _horner(_G_SERIES, v)
    series *= xs
    g[near] = series
    series = _horner(_DG_SERIES, v)
    series *= xs
    series *= xs
    dg[near] = np.negative(series, out=series)
    return g, dg


def _stationary(normal: np.ndarray, gradient: np.ndarray, sse: float) -> bool:
    """Whether a full Gauss-Newton step, ``normal^-1 gradient``, is predicted
    to lower the SSE by at most ``LM_RELATIVE_SSE_TOL`` of it: then the SSE
    is at its minimum to that tolerance, and damped steps would only be
    rejected for rounding until the damping cap."""
    try:
        return float(gradient @ np.linalg.solve(normal, gradient)) <= LM_RELATIVE_SSE_TOL * sse
    except np.linalg.LinAlgError:
        return False


def fit_exponential(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit ``y = a + b * (1 - exp(-k x)) / k`` by Levenberg-Marquardt.

    The model holds the straight line ``a + b x`` as k = 0, so the fit
    starts from the closed-form least-squares line there, and its SSE is
    never above that line's.  Each damped Gauss-Newton step multiplies
    the damping factor by 10 when it is rejected and divides it by 10
    when it is accepted.  Converged means the start is an exact fit, an
    accepted step reduced the SSE by less than
    ``LM_RELATIVE_SSE_TOL`` of its previous value, a full Gauss-Newton step
    is predicted to reduce it by less than that share, or no damped step
    could reduce it further; the ``MAX_LM_ITERATIONS`` cap leaves
    ``converged`` False.

    ``params`` holds a, b and k, plus the same curve as
    ``offset + amplitude * exp(-x / decay)``, that is
    ``(a + b / k, -b / k, 1 / k)``, whenever all three are finite.
    ``k_se`` is k's standard error from ``(J^T J)^-1 * SSE / (n - 3)``,
    or None where that matrix is singular.
    """
    x, y = _columns(points, 2)
    if x.size < MIN_EXPONENTIAL_POINTS:
        raise TooFewPointsError(f"exponential fit needs >= {MIN_EXPONENTIAL_POINTS} points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("exponential fit needs spread in x")
    theta = np.array([*_line(x, y), 0.0])  # raises where fit_linear does
    if np.ptp(y) == 0.0:
        # Flat data: a carries everything, and k is not identified.
        return FitResult("exponential", {"a": float(y[0]), "b": 0.0, "k": 0.0}, 1.0, 0.0, 0, True)

    # Rows d/da, d/db and d/dk of the model, rewritten by each evaluation.
    jacobian = np.ones((3, x.size))

    def evaluate(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """SSE, J^T J and J^T r at theta = (a, b, k), r the residuals;
        an overflowing curve gives a non-finite SSE, which no step accepts."""
        # Copied into the rows at once, g and dg/dk take no memory beyond them.
        jacobian[1], jacobian[2] = saturation_shape(x, theta[2])
        with np.errstate(all="ignore"):
            jacobian[2] *= theta[1]
            residuals = y - (theta[0] + theta[1] * jacobian[1])
            return _sse(residuals), jacobian @ jacobian.T, jacobian @ residuals

    sse, normal, gradient = evaluate(theta)
    lam = _LAMBDA_START
    iterations = 0
    converged = sse == 0.0 or _stationary(normal, gradient, sse)
    while iterations < MAX_LM_ITERATIONS and not converged:
        iterations += 1
        damping = np.diag(np.maximum(np.diag(normal), 1e-12))
        try:
            step = np.linalg.solve(normal + lam * damping, gradient)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                converged = True
            continue
        candidate = theta + step
        candidate_sse, candidate_normal, candidate_gradient = evaluate(candidate)
        if math.isfinite(candidate_sse) and candidate_sse < sse:
            drop = sse - candidate_sse
            theta, normal, gradient = candidate, candidate_normal, candidate_gradient
            previous, sse = sse, candidate_sse
            lam = max(lam / 10.0, _LAMBDA_MIN)
            if sse == 0.0 or drop <= LM_RELATIVE_SSE_TOL * previous or _stationary(normal, gradient, sse):
                converged = True
        else:
            lam *= 10.0
            if lam > _LAMBDA_MAX:
                converged = True  # no damped step improves: local minimum

    a, b, k = theta.tolist()
    params = {"a": a, "b": b, "k": k}
    classic = {"offset": a + b / k, "amplitude": -b / k, "decay": 1.0 / k} if k else {}
    if all(math.isfinite(v) for v in classic.values()):
        params.update(classic)
    try:
        k_var = float(np.linalg.inv(normal)[2, 2]) * sse / (x.size - 3)
    except np.linalg.LinAlgError:
        k_var = math.nan
    return FitResult(
        model="exponential",
        params=params,
        r_squared=_r_squared(y, sse),
        residual_sse=sse,
        iterations=iterations,
        converged=converged,
        k_se=math.sqrt(k_var) if 0.0 <= k_var < math.inf else None,
    )


def fit_linear(points: Iterable[tuple[float, float]]) -> FitResult:
    """Ordinary least squares for ``y = intercept + slope * x``.

    Closed form, no iteration; identical x values leave the slope
    unidentifiable and raise DegenerateDataError.
    """
    x, y = _columns(points, 2)
    if x.size < 2:
        raise TooFewPointsError(f"linear fit needs >= 2 points, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("linear fit needs at least two distinct x values")
    intercept, slope = _line(x, y)
    sse = _sse(y - (intercept + slope * x))
    return FitResult(
        model="linear",
        params={"intercept": intercept, "slope": slope},
        r_squared=_r_squared(y, sse),
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
    p, j, r = _columns(samples, 3, copy=False)  # no dot product here: views spare a copy of the samples
    p_cell, j_cell = _cells(p_edges, p), _cells(j_edges, j)
    outside = (p_cell < 0) | (j_cell < 0)
    # In place: an index array the size of the samples is not made twice more.
    cell = p_cell
    cell *= j_bins
    cell += j_cell
    cell[outside] = -1
    out_of_range, slices, (r,) = _by_cell(cell, p_bins * j_bins, r)
    rows = [slices[i : i + j_bins] for i in range(0, len(slices), j_bins)]
    return SurfaceGrid(
        p_edges=tuple(p_edges.tolist()),
        j_edges=tuple(j_edges.tolist()),
        mean_r=tuple(_per_cell(np.mean, r, row) for row in rows),
        counts=tuple(tuple(s.stop - s.start for s in row) for row in rows),
        out_of_range=out_of_range,
    )
