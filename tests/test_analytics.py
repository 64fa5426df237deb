"""Binning, curve fitting, goodness of fit, and surface grid tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from volteqa import analytics
from conftest import (
    BIN_MEDIANS,
    EXP_AMPLITUDE,
    EXP_DECAY,
    EXP_OFFSET,
    LIN_INTERCEPT,
    LIN_SLOPE,
    exp_curve,
    line_curve,
    reference_bin_series,
    reference_saturation_shape,
    reference_surface_grid,
    synthesized,
)
from volteqa.analytics import (
    MAX_BINS,
    MAX_LM_ITERATIONS,
    DegenerateDataError,
    FitResult,
    TooFewPointsError,
    _median,
    bin_series,
    fit_exponential,
    fit_linear,
    saturation_shape,
    surface_grid,
    uniform_edges,
)


def exp_params(fit: FitResult) -> np.ndarray:
    return np.array([fit.params["offset"], fit.params["amplitude"], fit.params["decay"]])


EXP_TARGET = np.array([EXP_OFFSET, EXP_AMPLITUDE, EXP_DECAY])


# ---------------------------------------------------------------- binning


def test_bin_series_groups_single_value():
    series = bin_series([(0.05, 10.0)] * 5)
    assert series.counts == (0, 0, 5, 0, 0, 0, 0, 0, 0, 0)
    assert series.median_x[2] == 0.05
    assert series.mean_y[2] == 10.0
    assert series.std_y[2] == 0.0
    assert series.median_x[3] is series.mean_y[3] is series.std_y[3] is None


def test_bin_series_median_of_odd_count():
    series = bin_series([(0.01, 1.0), (0.015, 2.0), (0.019, 3.0)])
    assert series.median_x[0] == 0.015
    assert series.mean_y[0] == 2.0


def test_bin_series_top_edge_closed():
    series = bin_series([(0.2, 42.0)])
    assert series.counts[9] == 1
    assert series.median_x[9] == 0.2


def test_bin_series_edges_are_uniform():
    series = bin_series([])
    assert len(series.edges) == 11
    for k, edge in enumerate(series.edges):
        assert edge == pytest.approx(0.02 * k, abs=1e-12)


@pytest.mark.parametrize("bins", [2**61, 2**63 - 2])
def test_uniform_edges_rejects_more_bins_than_numpy_addresses(bins):
    assert bins > MAX_BINS
    with pytest.raises(ValueError, match=f"need at most {MAX_BINS} bins, got {bins}"):
        uniform_edges(bins, 0.0, 1.0)


def test_bin_series_counts_out_of_range():
    series = bin_series([(-0.01, 1.0), (0.21, 1.0), (0.1, 1.0)])
    assert series.out_of_range == 2
    assert sum(series.counts) == 1


def test_bin_series_counts_nan_out_of_range():
    series = bin_series([(math.nan, 50.0), (0.01, 60.0)])
    assert series.out_of_range == 1
    assert series.counts == (1,) + (0,) * 9


def test_bin_series_is_permutation_invariant_and_lossless():
    rng = np.random.default_rng(11)
    points = [(float(rng.uniform(0, 0.2)), float(rng.normal(50, 10))) for _ in range(500)]
    base = bin_series(points)
    assert sum(base.counts) == 500
    for _ in range(3):
        rng.shuffle(points)
        assert bin_series(points) == base


def test_bin_series_custom_range():
    series = bin_series([(0.5, 1.0)], bins=5, lo=0.0, hi=1.0)
    assert len(series.counts) == 5
    assert series.counts[2] == 1


def _axis_values(rng: np.random.Generator, edges: np.ndarray, n: int) -> list[float]:
    """n values along a binned axis: inside, on every edge, just outside the
    range, infinite, NaN and -0.0."""
    lo, hi = float(edges[0]), float(edges[-1])
    special = [
        *map(float, edges),
        math.nextafter(lo, -math.inf),
        math.nextafter(hi, math.inf),
        math.nextafter(hi, -math.inf),
        lo - 1.0,
        hi + 1.0,
        math.inf,
        -math.inf,
        math.nan,
        -0.0,
    ]
    inside = rng.uniform(lo, hi, n).tolist()
    picks = rng.integers(len(special), size=n).tolist()
    return [special[k] if rng.random() < 0.3 else v for k, v in zip(picks, inside)]


def _qualities(rng: np.random.Generator, n: int) -> list[float]:
    """n quality values, about half of them tied on a few levels or -0.0/0.0."""
    ties = [0.0, -0.0, 50.0, 87.5, 93.2]
    values = rng.normal(70.0, 15.0, n).tolist()
    return [ties[k] if rng.random() < 0.5 else v for k, v in zip(rng.integers(5, size=n).tolist(), values)]


@pytest.mark.parametrize("bins", [1, 2, 10, 37])
def test_bin_series_matches_reference_loop(bins):
    rng = np.random.default_rng(bins)
    lo, hi = (-0.0, 0.2) if bins == 10 else (0.0, 1.5)
    edges = uniform_edges(bins, lo, hi)
    for n in (0, 1, 7, 300, 2_000):
        points = list(zip(_axis_values(rng, edges, n), _qualities(rng, n)))
        assert bin_series(points, bins=bins, lo=lo, hi=hi) == reference_bin_series(
            points, bins=bins, lo=lo, hi=hi
        )


@pytest.mark.parametrize("p_bins, j_bins", [(1, 1), (1, 6), (10, 10), (20, 7)])
def test_surface_grid_matches_reference_loop(p_bins, j_bins):
    rng = np.random.default_rng(100 * p_bins + j_bins)
    spec = dict(p_bins=p_bins, p_range=(0.0, 0.2), j_bins=j_bins, j_range=(0.0, 20.0))
    p_edges = uniform_edges(p_bins, *spec["p_range"])
    j_edges = uniform_edges(j_bins, *spec["j_range"])
    for n in (0, 1, 9, 500, 3_000):
        samples = list(
            zip(_axis_values(rng, p_edges, n), _axis_values(rng, j_edges, n), _qualities(rng, n))
        )
        assert surface_grid(samples, **spec) == reference_surface_grid(samples, **spec)


# Values at which the bin median's arithmetic could part from np.median's:
# signed zeros, subnormals, and pairs near the top of the float range
# whose sum overflows to infinity.  Drawn from often, they also make ties.
MEDIAN_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, 0.1, 1.7e308, -1.7e308, 1.7976931348623157e308,
]


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 3000),
        elements=st.one_of(
            st.sampled_from(MEDIAN_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
        ),
    )
)
def test_bin_median_equals_np_median_bit_for_bit(x):
    def bits(value):
        return np.float64(value).tobytes()

    with np.errstate(over="ignore"):  # both overflow alike where the middle pair does
        assert bits(_median(x)) == bits(np.median(x))
        # In a bin, after the reordering by cell and quality.
        inside = x[np.abs(x) <= 1.0]
        if inside.size:
            series = bin_series(zip(inside, -inside), bins=1, lo=-1.0, hi=1.0)
            assert bits(series.median_x[0]) == bits(np.median(inside))


def _lexsort_by_cell(cell, n_cells, y, *others):
    """``analytics._by_cell`` as it was, with one ``np.lexsort``."""
    order = np.lexsort((y, cell))
    starts = np.searchsorted(cell[order], np.arange(n_cells + 1)).tolist()
    slices = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
    return starts[0], slices, [column[order] for column in (y, *others)]


def _same(a, b) -> bool:
    """Equal, field by field and item by item, with NaN equal to NaN (and
    0.0 to -0.0, as == has it)."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b or (a != a and b != b)


# Few values, so that ties are common: signed zeros, NaN, and values off
# both ends of the [0, 1] range, on its edges and inside it.
SORT_VALUES = st.sampled_from([0.0, -0.0, math.nan, -0.5, 1.5, 1.0, 0.25, 0.5, 0.75, 0.3, 1e-300])


# 127 cells sort as int8, 128 as int16 (the cell index must also hold
# 128, the end of the last cell) and 40,000 as int32.
@pytest.mark.parametrize("bins,j_bins", [(1, 1), (7, 3), (127, 1), (128, 1), (200, 200)])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(SORT_VALUES, SORT_VALUES, SORT_VALUES), max_size=300))
def test_binning_matches_the_lexsort_order(bins, j_bins, rows):
    samples = np.array(rows, dtype=float).reshape(-1, 3)
    grid = dict(p_bins=bins, p_range=(0.0, 1.0), j_bins=j_bins, j_range=(0.0, 1.0))
    got = bin_series(samples[:, ::2], bins=bins, lo=0.0, hi=1.0), surface_grid(samples, **grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytics, "_by_cell", _lexsort_by_cell)
        expected = bin_series(samples[:, ::2], bins=bins, lo=0.0, hi=1.0), surface_grid(samples, **grid)
    assert _same(got, expected)


def test_binning_rejects_points_of_the_wrong_width():
    grid = dict(p_bins=2, p_range=(0.0, 0.2), j_bins=2, j_range=(0.0, 10.0))
    for points in ([(0.1, 1.0, 2.0)], [(0.1, 1.0), (0.1,)], [(0.1, 1.0, 0.1, 2.0)], [()]):
        with pytest.raises(ValueError):
            bin_series(points)
        with pytest.raises(ValueError):
            reference_bin_series(points)
    for samples in ([(0.1, 1.0)], [(0.1, 1.0, 2.0), (0.1, 1.0)], [(0.1, 1.0, 2.0, 0.1, 1.0, 2.0)]):
        with pytest.raises(ValueError):
            surface_grid(samples, **grid)
        with pytest.raises(ValueError):
            reference_surface_grid(samples, **grid)


# ---------------------------------------------------------- exponential fit


# x values on both sides of the switch between the series and the closed
# forms (|k x| = 0.05), k of both signs, k = 0 and a denormal k.
SHAPE_X = (0.0, 0.013, 0.1, 0.2, 1.0, 3.7)
SHAPE_KX = (0.0, 1e-12, 0.01, 0.0499999, 0.05, 0.0500001, 0.051, 0.7, 2.0, 10.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_saturation_shape_matches_decimal_oracle(sign):
    for x in SHAPE_X:
        ks = [sign * kx / x for kx in SHAPE_KX] if x else [sign * 8.0]
        for k in [*ks, sign * 5e-324, sign * 1e-300]:
            g, dg = saturation_shape(np.array([x]), k)
            want_g, want_dg = reference_saturation_shape(x, k)
            # g within 10 ulp; dg/dk within 100 ulp, which the closed form's
            # cancellation costs just above the switch.
            assert g[0] == pytest.approx(want_g, rel=2e-15, abs=1e-300), (x, k)
            assert dg[0] == pytest.approx(want_dg, rel=2e-14, abs=1e-300), (x, k)


def test_saturation_shape_is_the_line_at_k_zero():
    x = np.asarray(BIN_MEDIANS)
    g, dg = saturation_shape(x, 0.0)
    assert np.array_equal(g, x)
    assert np.array_equal(dg, -(x * x) / 2)


def test_exponential_fit_recovers_reference_curve():
    points = list(zip(BIN_MEDIANS, exp_curve(BIN_MEDIANS)))
    fit = fit_exponential(points)
    assert fit.iterations <= 200
    assert fit.converged
    relative_error = np.abs(exp_params(fit) - EXP_TARGET) / EXP_TARGET
    assert np.max(relative_error) <= 1e-6
    assert fit.params["k"] == pytest.approx(1.0 / EXP_DECAY, rel=1e-6)
    assert fit.params["decay"] > 0


def test_exponential_fit_constant_data_degenerates():
    fit = fit_exponential([(x, 5.0) for x in (0.0, 0.1, 0.2, 0.3)])
    assert fit.converged
    assert fit.params == {"a": 5.0, "b": 0.0, "k": 0.0}  # no finite offset/amplitude/decay
    assert fit.residual_sse == 0.0
    assert fit.r_squared == 1.0
    assert fit.k_se is None


def test_exponential_fit_input_validation():
    with pytest.raises(TooFewPointsError):
        fit_exponential([(0.0, 1.0), (0.1, 2.0), (0.2, 3.0)])
    with pytest.raises(DegenerateDataError):
        fit_exponential([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0), (0.1, 4.0)])


@pytest.mark.parametrize("fit", [fit_exponential, fit_linear])
@pytest.mark.parametrize("spread", [1e-307, 1e200])
def test_fits_reject_an_x_spread_whose_squares_underflow_or_overflow(fit, spread):
    points = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (spread, 3.0)]
    with pytest.raises(DegenerateDataError):
        fit(points)


@pytest.mark.parametrize("fit", [fit_exponential, fit_linear])
@pytest.mark.parametrize(
    "points",
    [[(0.1, 1.0, 2.0)] * 5, [(0.1,), (0.2,), (0.3,), (0.4,), (0.5,)], [(0.1, 1.0)] * 4 + [(0.5,)]],
    ids=["three_wide", "one_wide", "ragged"],
)
def test_fits_reject_points_of_the_wrong_width(fit, points):
    # Five rows, enough for either fit: only the width is wrong.  numpy
    # itself refuses the ragged rows.
    with pytest.raises(ValueError, match="expected rows of 2 values|inhomogeneous"):
        fit(points)


def _grid_search_oracle(x, y, levels=8, points_per_axis=13):
    """Independent brute-force fit: nested grid refinement over all three
    parameters (a, b, k), with the plain closed form of the model and no
    gradients shared with the implementation under test."""

    def sse_at(a, b, k):
        g = x if k == 0.0 else (1.0 - np.exp(-k * x)) / k
        residuals = y - (a + b * g)
        return float(residuals @ residuals)

    chord = np.ptp(y) / np.ptp(x)
    lo = np.array([np.max(y) - 20.0, -4.0 * chord, -20.0])
    hi = np.array([np.max(y) + 25.0, 0.0, 40.0])
    best_sse, best = np.inf, None
    for _ in range(levels):
        grids = [np.linspace(lo[i], hi[i], points_per_axis) for i in range(3)]
        for a in grids[0]:
            for b in grids[1]:
                for k in grids[2]:
                    sse = sse_at(a, b, k)
                    if sse < best_sse:
                        best_sse, best = sse, np.array([a, b, k])
        span = (hi - lo) / 6.0
        lo, hi = best - span, best + span
    return best_sse, best


def test_exponential_fit_on_noisy_curve_matches_oracle():
    rng = np.random.default_rng(2)
    x = np.asarray(BIN_MEDIANS)
    y = exp_curve(x) + rng.normal(0.0, 1.0, x.size)
    fit = fit_exponential(list(zip(x, y)))
    relative_error = np.abs(exp_params(fit) - EXP_TARGET) / EXP_TARGET
    assert np.max(relative_error) <= 0.05
    oracle_sse, oracle_params = _grid_search_oracle(x, y)
    assert fit.residual_sse <= oracle_sse + 1e-9
    fitted = np.array([fit.params["a"], fit.params["b"], fit.params["k"]])
    assert np.allclose(fitted, oracle_params, rtol=0.02)


def test_exponential_fit_never_worse_than_initial_guess():
    # The initial guess is the least-squares line, at k = 0.
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 12)
    y = 4.0 + 10.0 * np.exp(-x / 0.3) + rng.normal(0, 0.5, x.size)
    points = list(zip(x, y))
    assert fit_exponential(points).residual_sse <= fit_linear(points).residual_sse


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, **finite),
            st.floats(-200.0, 200.0, **finite),
        ),
        min_size=4,
        max_size=40,
    ),
)
def test_exponential_fit_sse_never_exceeds_the_lines(points):
    # The fit starts from the line at k = 0 and accepts only steps that
    # lower the SSE, so it can end no worse, however bent the data.
    assume(np.ptp([x for x, _ in points]) > 0.0)
    try:
        line = fit_linear(points)
    except DegenerateDataError:  # an x spread whose squares underflow
        with pytest.raises(DegenerateDataError):
            fit_exponential(points)
        return
    fit = fit_exponential(points)
    assert fit.residual_sse <= line.residual_sse
    assert fit.iterations <= MAX_LM_ITERATIONS
    assert all(math.isfinite(v) for v in fit.params.values())


def test_exponential_fit_reaches_concave_curves():
    x = np.asarray(BIN_MEDIANS)
    y = 100.0 - 30.0 * np.expm1(6.0 * x) / 6.0  # k = -6
    fit = fit_exponential(list(zip(x, y)))
    assert fit.converged
    assert fit.params["k"] == pytest.approx(-6.0, rel=1e-6)
    assert fit.params["decay"] < 0


def test_exponential_fit_reports_k_standard_error():
    # (J^T J)^-1 * SSE / (n - 3) at the fitted parameters, J by hand.
    rng = np.random.default_rng(5)
    x = np.asarray(BIN_MEDIANS)
    y = exp_curve(x) + rng.normal(0.0, 1.0, x.size)
    fit = fit_exponential(list(zip(x, y)))
    a, b, k = fit.params["a"], fit.params["b"], fit.params["k"]
    e = np.exp(-k * x)
    g = (1.0 - e) / k
    jacobian = np.column_stack([np.ones_like(x), g, b * (x * e - g) / k])
    sse = float(np.sum((y - a - b * g) ** 2))
    covariance = np.linalg.inv(jacobian.T @ jacobian) * sse / (x.size - 3)
    assert fit.k_se == pytest.approx(math.sqrt(covariance[2, 2]), rel=1e-6)


def test_k_standard_error_is_calibrated_on_noisy_lines():
    # k's z-score k / k_se, over 200 seeded draws of 1,200 points around
    # conftest's line with noise of 2 R points, should be about standard
    # normal: |z| > 2 in about 1 draw in 20.
    z = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 0.2, 1200)
        fit = fit_exponential(np.column_stack([x, line_curve(x) + rng.normal(0.0, 2.0, x.size)]))
        assert fit.converged and fit.iterations <= 20
        z.append(fit.params["k"] / fit.k_se)
    z = np.array(z)
    assert abs(np.mean(z)) < 0.25
    assert 0.8 < np.std(z) < 1.2
    assert np.mean(np.abs(z) > 2.0) <= 0.1


# --------------------------------------------------------------- linear fit


def test_linear_fit_recovers_reference_line_exactly():
    points = list(zip(BIN_MEDIANS, line_curve(BIN_MEDIANS)))
    fit = fit_linear(points)
    assert fit.params["intercept"] == pytest.approx(LIN_INTERCEPT, rel=1e-12)
    assert fit.params["slope"] == pytest.approx(LIN_SLOPE, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.converged
    assert fit.iterations == 0


def test_linear_fit_two_points():
    fit = fit_linear([(0.0, 1.0), (1.0, 3.0)])
    assert fit.params["intercept"] == pytest.approx(1.0)
    assert fit.params["slope"] == pytest.approx(2.0)


def test_linear_fit_symmetric_perturbations_cancel():
    x = np.asarray(BIN_MEDIANS)
    y = line_curve(x)
    points = list(zip(x, y))
    # +1/-1 at identical x values: both normal-equation sums are unchanged.
    perturbed = points + [(0.05, float(line_curve(0.05)) + 1.0),
                          (0.05, float(line_curve(0.05)) - 1.0),
                          (0.15, float(line_curve(0.15)) + 1.0),
                          (0.15, float(line_curve(0.15)) - 1.0)]
    fit = fit_linear(perturbed)
    assert fit.params["intercept"] == pytest.approx(LIN_INTERCEPT, rel=1e-12)
    assert fit.params["slope"] == pytest.approx(LIN_SLOPE, rel=1e-12)

    # Normal-equation oracle evaluated directly.
    px = np.array([p[0] for p in perturbed])
    py = np.array([p[1] for p in perturbed])
    slope = np.sum((px - px.mean()) * (py - py.mean())) / np.sum((px - px.mean()) ** 2)
    intercept = py.mean() - slope * px.mean()
    assert fit.params["slope"] == pytest.approx(slope, rel=1e-12)
    assert fit.params["intercept"] == pytest.approx(intercept, rel=1e-12)


def test_linear_fit_input_validation():
    with pytest.raises(TooFewPointsError):
        fit_linear([(0.0, 1.0)])
    with pytest.raises(DegenerateDataError):
        fit_linear([(0.3, 1.0), (0.3, 2.0)])


# ----------------------------------------------------------- goodness of fit


def test_goodness_on_noise_calibrated_line():
    # Noise level chosen so the expected R^2 is about 0.98:
    # R^2 ~= 1 - (n-2) s^2 / (SST_line + n s^2) with SST_line ~= 3830.5
    # for this grid, giving s ~= 3.13.
    rng = np.random.default_rng(4)
    x = np.asarray(BIN_MEDIANS)
    y = line_curve(x) + rng.normal(0.0, 3.13, x.size)
    fit = fit_linear(list(zip(x, y)))
    assert 0.96 <= fit.r_squared <= 1.0
    assert fit.r_squared == pytest.approx(0.98, abs=0.02)


def test_model_families_win_on_their_own_curves():
    exp_points = list(zip(BIN_MEDIANS, exp_curve(BIN_MEDIANS)))
    lin_points = list(zip(BIN_MEDIANS, line_curve(BIN_MEDIANS)))
    assert fit_exponential(exp_points).r_squared > fit_linear(exp_points).r_squared
    # The exponential holds the line as k = 0, so on a line it finds that
    # line, up to rounding: the noiseless line's SSE is about 1e-27.
    exponential, linear = fit_exponential(lin_points), fit_linear(lin_points)
    assert exponential.params["k"] == pytest.approx(0.0, abs=1e-9)
    assert exponential.residual_sse == pytest.approx(linear.residual_sse, abs=1e-20)
    assert exponential.r_squared == pytest.approx(linear.r_squared, abs=1e-15)


# -------------------------------------------------------------- surface grid

GRID_2X2 = dict(p_bins=2, p_range=(0.0, 0.2), j_bins=2, j_range=(0.0, 10.0))


def test_surface_grid_single_cell_mean():
    grid = surface_grid([(0.1, 10.0, 80.0), (0.15, 20.0, 90.0)],
                        p_bins=1, p_range=(0.0, 0.2), j_bins=1, j_range=(0.0, 50.0))
    assert grid.counts == ((2,),)
    assert grid.mean_r == ((85.0,),)


def test_surface_grid_constant_quality():
    rng = np.random.default_rng(5)
    samples = [
        (float(rng.uniform(0, 0.2)), float(rng.uniform(0, 30)), 70.0) for _ in range(200)
    ]
    grid = surface_grid(samples, p_bins=4, p_range=(0.0, 0.2), j_bins=3, j_range=(0.0, 30.0))
    for row_means, row_counts in zip(grid.mean_r, grid.counts):
        for mean, count in zip(row_means, row_counts):
            if count:
                assert mean == pytest.approx(70.0)
            else:
                assert mean is None
    assert sum(map(sum, grid.counts)) == 200


def test_surface_grid_counts_out_of_range():
    grid = surface_grid([(0.3, 5.0, 50.0), (0.1, 50.0, 50.0), (0.1, 5.0, 50.0)], **GRID_2X2)
    assert grid.out_of_range == 2
    assert sum(map(sum, grid.counts)) == 1


def test_surface_grid_counts_nan_out_of_range():
    grid = surface_grid([(math.nan, 5.0, 50.0), (0.1, math.nan, 50.0), (0.15, 2.0, 60.0)], **GRID_2X2)
    assert grid.out_of_range == 2
    assert grid.counts == ((0, 0), (1, 0))


def test_surface_grid_empty_cells_flagged():
    grid = surface_grid([(0.05, 2.0, 60.0)], **GRID_2X2)
    assert grid.counts[0][0] == 1
    assert grid.mean_r[1][1] is None
    assert grid.p_edges == (0.0, 0.1, 0.2)
    assert grid.j_edges == (0.0, 5.0, 10.0)


def test_surface_grid_validation():
    for p_bins, p_range, j_bins, j_range in [
        (0, (0.0, 1.0), 1, (0.0, 1.0)),  # no loss cell
        (1, (0.0, 1.0), 0, (0.0, 1.0)),  # no jitter cell
        (1, (0.0, 0.0), 1, (0.0, 1.0)),  # empty loss range
        (1, (0.0, 1.0), 1, (1.0, 0.0)),  # reversed jitter range
        (10, (0.0, 0.2), 2, (0.0, 5e-324)),  # too narrow for distinct edges
    ]:
        with pytest.raises(ValueError):
            surface_grid([], p_bins=p_bins, p_range=p_range, j_bins=j_bins, j_range=j_range)


def test_surface_grid_non_increasing_along_loss_axis():
    from volteqa.emodel import DEFAULT_PROFILES
    from volteqa.ingest import Codec
    from volteqa.jitter_buffer import effective_loss
    from volteqa.simulate import BernoulliLoss, GaussianJitter, SimSpec

    spec = SimSpec(
        flows=600,
        packets_per_flow=120,
        seed=2025,
        codec_mix=((Codec.AMR, 1.0),),
        loss_models=tuple(BernoulliLoss(p) for p in (0.01, 0.05, 0.09, 0.13, 0.17)),
        jitter_models=(GaussianJitter(3.0, 30.0), GaussianJitter(8.0, 30.0)),
    )
    table, _ = synthesized(spec, DEFAULT_PROFILES)
    # The loss that score computes from the CDR counts.
    p_loss = effective_loss(table.tx_packets - table.rx_packets, 0, table.rx_packets)
    samples = list(zip(p_loss.tolist(), table.max_jitter_ms.tolist(), table.r_factor.tolist()))
    grid = surface_grid(samples, p_bins=5, p_range=(0.0, 0.2), j_bins=3, j_range=(0.0, 60.0))
    for j in range(3):
        column = [
            (grid.mean_r[i][j], grid.counts[i][j])
            for i in range(5)
            if grid.counts[i][j] >= 5
        ]
        for (mean_a, count_a), (mean_b, count_b) in zip(column, column[1:]):
            # Within per-cell standard error: quality scatter is a few R units.
            slack = 3.0 * 8.0 * (count_a ** -0.5 + count_b ** -0.5)
            assert mean_b <= mean_a + slack
