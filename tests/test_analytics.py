"""Binning, curve fitting, goodness of fit, and surface grid tests."""

import math

import numpy as np
import pytest

from conftest import (
    BIN_MEDIANS,
    EXP_AMPLITUDE,
    EXP_DECAY,
    EXP_OFFSET,
    LIN_INTERCEPT,
    LIN_SLOPE,
    exp_curve,
    line_curve,
)
from volteqa.analytics import (
    DegenerateDataError,
    FitResult,
    GridSpec,
    TooFewPointsError,
    bin_series,
    exponential_model,
    fit_exponential,
    fit_linear,
    surface_grid,
)


def exp_params(fit: FitResult) -> np.ndarray:
    return np.array([fit.params["offset"], fit.params["amplitude"], fit.params["decay"]])


EXP_TARGET = np.array([EXP_OFFSET, EXP_AMPLITUDE, EXP_DECAY])


# ---------------------------------------------------------------- binning


def test_bin_series_groups_single_value():
    series = bin_series([(0.05, 10.0)] * 5)
    assert series.counts() == [0, 0, 5, 0, 0, 0, 0, 0, 0, 0]
    assert series.bins[2].median_x == 0.05
    assert series.bins[2].mean_y == 10.0
    assert series.bins[2].std_y == 0.0


def test_bin_series_median_of_odd_count():
    series = bin_series([(0.01, 1.0), (0.015, 2.0), (0.019, 3.0)])
    assert series.bins[0].median_x == 0.015
    assert series.bins[0].mean_y == 2.0


def test_bin_series_top_edge_closed():
    series = bin_series([(0.2, 42.0)])
    assert series.counts()[9] == 1
    assert series.bins[9].median_x == 0.2


def test_bin_series_edges_are_uniform():
    series = bin_series([])
    assert len(series.edges) == 11
    for k, edge in enumerate(series.edges):
        assert edge == pytest.approx(0.02 * k, abs=1e-12)


def test_bin_series_counts_out_of_range():
    series = bin_series([(-0.01, 1.0), (0.21, 1.0), (0.1, 1.0)])
    assert series.out_of_range == 2
    assert sum(series.counts()) == 1


def test_bin_series_counts_nan_out_of_range():
    series = bin_series([(math.nan, 50.0), (0.01, 60.0)])
    assert series.out_of_range == 1
    assert series.counts() == [1] + [0] * 9


def test_bin_series_is_permutation_invariant_and_lossless():
    rng = np.random.default_rng(11)
    points = [(float(rng.uniform(0, 0.2)), float(rng.normal(50, 10))) for _ in range(500)]
    base = bin_series(points)
    assert sum(base.counts()) == 500
    for _ in range(3):
        rng.shuffle(points)
        assert bin_series(points) == base


def test_bin_series_custom_range():
    series = bin_series([(0.5, 1.0)], bins=5, lo=0.0, hi=1.0)
    assert len(series.bins) == 5
    assert series.counts()[2] == 1


# ---------------------------------------------------------- exponential fit


def test_exponential_fit_recovers_reference_curve():
    points = list(zip(BIN_MEDIANS, exp_curve(BIN_MEDIANS)))
    fit = fit_exponential(points)
    assert fit.iterations <= 200
    assert fit.converged
    relative_error = np.abs(exp_params(fit) - EXP_TARGET) / EXP_TARGET
    assert np.max(relative_error) <= 1e-6
    assert fit.params["decay"] > 0


def test_exponential_fit_constant_data_degenerates():
    fit = fit_exponential([(x, 5.0) for x in (0.0, 0.1, 0.2, 0.3)])
    assert fit.converged
    assert fit.params["amplitude"] == 0.0
    assert fit.params["offset"] == 5.0
    assert fit.params["decay"] > 0
    assert fit.residual_sse == 0.0
    assert fit.r_squared == 1.0


def test_exponential_fit_input_validation():
    with pytest.raises(TooFewPointsError):
        fit_exponential([(0.0, 1.0), (0.1, 2.0), (0.2, 3.0)])
    with pytest.raises(DegenerateDataError):
        fit_exponential([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0), (0.1, 4.0)])


def _grid_search_oracle(x, y, levels=5, points_per_axis=13):
    """Independent brute-force fit: nested grid refinement over all three
    parameters, no gradients shared with the implementation under test."""

    def sse_at(offset, amplitude, decay):
        residuals = y - (offset + amplitude * np.exp(-x / decay))
        return float(residuals @ residuals)

    lo = np.array([np.min(y) - 20.0, np.ptp(y) * 0.3, 0.01])
    hi = np.array([np.min(y) + 25.0, np.ptp(y) * 2.5, 0.5])
    best_sse, best = np.inf, None
    for _ in range(levels):
        grids = [np.linspace(lo[k], hi[k], points_per_axis) for k in range(3)]
        for offset in grids[0]:
            for amplitude in grids[1]:
                for decay in grids[2]:
                    sse = sse_at(offset, amplitude, decay)
                    if sse < best_sse:
                        best_sse, best = sse, np.array([offset, amplitude, decay])
        span = (hi - lo) / 6.0
        lo, hi = best - span, best + span
        lo[2] = max(lo[2], 1e-4)
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
    assert np.allclose(exp_params(fit), oracle_params, rtol=0.02)


def test_exponential_fit_never_worse_than_initial_guess():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 12)
    y = 4.0 + 10.0 * np.exp(-x / 0.3) + rng.normal(0, 0.5, x.size)
    initial = np.array([np.min(y), np.ptp(y), np.ptp(x) / 3.0])
    initial_sse = float(np.sum((y - exponential_model(x, *initial)) ** 2))
    fit = fit_exponential(list(zip(x, y)))
    assert fit.residual_sse <= initial_sse


def test_exponential_fit_weighted_moves_toward_heavy_points():
    x = np.array([0.01, 0.05, 0.1, 0.15, 0.19])
    y = exp_curve(x)
    y_perturbed = y.copy()
    y_perturbed[-1] += 5.0
    heavy_last = fit_exponential(
        list(zip(x, y_perturbed)), weights=[1.0, 1.0, 1.0, 1.0, 50.0]
    )
    plain = fit_exponential(list(zip(x, y_perturbed)))
    heavy_residual = abs(exponential_model(x[-1], **heavy_last.params) - y_perturbed[-1])
    plain_residual = abs(exponential_model(x[-1], **plain.params) - y_perturbed[-1])
    assert heavy_residual < plain_residual


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
    assert fit_linear(lin_points).r_squared > fit_exponential(lin_points).r_squared


# -------------------------------------------------------------- surface grid


def test_surface_grid_single_cell_mean():
    spec = GridSpec.uniform(1, (0.0, 0.2), 1, (0.0, 50.0))
    grid = surface_grid([(0.1, 10.0, 80.0), (0.15, 20.0, 90.0)], spec)
    assert grid.counts == ((2,),)
    assert grid.mean_r == ((85.0,),)


def test_surface_grid_constant_quality():
    spec = GridSpec.uniform(4, (0.0, 0.2), 3, (0.0, 30.0))
    rng = np.random.default_rng(5)
    samples = [
        (float(rng.uniform(0, 0.2)), float(rng.uniform(0, 30)), 70.0) for _ in range(200)
    ]
    grid = surface_grid(samples, spec)
    for row_means, row_counts in zip(grid.mean_r, grid.counts):
        for mean, count in zip(row_means, row_counts):
            if count:
                assert mean == pytest.approx(70.0)
            else:
                assert mean is None
    assert sum(map(sum, grid.counts)) == 200


def test_surface_grid_counts_out_of_range():
    spec = GridSpec.uniform(2, (0.0, 0.2), 2, (0.0, 10.0))
    grid = surface_grid([(0.3, 5.0, 50.0), (0.1, 50.0, 50.0), (0.1, 5.0, 50.0)], spec)
    assert grid.out_of_range == 2
    assert sum(map(sum, grid.counts)) == 1


def test_surface_grid_counts_nan_out_of_range():
    spec = GridSpec.uniform(2, (0.0, 0.2), 2, (0.0, 10.0))
    grid = surface_grid([(math.nan, 5.0, 50.0), (0.1, math.nan, 50.0), (0.15, 2.0, 60.0)], spec)
    assert grid.out_of_range == 2
    assert grid.counts == ((0, 0), (1, 0))


def test_surface_grid_empty_cells_flagged():
    spec = GridSpec.uniform(2, (0.0, 0.2), 2, (0.0, 10.0))
    grid = surface_grid([(0.05, 2.0, 60.0)], spec)
    assert grid.counts[0][0] == 1
    assert grid.mean_r[1][1] is None


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(p_edges=(0.0,), j_edges=(0.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(p_edges=(0.0, 0.0), j_edges=(0.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec.uniform(0, (0.0, 1.0), 1, (0.0, 1.0))


def test_surface_grid_non_increasing_along_loss_axis():
    from volteqa.emodel import DEFAULT_PROFILES, LossCharacter, compute_r_factor
    from volteqa.ingest import Codec
    from volteqa.simulate import BernoulliLoss, FlowOutcome, GaussianJitter, SimSpec, iter_flow_outcomes

    spec = SimSpec(
        flows=600,
        packets_per_flow=120,
        seed=2025,
        codec_mix=((Codec.AMR, 1.0),),
        loss_models=tuple(BernoulliLoss(p) for p in (0.01, 0.05, 0.09, 0.13, 0.17)),
        jitter_models=(GaussianJitter(3.0, 30.0), GaussianJitter(8.0, 30.0)),
    )
    samples = [
        (o.jbe_result.p_loss, o.record.max_jitter_ms, o.score.r_factor)
        for o in iter_flow_outcomes(spec, DEFAULT_PROFILES)
        if isinstance(o, FlowOutcome)
    ]
    grid = surface_grid(samples, GridSpec.uniform(5, (0.0, 0.2), 3, (0.0, 60.0)))
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
