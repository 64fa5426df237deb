"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import (
    AMR_CURVE_BURST_R,
    AMR_CURVE_PROFILE,
    BIN_MEDIANS,
    burst_sweep,
    exp_curve,
    jbe_figures,
    line_curve,
    reference_compute_r_factor,
    reference_run_jbe,
    synthesized,
    timeline_from_delays,
)
from volteqa.analytics import bin_series, fit_exponential, fit_linear
from volteqa.cli import _write_bins_csv, main
from volteqa.emodel import DEFAULT_PROFILES, CodecProfile, compute_r_factor
from volteqa.ingest import Codec
from volteqa.jitter_buffer import JbeConfig, effective_loss, run_jbe
from volteqa.simulate import GilbertElliottLoss, NoJitter, SimSpec

DATA = Path(__file__).parent / "data"


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")


def test_criterion_1_exponential_fit_recovery():
    points = list(zip(BIN_MEDIANS, exp_curve(BIN_MEDIANS)))
    start = time.perf_counter()
    fit = fit_exponential(points)
    elapsed = time.perf_counter() - start
    params = np.array([fit.params["offset"], fit.params["amplitude"], fit.params["decay"]])
    target = np.array([17.953, 71.63, 0.12])
    worst = float(np.max(np.abs(params - target) / target))
    ok = worst <= 1e-6 and fit.iterations <= 200 and elapsed < 1.0
    report(1, "exponential fit recovery", ok,
           f"max rel err {worst:.2e}, {fit.iterations} iterations, {elapsed * 1e3:.1f} ms")
    assert worst <= 1e-6
    assert fit.iterations <= 200
    assert elapsed < 1.0


def test_criterion_2_linear_fit_recovery():
    noiseless = fit_linear(list(zip(BIN_MEDIANS, line_curve(BIN_MEDIANS))))
    exact = (
        abs(noiseless.params["intercept"] - 99.01) / 99.01 < 1e-12
        and abs(noiseless.params["slope"] + 340.70) / 340.70 < 1e-12
        and abs(noiseless.r_squared - 1.0) < 1e-12
    )
    rng = np.random.default_rng(4)
    noisy_y = line_curve(BIN_MEDIANS) + rng.normal(0.0, 3.13, BIN_MEDIANS.size)
    noisy = fit_linear(list(zip(BIN_MEDIANS, noisy_y)))
    in_band = 0.96 <= noisy.r_squared <= 1.0
    ok = exact and in_band
    report(2, "linear fit recovery", ok,
           f"noiseless exact={exact}, noisy r2={noisy.r_squared:.4f}")
    assert exact
    assert in_band


def test_criterion_3_end_to_end_curve_shape():
    spec = SimSpec(
        flows=10_000,
        packets_per_flow=150,
        seed=424242,
        codec_mix=((Codec.AMR, 1.0),),
        loss_models=tuple(burst_sweep(AMR_CURVE_BURST_R)),
        jitter_models=(NoJitter(30.0),),
    )
    profiles = dict(DEFAULT_PROFILES)
    profiles[Codec.AMR] = AMR_CURVE_PROFILE
    start = time.perf_counter()
    table, _ = synthesized(spec, profiles)
    # Without jitter no packet is late, so the counts give the effective loss.
    p_loss = effective_loss(table.tx_packets - table.rx_packets, 0, table.rx_packets)
    points = list(zip(p_loss.tolist(), table.r_factor.tolist()))
    series = bin_series(points)
    exponential = fit_exponential(series.points())
    linear = fit_linear(series.points())
    elapsed = time.perf_counter() - start

    means = [y for _, y in series.points()]
    monotone = all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
    exp_wins = exponential.r_squared > linear.r_squared
    ok = len(points) >= 9_000 and exp_wins and monotone and elapsed < 60.0
    report(3, "end-to-end curve shape", ok,
           f"{len(points)} flows, exp r2={exponential.r_squared:.4f} > "
           f"lin r2={linear.r_squared:.4f}: {exp_wins}, monotone={monotone}, {elapsed:.1f} s")
    assert len(points) >= 9_000
    assert exp_wins
    assert monotone
    assert elapsed < 60.0


def test_criterion_4_jbe_property_suite():
    rng = np.random.default_rng(20240001)
    violations = []
    for case in range(1000):
        zero_jitter = case % 2 == 0
        n = int(rng.integers(2, 50))
        base = float(rng.uniform(5, 60))
        delays = []
        for _ in range(n):
            if rng.random() < 0.2:
                delays.append(None)
            elif zero_jitter:
                delays.append(base)
            else:
                delays.append(base + float(rng.gamma(2.0, 8.0)))
        if all(d is None for d in delays):
            delays[0] = base
        timeline = timeline_from_delays(delays)
        config = JbeConfig(initial_delay_ms=float(rng.uniform(10, 80)))
        result = run_jbe(timeline, config)

        if (result.playout_ms < timeline.arrival_ms).any():
            violations.append((case, "played before arrival"))
        figures = jbe_figures(result)
        if figures != jbe_figures(run_jbe(timeline, config)):
            violations.append((case, "nondeterministic"))
        if figures != reference_run_jbe(timeline, config):
            violations.append((case, "schedule or figures differ from the scalar oracle"))
        roomier = run_jbe(timeline, JbeConfig(initial_delay_ms=config.initial_delay_ms + 35.0))
        if roomier.late_count > result.late_count:
            violations.append((case, "more delay increased late count"))
        if zero_jitter and result.received_count:
            if result.late_count != 0:
                violations.append((case, "late packets under zero jitter"))
            raw = min(1.0, result.lost_count / result.received_count)
            if abs(figures["p_loss"] - raw) > 1e-12:
                violations.append((case, "p_loss != raw loss under zero jitter"))
    ok = not violations
    report(4, "jitter-buffer property suite", ok,
           f"1000 randomized timelines, {len(violations)} violations")
    assert violations == []


def test_criterion_5_emodel_property_suite():
    profiles = [
        DEFAULT_PROFILES[Codec.AMR],
        DEFAULT_PROFILES[Codec.AMR_WB],
        CodecProfile(codec=Codec.AMR, ie=10.0, bpl=4.3, r0=93.2, advantage=5.0),
        CodecProfile(codec=Codec.AMR_WB, ie=15.0, bpl=8.0, r0=125.0, simultaneous=1.0),
    ]
    burst_grid = (1.0, 2.0, 4.0, 8.0)
    violations = []
    for profile in profiles:
        ceiling = profile.codec.r_max
        for burst in burst_grid:
            previous_r = None
            previous_mos = None
            ppl = np.arange(0.0, 101.0)
            score = compute_r_factor(profile, ppl, burst)
            for p, r, mos in zip(ppl.tolist(), score.r_factor.tolist(), score.mos.tolist()):
                if (r, mos) != reference_compute_r_factor(profile, p, burst):
                    violations.append((profile.codec, burst, p, "R or MOS differ from the scalar oracle"))
                if not 0.0 <= r <= ceiling:
                    violations.append((profile.codec, burst, p, "R outside [0, r_max]"))
                if not 1.0 <= mos <= 4.5:
                    violations.append((profile.codec, burst, p, "MOS outside [1, 4.5]"))
                if previous_r is not None and r > previous_r + 1e-12:
                    violations.append((profile.codec, burst, p, "R increased with ppl"))
                if previous_mos is not None and mos > previous_mos + 1e-12:
                    violations.append((profile.codec, burst, p, "MOS increased with ppl"))
                previous_r, previous_mos = r, mos
        for ppl in (0.0, 1.0, 5.0, 20.0, 50.0, 100.0):
            previous_r = None
            for burst, r in zip(burst_grid, compute_r_factor(profile, ppl, burst_grid).r_factor.tolist()):
                if previous_r is not None and r > previous_r + 1e-12:
                    violations.append((profile.codec, burst, ppl, "R increased with burst_r"))
                previous_r = r
    ok = not violations
    report(5, "e-model property suite", ok,
           f"grid 101 ppl x {len(burst_grid)} burst x {len(profiles)} profiles, "
           f"{len(violations)} violations")
    assert violations == []


def test_criterion_6_gilbert_elliott_calibration():
    parameter_sets = [
        (0.1, 0.5, 0.0, 1.0),
        (0.05, 0.5, 0.0, 1.0),
        (0.02, 0.4, 0.0, 1.0),
        (0.01, 0.3, 0.0, 1.0),
        (0.2, 0.6, 0.0, 1.0),
        (0.1, 0.9, 0.0, 1.0),
        (0.3, 0.3, 0.0, 1.0),
        (0.02, 0.08, 0.0, 1.0),
        (0.005, 0.095, 0.0, 1.0),
        (0.15, 0.45, 0.0, 1.0),
        (0.1, 0.5, 0.01, 0.9),
        (0.05, 0.25, 0.02, 0.8),
        (0.08, 0.4, 0.0, 0.5),
        (0.02, 0.18, 0.0, 0.25),
        (0.3, 0.7, 0.05, 0.95),
        (0.12, 0.28, 0.1, 0.6),
        (0.25, 0.25, 0.0, 0.3),
        (0.04, 0.16, 0.01, 0.99),
        (0.5, 0.5, 0.0, 1.0),
        (0.02, 0.38, 0.05, 0.75),
    ]
    n = 100_000
    failures = []
    for index, params in enumerate(parameter_sets):
        model = GilbertElliottLoss(*params)
        rng = np.random.Generator(np.random.PCG64(9000 + index))
        empirical = float(model.sample(rng.random((model.uniforms(n), 1))).mean())
        expected = model.stationary_loss_rate()
        tolerance = 3.0 * model.loss_rate_std_error(n)
        if abs(empirical - expected) > tolerance:
            failures.append((params, empirical, expected, tolerance))
    ok = not failures
    report(6, "gilbert-elliott calibration", ok,
           f"{len(parameter_sets)} parameter sets x {n} packets, {len(failures)} outside 3 SE")
    assert failures == []


def test_criterion_7_golden_pipeline(tmp_path):
    scored = tmp_path / "scored.csv"
    summary = tmp_path / "summary.json"
    code = main([
        "score",
        "--input", str(DATA / "cdr_golden.csv"),
        "--output", str(scored),
        "--summary", str(summary),
    ])
    score_ok = (
        code == 0
        and scored.read_bytes() == (DATA / "cdr_golden.scored.csv").read_bytes()
        and summary.read_bytes() == (DATA / "cdr_golden.summary.json").read_bytes()
    )

    rng = np.random.Generator(np.random.PCG64(20241000))
    x = rng.uniform(0.0, 0.2, 1000)
    y = 17.953 + 71.63 * np.exp(-x / 0.12) + rng.normal(0.0, 2.0, 1000)
    series = bin_series(list(zip(map(float, x), map(float, y))))
    bins_csv = tmp_path / "bins.csv"
    with bins_csv.open("w", encoding="utf-8", newline="") as handle:
        _write_bins_csv(handle, [("ALL", series)])
    table_ok = bins_csv.read_bytes() == (DATA / "binned_golden.csv").read_bytes()
    counts_ok = sum(series.counts) == 1000
    edges_ok = all(abs(edge - 0.02 * k) < 1e-12 for k, edge in enumerate(series.edges))

    ok = score_ok and table_ok and counts_ok and edges_ok
    report(7, "golden pipeline", ok,
           f"score bytes={score_ok}, bin table bytes={table_ok}, "
           f"counts sum={counts_ok}, edges uniform={edges_ok}")
    assert score_ok
    assert table_ok
    assert counts_ok
    assert edges_ok
