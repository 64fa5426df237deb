"""E-Model scoring tests: burst ratio, impairments, R-factor, MOS."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_burst_ratio, reference_compute_r_factor
from volteqa.emodel import (
    DEFAULT_PROFILES,
    CodecProfile,
    burst_ratio,
    compute_r_factor,
    load_profiles,
)
from volteqa.ingest import Codec


def _count_runs(flags):
    return sum(1 for lost, group in itertools.groupby(flags) if lost)


def test_burst_ratio_without_losses():
    assert burst_ratio([False] * 50) == 1.0


def test_burst_ratio_alternating_clamps_to_one():
    flags = [i % 2 == 0 for i in range(100)]
    # Mean run 1 against expected run 1/(1-0.5) = 2 gives 0.5, clamped.
    assert burst_ratio(flags) == 1.0


def test_burst_ratio_single_long_run():
    flags = [False] * 45 + [True] * 10 + [False] * 45
    assert _count_runs(flags) == 1
    # Mean run 10 against expected 1/0.9.
    assert burst_ratio(flags) == pytest.approx(10.0 * 0.9)


def test_burst_ratio_degenerate_all_lost():
    assert burst_ratio([True] * 7) == 1.0


def test_burst_ratio_needs_flags():
    with pytest.raises(ValueError):
        burst_ratio([])


def test_burst_ratio_matches_run_count_oracle():
    flags = [True, True, False, True, False, False, True, True, True, False]
    lost = sum(flags)
    runs = _count_runs(flags)
    p = lost / len(flags)
    expected = (lost / runs) / (1.0 / (1.0 - p))
    assert burst_ratio(flags) == pytest.approx(max(1.0, expected))


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_burst_ratio_always_well_formed(flags):
    ratio = burst_ratio(flags)
    assert ratio.shape == ()
    assert ratio >= 1.0
    assert float(ratio) == reference_burst_ratio(flags)
    assert burst_ratio(np.array(flags)) == ratio


def test_burst_ratio_of_a_block_is_per_flow():
    rng = np.random.default_rng(4)
    for packets in (1, 2, 7, 100):
        flags = rng.random((packets, 50)) < rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], 50)
        ratios = burst_ratio(flags)
        assert ratios.shape == (50,)
        assert ratios.tolist() == [reference_burst_ratio(flags[:, flow].tolist()) for flow in range(50)]


def _score(profile, ppl=0.0, burst_r=1.0, delay=0.0) -> tuple[float, float]:
    score = compute_r_factor(profile, ppl, burst_r, delay)
    return float(score.r_factor), float(score.mos)


def _mos_at(r: float, codec: Codec = Codec.AMR) -> float:
    """MOS of a lossless, delay-free flow whose R is r (clamped to the scale)."""
    profile = CodecProfile(codec=codec, ie=0.0, bpl=13.0, r0=min(r, codec.r_max),
                           advantage=max(r - codec.r_max, 0.0))
    return _score(profile)[1]


def test_ie_eff_zero_loss_identity():
    profile = CodecProfile(codec=Codec.AMR, ie=7.5, bpl=20.0, r0=93.2)
    assert _score(profile)[0] == 93.2 - 7.5


def test_ie_eff_hand_values():
    profile = CodecProfile(codec=Codec.AMR, ie=10.0, bpl=20.0, r0=93.2)
    random_loss = 93.2 - _score(profile, ppl=5.0, burst_r=1.0)[0]
    bursty_loss = 93.2 - _score(profile, ppl=5.0, burst_r=2.0)[0]
    assert random_loss == pytest.approx(10.0 + 85.0 * 5.0 / 25.0)  # 27
    assert bursty_loss == pytest.approx(10.0 + 85.0 * 5.0 / 22.5)  # ~28.89
    assert bursty_loss > random_loss


def test_delay_impairment_piecewise():
    profile = DEFAULT_PROFILES[Codec.AMR]

    def impairment(delay):
        return 93.2 - _score(profile, delay=delay)[0]

    assert impairment(0.0) == 0.0
    assert impairment(50.0) == 0.0
    assert impairment(100.0) == 0.0
    assert impairment(150.0) == pytest.approx(1.2)
    assert impairment(200.0) == pytest.approx(0.024 * 100.0 + 0.11 * 22.7)
    with pytest.raises(ValueError):
        compute_r_factor(profile, 0.0, 1.0, -1.0)


def test_delay_impairment_continuous_and_nondecreasing():
    delays = np.arange(0.0, 400.0)
    r = compute_r_factor(DEFAULT_PROFILES[Codec.AMR], 0.0, 1.0, delays).r_factor
    assert (np.diff(r) <= 0.0).all()
    eps = 1e-6
    at, after = compute_r_factor(DEFAULT_PROFILES[Codec.AMR], 0.0, 1.0, [177.3, 177.3 + eps]).r_factor
    assert at - after < 1e-4


def test_default_narrowband_score_is_93_2():
    r, mos = _score(DEFAULT_PROFILES[Codec.AMR])
    assert r == pytest.approx(93.2)
    assert mos == pytest.approx(1 + 0.035 * 93.2 + 93.2 * (93.2 - 60) * (100 - 93.2) * 7e-6)


def test_wideband_zero_impairment_reaches_129():
    r, mos = _score(DEFAULT_PROFILES[Codec.AMR_WB])
    assert r == pytest.approx(129.0)
    assert mos == pytest.approx(4.5)


def test_r_factor_clamps_at_zero_under_total_loss():
    fragile = CodecProfile(codec=Codec.AMR, ie=0.0, bpl=1.0, r0=93.2)
    # Before clamping the budget is 93.2 - 95 * (100/101) - delay impairment < 0.
    assert _score(fragile, ppl=100.0, delay=300.0) == (0.0, 1.0)


def test_component_accounting_is_exact():
    profile = CodecProfile(codec=Codec.AMR_WB, ie=12.0, bpl=25.0, r0=120.0,
                           simultaneous=1.4, advantage=5.0)
    r, _ = _score(profile, ppl=13.0, burst_r=2.0, delay=180.0)
    delay = 0.024 * (180.0 - 100.0) + 0.11 * (180.0 - 177.3)
    equipment = 12.0 + (129.0 - 12.0) * 13.0 / (13.0 / 2.0 + 25.0)  # the wideband ceiling
    budget = 120.0 - 1.4 - delay - equipment + 5.0
    assert 0.0 < budget < Codec.AMR_WB.r_max  # inside the scale: no clamping
    assert abs(r - budget) < 1e-9


# R and MOS of the default profiles: the loss impairment saturates toward
# 95 on the narrowband scale (G.107) and 129 on the wideband one (G.107.1).
@pytest.mark.parametrize(
    "codec, ppl, r, mos",
    [(Codec.AMR, 20.0, 35.62, 1.856), (Codec.AMR, 100.0, 9.13, 1.024),
     (Codec.AMR_WB, 20.0, 86.00, 3.437), (Codec.AMR_WB, 100.0, 36.86, 1.551)],
)
def test_loss_impairment_ceiling_of_each_scale(codec, ppl, r, mos):
    profile = DEFAULT_PROFILES[codec]
    assert _score(profile, ppl=ppl) == reference_compute_r_factor(profile, ppl)
    assert _score(profile, ppl=ppl) == pytest.approx((r, mos), abs=0.005)


def test_r_to_mos_endpoints_and_midpoint():
    assert _mos_at(0.0) == 1.0
    assert _mos_at(-5.0) == 1.0
    assert _mos_at(100.0) == 4.5
    assert _mos_at(150.0) == 4.5
    # Direct evaluation of the mapping polynomial as oracle.
    r = 93.2
    expected = 1 + 0.035 * r + r * (r - 60) * (100 - r) * 7e-6
    assert _mos_at(r) == pytest.approx(expected)
    assert _mos_at(r) == pytest.approx(4.41, abs=5e-3)


def test_r_to_mos_floors_small_scores_at_one():
    # The raw cubic dips below 1 near r=3; the mapping must not.
    assert _mos_at(3.0) == 1.0


def test_r_to_mos_wideband_rescaling():
    assert _mos_at(129.0, Codec.AMR_WB) == 4.5
    assert _mos_at(64.5, Codec.AMR_WB) == pytest.approx(_mos_at(50.0))
    assert _mos_at(129.0 / 2, Codec.AMR_WB) < _mos_at(129.0, Codec.AMR_WB)


def test_r_to_mos_monotone_on_both_scales():
    for codec in Codec:
        mos = [_mos_at(codec.r_max * step / 1000.0, codec) for step in range(0, 1001)]
        assert all(1.0 <= m <= 4.5 for m in mos)
        assert all(b >= a - 1e-12 for a, b in zip(mos, mos[1:]))


@pytest.mark.parametrize("codec", list(Codec))
def test_quality_grid_invariants(codec):
    profiles = [
        DEFAULT_PROFILES[codec],
        CodecProfile(codec=codec, ie=10.0, bpl=5.0, r0=codec.r_max - 2.0, advantage=2.0),
    ]
    burst_grid = np.array([1.0, 2.0, 4.0, 8.0])
    ppl = np.arange(0.0, 101.0)
    for profile in profiles:
        # Rows run over burst ratios, columns over loss percentages.
        score = compute_r_factor(profile, ppl, burst_grid[:, None])
        assert ((0.0 <= score.r_factor) & (score.r_factor <= codec.r_max)).all()
        assert ((1.0 <= score.mos) & (score.mos <= 4.5)).all()
        assert (np.diff(score.r_factor, axis=1) <= 1e-12).all()
        assert (np.diff(score.r_factor, axis=0) <= 1e-12).all()


# Edge values of each E-Model branch: the delay knees at exactly 100 and
# 177.3 ms, loss at 0 and 100 %, burst ratio 1, and profiles whose lossless
# R sits exactly at 0 (scaled R 0) and at the top of each scale (scaled R 100).
EDGE_DELAYS = [0.0, 50.0, 100.0, math.nextafter(100.0, math.inf), 150.0, 177.3,
               math.nextafter(177.3, math.inf), 200.0, 1e6, math.inf]
EDGE_PPL = [0.0, 1e-300, 5.0, 50.0, math.nextafter(100.0, 0.0), 100.0]
EDGE_BURST = [1.0, math.nextafter(1.0, math.inf), 2.5, 1e6]
EDGE_PROFILES = [
    DEFAULT_PROFILES[Codec.AMR],
    DEFAULT_PROFILES[Codec.AMR_WB],
    CodecProfile(codec=Codec.AMR, ie=0.0, bpl=13.0, r0=0.0),
    CodecProfile(codec=Codec.AMR_WB, ie=0.0, bpl=40.0, r0=0.0),
    CodecProfile(codec=Codec.AMR, ie=94.9, bpl=0.5, r0=100.0, simultaneous=3.0, advantage=20.0),
    CodecProfile(codec=Codec.AMR_WB, ie=12.0, bpl=25.0, r0=120.0, simultaneous=1.4, advantage=5.0),
]


@pytest.mark.parametrize("profile", EDGE_PROFILES)
def test_compute_r_factor_matches_scalar_oracle(profile):
    rng = np.random.default_rng(11)
    grid = [np.array(axis) for axis in np.meshgrid(EDGE_PPL, EDGE_BURST, EDGE_DELAYS, indexing="ij")]
    ppl, burst_r, delay = (np.concatenate([axis.ravel(), values]) for axis, values in zip(
        grid,
        (rng.uniform(0.0, 100.0, 2000), 1.0 + rng.exponential(2.0, 2000), rng.uniform(0.0, 400.0, 2000)),
    ))
    score = compute_r_factor(profile, ppl, burst_r, delay)
    expected = [reference_compute_r_factor(profile, *values)
                for values in zip(ppl.tolist(), burst_r.tolist(), delay.tolist())]
    assert list(zip(score.r_factor.tolist(), score.mos.tolist())) == expected


@pytest.mark.parametrize(
    "ppl, burst_r, delay",
    [(-1.0, 1.0, 0.0), (101.0, 1.0, 0.0), (math.nan, 1.0, 0.0), (5.0, 0.5, 0.0),
     (5.0, math.nan, 0.0), (5.0, 1.0, -1.0), (5.0, 1.0, math.nan)],
)
def test_compute_r_factor_checks_every_entry(ppl, burst_r, delay):
    profile = DEFAULT_PROFILES[Codec.AMR]
    with pytest.raises(ValueError):
        compute_r_factor(profile, [10.0, ppl], [1.0, burst_r], [0.0, delay])


def test_profile_validation():
    with pytest.raises(ValueError, match=r"ie must be in \[0, 95\) for AMR, got 95.0"):
        CodecProfile(codec=Codec.AMR, ie=95.0, bpl=10.0, r0=93.2)
    # The wideband ceiling is 129: an ie of 100 is on its scale.
    assert CodecProfile(codec=Codec.AMR_WB, ie=100.0, bpl=10.0, r0=129.0).ie == 100.0
    with pytest.raises(ValueError, match=r"ie must be in \[0, 129\) for AMR-WB, got 129.0"):
        CodecProfile(codec=Codec.AMR_WB, ie=129.0, bpl=10.0, r0=129.0)
    with pytest.raises(ValueError):
        CodecProfile(codec=Codec.AMR, ie=0.0, bpl=0.0, r0=93.2)
    with pytest.raises(ValueError):
        CodecProfile(codec=Codec.AMR, ie=0.0, bpl=10.0, r0=105.0)  # above the scale
    with pytest.raises(ValueError):
        CodecProfile(codec=Codec.AMR, ie=0.0, bpl=10.0, r0=93.2, advantage=-1.0)


@pytest.mark.parametrize("name", ["ie", "bpl", "r0", "simultaneous", "advantage"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_values(name, value):
    fields = dict(codec=Codec.AMR, ie=0.0, bpl=10.0, r0=90.0, simultaneous=0.0, advantage=0.0)
    with pytest.raises(ValueError):
        CodecProfile(**{**fields, name: value})


def test_profile_config_round_trip():
    profiles = {
        Codec.AMR: CodecProfile(codec=Codec.AMR, ie=5.0, bpl=11.5, r0=92.0,
                                simultaneous=1.0, advantage=0.5),
        Codec.AMR_WB: CodecProfile(codec=Codec.AMR_WB, ie=2.0, bpl=30.0, r0=125.0),
    }
    text = (
        "[AMR]\nie = 5\nbpl = 11.5\nr0 = 92\nis = 1\nadvantage = 0.5\nr_max = 100\n"
        "[AMR-WB]\nie = 2\nbpl = 30\nr0 = 125\nis = 0\nadvantage = 0\nr_max = 129\n"
    )
    assert load_profiles(text) == profiles


def test_profile_config_partial_override_keeps_defaults():
    profiles = load_profiles("[AMR]\nbpl = 17\n")
    assert profiles[Codec.AMR].bpl == 17.0
    assert profiles[Codec.AMR].r0 == DEFAULT_PROFILES[Codec.AMR].r0
    assert profiles[Codec.AMR_WB] == DEFAULT_PROFILES[Codec.AMR_WB]


def test_profile_config_rejects_unknown_key_and_wrong_r_max():
    with pytest.raises(ValueError):
        load_profiles("[AMR]\nwibble = 3\n")
    with pytest.raises(ValueError):
        load_profiles("[AMR]\nr_max = 110\n")


@pytest.mark.parametrize("text, section", [("[amr]\nie = 5\n", "amr"), ("[AMR_WB]\nbpl = 5\n", "AMR_WB")])
def test_profile_config_rejects_an_unknown_section(text, section):
    # A misspelt codec section would otherwise leave the defaults in force.
    with pytest.raises(ValueError, match=rf"^unknown section \[{section}\]$"):
        load_profiles(text)


def test_profile_config_may_share_a_file_with_a_sim_spec():
    profiles = load_profiles("[sim]\nflows = 3\n[AMR]\nbpl = 17\n")
    assert profiles[Codec.AMR] == replace(DEFAULT_PROFILES[Codec.AMR], bpl=17.0)
