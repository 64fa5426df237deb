"""E-Model scoring tests: burst ratio, impairments, R-factor, MOS."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_burst_ratio
from volteqa.emodel import (
    DEFAULT_PROFILES,
    CodecProfile,
    LossCharacter,
    burst_ratio,
    compute_r_factor,
    delay_impairment,
    ie_eff,
    load_profiles,
    r_to_mos,
)
from volteqa.ingest import Bandwidth, Codec


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
    assert isinstance(ratio, float)
    assert ratio >= 1.0
    assert ratio == reference_burst_ratio(flags)
    assert burst_ratio(np.array(flags)) == ratio


def test_ie_eff_zero_loss_identity():
    profile = CodecProfile(codec=Codec.AMR, ie=7.5, bpl=20.0, r0=93.2)
    assert ie_eff(profile, LossCharacter(ppl=0.0)) == 7.5


def test_ie_eff_hand_values():
    profile = CodecProfile(codec=Codec.AMR, ie=10.0, bpl=20.0, r0=93.2)
    random_loss = ie_eff(profile, LossCharacter(ppl=5.0, burst_r=1.0))
    bursty_loss = ie_eff(profile, LossCharacter(ppl=5.0, burst_r=2.0))
    assert random_loss == pytest.approx(10.0 + 85.0 * 5.0 / 25.0)  # 27
    assert bursty_loss == pytest.approx(10.0 + 85.0 * 5.0 / 22.5)  # ~28.89
    assert bursty_loss > random_loss


def test_delay_impairment_piecewise():
    assert delay_impairment(0.0) == 0.0
    assert delay_impairment(50.0) == 0.0
    assert delay_impairment(100.0) == 0.0
    assert delay_impairment(150.0) == pytest.approx(1.2)
    assert delay_impairment(200.0) == pytest.approx(0.024 * 100.0 + 0.11 * 22.7)
    with pytest.raises(ValueError):
        delay_impairment(-1.0)


def test_delay_impairment_continuous_and_nondecreasing():
    previous = 0.0
    for delay in range(0, 400, 1):
        value = delay_impairment(float(delay))
        assert value >= previous
        previous = value
    eps = 1e-6
    assert delay_impairment(177.3 + eps) - delay_impairment(177.3) < 1e-4


def test_default_narrowband_score_is_93_2():
    score = compute_r_factor(DEFAULT_PROFILES[Codec.AMR])
    assert score.r_factor == pytest.approx(93.2)
    assert score.mos == pytest.approx(r_to_mos(93.2))


def test_wideband_zero_impairment_reaches_129():
    score = compute_r_factor(DEFAULT_PROFILES[Codec.AMR_WB])
    assert score.r_factor == pytest.approx(129.0)
    assert score.mos == pytest.approx(4.5)


def _impairment_budget(profile, loss, one_way_delay_ms):
    """Oracle: R before clamping, from the G.107 terms one by one."""
    return (
        profile.r0
        - profile.simultaneous
        - delay_impairment(one_way_delay_ms)
        - ie_eff(profile, loss)
        + profile.advantage
    )


def test_r_factor_clamps_at_zero_under_total_loss():
    fragile = CodecProfile(codec=Codec.AMR, ie=0.0, bpl=1.0, r0=93.2)
    loss = LossCharacter(ppl=100.0)
    score = compute_r_factor(fragile, loss, one_way_delay_ms=300.0)
    assert _impairment_budget(fragile, loss, 300.0) < 0.0
    assert score.r_factor == 0.0
    assert score.mos == 1.0


def test_component_accounting_is_exact():
    profile = CodecProfile(codec=Codec.AMR_WB, ie=12.0, bpl=25.0, r0=120.0,
                           simultaneous=1.4, advantage=5.0)
    loss = LossCharacter(ppl=13.0, burst_r=2.0)
    score = compute_r_factor(profile, loss, 180.0)
    budget = _impairment_budget(profile, loss, 180.0)
    assert 0.0 < budget < Codec.AMR_WB.r_max  # inside the scale: no clamping
    assert abs(score.r_factor - budget) < 1e-9


def test_r_to_mos_endpoints_and_midpoint():
    assert r_to_mos(0.0) == 1.0
    assert r_to_mos(-5.0) == 1.0
    assert r_to_mos(100.0) == 4.5
    assert r_to_mos(150.0) == 4.5
    # Direct evaluation of the mapping polynomial as oracle.
    r = 93.2
    expected = 1 + 0.035 * r + r * (r - 60) * (100 - r) * 7e-6
    assert r_to_mos(r) == pytest.approx(expected)
    assert r_to_mos(r) == pytest.approx(4.41, abs=5e-3)


def test_r_to_mos_floors_small_scores_at_one():
    # The raw cubic dips below 1 near r=3; the mapping must not.
    assert r_to_mos(3.0) == 1.0


def test_r_to_mos_wideband_rescaling():
    assert r_to_mos(129.0, Bandwidth.WIDEBAND) == 4.5
    assert r_to_mos(64.5, Bandwidth.WIDEBAND) == pytest.approx(r_to_mos(50.0))
    assert r_to_mos(129.0 / 2, Bandwidth.WIDEBAND) < r_to_mos(129.0, Bandwidth.WIDEBAND)


def test_r_to_mos_monotone_on_both_scales():
    for bandwidth, r_max in ((Bandwidth.NARROWBAND, 100.0), (Bandwidth.WIDEBAND, 129.0)):
        previous = None
        for step in range(0, 1001):
            mos = r_to_mos(r_max * step / 1000.0, bandwidth)
            assert 1.0 <= mos <= 4.5
            if previous is not None:
                assert mos >= previous - 1e-12
            previous = mos


@pytest.mark.parametrize("codec", list(Codec))
def test_quality_grid_invariants(codec):
    profiles = [
        DEFAULT_PROFILES[codec],
        CodecProfile(codec=codec, ie=10.0, bpl=5.0, r0=codec.r_max - 2.0, advantage=2.0),
    ]
    burst_grid = (1.0, 2.0, 4.0, 8.0)
    for profile in profiles:
        for burst in burst_grid:
            previous_r = None
            for ppl in range(0, 101):
                loss = LossCharacter(ppl=float(ppl), burst_r=burst)
                equipment = ie_eff(profile, loss)
                assert profile.ie <= equipment < 95.0
                score = compute_r_factor(profile, loss)
                assert 0.0 <= score.r_factor <= codec.r_max
                assert 1.0 <= score.mos <= 4.5
                if previous_r is not None:
                    assert score.r_factor <= previous_r + 1e-12
                previous_r = score.r_factor
        for ppl in (1.0, 10.0, 50.0, 100.0):
            previous = None
            for burst in burst_grid:
                score = compute_r_factor(profile, LossCharacter(ppl=ppl, burst_r=burst))
                if previous is not None:
                    assert score.r_factor <= previous + 1e-12
                previous = score.r_factor


def test_profile_validation():
    with pytest.raises(ValueError):
        CodecProfile(codec=Codec.AMR, ie=95.0, bpl=10.0, r0=93.2)
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
