"""Synthetic timeline and dataset generation tests."""

import dataclasses
import itertools
import math
import os
import warnings

import numpy as np
import pytest

from conftest import (
    assert_no_child_left,
    joined_tables,
    parse_cdr_stream,
    reference_arrivals,
    reference_delays,
    reference_ge_sample,
    reference_pick_codec,
    recorded_worker,
    reference_synthesize_dataset,
    synthesized,
    table_rows,
    within_a_minute,
    written_cdr,
)
from volteqa import simulate
from volteqa.emodel import DEFAULT_PROFILES, CodecProfile
from volteqa.ingest import Codec
from volteqa.jitter_buffer import JbeConfig
from volteqa.simulate import (
    BernoulliLoss,
    GammaJitter,
    GaussianJitter,
    GilbertElliottLoss,
    NoJitter,
    SimSpec,
    child_words,
    load_sim_config,
    pick_codecs,
    synthesize_dataset,
    synthesize_timeline,
)


def _uniforms(loss, n, rngs):
    """The ``(uniforms, flows)`` loss draws of one flow per generator."""
    return np.stack([rng.random(loss.uniforms(n)) for rng in rngs], axis=1)


def _jitter_draws(jitter, n, rngs):
    """The ``(packets, flows)`` jitter draws of one flow per generator."""
    draws = np.empty((len(rngs), n))
    for rng, row in zip(rngs, draws):
        jitter.draw(rng, row)
    return draws.T


def _block(loss, jitter, packets, seeds):
    """Loss flags and delays of one flow per seed: each flow's loss
    uniforms, then its jitter draws, as ``synthesize_dataset`` draws them."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    lost = loss.sample(_uniforms(loss, packets, rngs))
    return lost, jitter.delays(_jitter_draws(jitter, packets, rngs))


def _timeline(loss, jitter, packets, ptime_ms, seeds):
    """Block timeline of one flow per seed."""
    timeline, kept = synthesize_timeline(*_block(loss, jitter, packets, seeds), ptime_ms)
    assert kept.all()
    return timeline


def test_lossless_constant_delay_timeline():
    timeline = _timeline(BernoulliLoss(0.0), NoJitter(30.0), 50, 20.0, [1])
    assert timeline.tx_count == 50
    assert timeline.arrival_ms.shape == (50, 1)
    assert np.array_equal(timeline.send_ms, np.arange(50) * 20.0)
    assert np.array_equal(timeline.arrival_ms[:, 0], timeline.send_ms + 30.0)


def test_full_loss_timeline():
    timeline = _timeline(BernoulliLoss(1.0), NoJitter(30.0), 20, 20.0, [1, 2, 3])
    assert timeline.arrival_ms.shape == (20, 3)
    assert np.isnan(timeline.arrival_ms).all()


def test_timeline_is_seed_deterministic():
    def timeline(seed):
        return _timeline(BernoulliLoss(0.2), GaussianJitter(5.0, 30.0), 200, 20.0, [seed])

    a, b, c = timeline(77), timeline(77), timeline(78)
    assert np.array_equal(a.arrival_ms, b.arrival_ms, equal_nan=True)
    assert not np.array_equal(a.arrival_ms, c.arrival_ms, equal_nan=True)


def test_arrivals_never_reorder():
    timeline = _timeline(BernoulliLoss(0.0), GaussianJitter(40.0, 30.0), 500, 20.0, [5, 6])
    assert (np.diff(timeline.arrival_ms, axis=0) >= 0).all()
    assert (timeline.arrival_ms >= timeline.send_ms[:, None]).all()


@pytest.mark.parametrize(
    "loss, jitter",
    [
        (BernoulliLoss(0.3), GaussianJitter(40.0, 30.0)),
        (GilbertElliottLoss(0.05, 0.3), GammaJitter(2.0, 30.0, 30.0)),
        (BernoulliLoss(0.0), NoJitter(30.0)),
        (BernoulliLoss(1.0), GaussianJitter(4.0)),
    ],
)
def test_timeline_arrivals_match_scalar_reference(loss, jitter):
    lost, delays = _block(loss, jitter, 300, range(20))
    timeline, _ = synthesize_timeline(lost, delays, 30.0)
    for flow in range(20):
        expected = reference_arrivals(lost[:, flow], delays[:, flow].tolist(), 30.0)
        assert [None if np.isnan(a) else a for a in timeline.arrival_ms[:, flow].tolist()] == expected


def test_timeline_leaves_out_flows_whose_arrivals_overflow():
    lost = np.array([[False, False, True], [False, True, False]])
    delays = np.array([[1.0, 1.0, math.inf], [1e308, math.inf, 2.0]])
    timeline, kept = synthesize_timeline(lost, delays, 1e308)
    # Flow 0 arrives at 1e308 + 1e308; flows 1 and 2 lose their infinite delays.
    assert kept.tolist() == [False, True, True]
    assert timeline.arrival_ms.shape == (2, 2)
    assert timeline.arrival_ms[0, 0] == 1.0 and np.isnan(timeline.arrival_ms[1, 0])
    assert np.isnan(timeline.arrival_ms[0, 1]) and timeline.arrival_ms[1, 1] == 1e308 + 2.0


@pytest.mark.parametrize(
    "model",
    [NoJitter(30.0), GaussianJitter(0.0), GaussianJitter(40.0, 30.0), GammaJitter(2.0, 30.0, 30.0)],
)
def test_block_delays_match_per_flow_draws(model):
    block = [np.random.default_rng(seed) for seed in range(5)]
    delays = model.delays(_jitter_draws(model, 40, block))
    assert delays.shape == (40, 5)
    for flow in range(5):
        rng = np.random.default_rng(flow)
        assert np.array_equal(delays[:, flow], reference_delays(model, 40, rng))
        # Same draws in the same order: both streams continue in step.
        assert block[flow].random() == rng.random()


def test_block_bernoulli_sample_matches_per_flow_draws():
    block = [np.random.default_rng(seed) for seed in range(5)]
    model = BernoulliLoss(0.3)
    lost = model.sample(_uniforms(model, 40, block))
    assert lost.shape == (40, 5)
    for flow in range(5):
        rng = np.random.default_rng(flow)
        assert np.array_equal(lost[:, flow], rng.random(40) < 0.3)
        assert block[flow].random() == rng.random()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7])
def test_child_words_match_numpy_seeding(seed):
    # 2**130 + 7 spans five entropy words, one more than the pool; from
    # 2**32 on a spawn key takes two words.
    flows = [*range(300), 2**32 - 1, 2**32, 2**40 + 3]
    children = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in flows]
    words = child_words(seed, np.array(flows, dtype=np.uint64))
    assert words.dtype == np.uint64
    assert np.array_equal(words, [child.generate_state(4, np.uint64) for child in children])
    seed_words = simulate._seed_words()
    assert [np.random.PCG64(seed_words(row)).state for row in words] == [
        np.random.PCG64(child).state for child in children
    ]


def test_child_words_continue_spawned_children():
    children = np.random.SeedSequence(5).spawn(40)
    words = child_words(5, np.arange(20, 40, dtype=np.uint64))
    assert np.array_equal(words, [child.generate_state(4, np.uint64) for child in children[20:]])


@pytest.mark.parametrize("seed", [7, 2**130 + 7])
def test_generators_seeded_with_child_words_draw_as_spawned_children(seed):
    children = np.random.SeedSequence(seed).spawn(12)
    words = child_words(seed, np.arange(12, dtype=np.uint64))
    seed_words = simulate._seed_words()
    draws = (
        lambda generator: generator.random(1_000),
        lambda generator: generator.standard_normal(1_000),
        lambda generator: generator.standard_gamma(2, 1_000),
    )
    for flow in (0, 5, 11):
        for draw in draws:
            ours = np.random.Generator(np.random.PCG64(seed_words(words[flow])))
            spawned = np.random.Generator(np.random.PCG64(children[flow]))
            assert np.array_equal(draw(ours), draw(spawned))


@pytest.mark.parametrize(
    "mix",
    [
        ((Codec.AMR, 0.71), (Codec.AMR_WB, 0.29)),
        ((Codec.AMR, 0.25), (Codec.AMR_WB, 0.75)),
        ((Codec.AMR, 0.0), (Codec.AMR_WB, 1.0)),
        ((Codec.AMR, 1.0), (Codec.AMR_WB, 0.0)),
        ((Codec.AMR_WB, 1.0),),
        # Shares whose float sum is just below 1: a draw above it falls
        # through to the last codec.
        ((Codec.AMR, 0.7), (Codec.AMR_WB, 0.3 - 1e-12)),
    ],
)
def test_pick_codecs_matches_scalar_reference(mix):
    # Each running share, the floats on either side of it, and the largest
    # draw below 1.
    running = itertools.accumulate(fraction for _, fraction in mix)
    u = [x for c in running for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    u = np.array([x for x in [0.0, 0.5, 1.0 - 2**-53, *u] if x < 1.0])
    assert pick_codecs(mix, u).tolist() == [reference_pick_codec(mix, x) for x in u.tolist()]


def test_pick_codecs_boundary_and_fall_through():
    # A draw equal to a running share picks the next codec.
    assert pick_codecs(((Codec.AMR, 0.25), (Codec.AMR_WB, 0.75)), np.array([0.25])).tolist() == [1]
    # The shares sum to just below 1: a draw above the sum falls through.
    below_one = ((Codec.AMR, 0.7), (Codec.AMR_WB, 0.3 - 1e-12))
    assert pick_codecs(below_one, np.array([0.99999999999995, 1.0 - 2**-53])).tolist() == [1, 1]


def test_gamma_jitter_delays_are_positive():
    timeline = _timeline(BernoulliLoss(0.0), GammaJitter(2.0, 6.0, 10.0), 100, 20.0, [9])
    assert (timeline.arrival_ms >= timeline.send_ms[:, None] + 10.0).all()


def test_gilbert_elliott_stationary_rate_closed_form():
    model = GilbertElliottLoss(0.1, 0.5, 0.0, 1.0)
    assert model.stationary_bad_probability() == pytest.approx(0.1 / 0.6)
    assert model.stationary_loss_rate() == pytest.approx(0.1 / 0.6)
    mixed = GilbertElliottLoss(0.2, 0.3, 0.05, 0.8)
    pi_bad = 0.2 / 0.5
    assert mixed.stationary_loss_rate() == pytest.approx(pi_bad * 0.8 + (1 - pi_bad) * 0.05)


def test_gilbert_elliott_empirical_rate_matches_closed_form():
    model = GilbertElliottLoss(0.1, 0.5, 0.0, 1.0)
    n = 100_000
    rng = np.random.Generator(np.random.PCG64(123))
    lost = model.sample(_uniforms(model, n, [rng]))
    empirical = lost.mean()
    tolerance = 3.0 * model.loss_rate_std_error(n)
    assert abs(empirical - model.stationary_loss_rate()) <= tolerance


@pytest.mark.parametrize(
    "model",
    [
        GilbertElliottLoss(1.0, 1.0),  # every draw toggles the state
        GilbertElliottLoss(1.0, 1.0, 0.3, 0.7),
        GilbertElliottLoss(0.1, 0.5, 0.0, 0.0),  # never lost
        GilbertElliottLoss(0.1, 0.5, 1.0, 1.0),  # always lost
        GilbertElliottLoss(1.0, 0.0),  # bad state absorbs
        GilbertElliottLoss(0.0, 0.4, 0.2, 1.0),  # good state absorbs
        GilbertElliottLoss(0.6, 0.7, 0.1, 0.9),  # both thresholds often crossed
    ],
)
def test_gilbert_elliott_sample_matches_scalar_reference(model):
    for n in (0, 1, 2, 500):
        # A block of one flow per seed, and blocks of one flow.
        block = [np.random.Generator(np.random.PCG64(seed)) for seed in range(20)]
        lost = model.sample(_uniforms(model, n, block))
        assert lost.shape == (n, 20)
        for seed in range(20):
            fast = np.random.Generator(np.random.PCG64(seed))
            slow = np.random.Generator(np.random.PCG64(seed))
            expected = reference_ge_sample(model, n, slow)
            assert np.array_equal(lost[:, seed], expected)
            assert np.array_equal(model.sample(_uniforms(model, n, [fast]))[:, 0], expected)
            # Same draws in the same order: the streams continue in step.
            assert fast.random() == slow.random() == block[seed].random()


def test_gilbert_elliott_random_models_match_scalar_reference():
    rng = np.random.default_rng(99)
    for case in range(200):
        p_gb, p_bg = rng.random(2)
        loss_good, loss_bad = np.sort(rng.random(2))
        model = GilbertElliottLoss(float(p_gb), float(p_bg), float(loss_good), float(loss_bad))
        n = int(rng.integers(0, 400))
        fast = np.random.Generator(np.random.PCG64(case))
        slow = np.random.Generator(np.random.PCG64(case))
        lost = model.sample(_uniforms(model, n, [fast]))[:, 0]
        assert np.array_equal(lost, reference_ge_sample(model, n, slow))


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(0.0, 0.0)
    with pytest.raises(ValueError):
        GilbertElliottLoss(1.5, 0.5)
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(flows=1, packets_per_flow=0, seed=1)
    with pytest.raises(ValueError):
        SimSpec(flows=1, packets_per_flow=10, seed=1, codec_mix=((Codec.AMR, 0.5),))
    with pytest.raises(ValueError):
        SimSpec(flows=-1, packets_per_flow=10, seed=1)
    # 10**400 is an int beyond the float range.
    for ptime_ms in (0.0, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="ptime_ms must be positive and finite"):
            SimSpec(flows=1, packets_per_flow=1, seed=0, ptime_ms=ptime_ms)
    # The last send time is the int 2 * 10**308, beyond the float range.
    with pytest.raises(ValueError, match="last send time"):
        SimSpec(flows=1, packets_per_flow=3, seed=0, ptime_ms=10**308)


def test_spec_rejects_codec_mix_fraction_outside_unit_interval():
    # The fractions sum to 1, but a negative share is no share.
    with pytest.raises(ValueError, match="codec_mix"):
        SimSpec(flows=4, packets_per_flow=10, seed=1,
                codec_mix=((Codec.AMR, 1.5), (Codec.AMR_WB, -0.5)))


@pytest.mark.parametrize(
    "make",
    [
        lambda v: NoJitter(v),
        lambda v: GaussianJitter(v, 30.0),
        lambda v: GaussianJitter(4.0, v),
        lambda v: GammaJitter(v, 3.0),
        lambda v: GammaJitter(2.0, v),
        lambda v: GammaJitter(2.0, 3.0, v),
    ],
    ids=["none-base", "gaussian-sigma", "gaussian-base", "gamma-shape", "gamma-scale", "gamma-base"],
)
# 10**400 is an int beyond the float range.
@pytest.mark.parametrize("value", [math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_jitter_models_reject_non_finite_values(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_clean_dataset_scores_at_profile_maximum():
    spec = SimSpec(
        flows=20,
        packets_per_flow=50,
        seed=3,
        codec_mix=((Codec.AMR, 1.0),),
        loss_models=(BernoulliLoss(0.0),),
        jitter_models=(NoJitter(30.0),),
    )
    table, rejected = synthesized(spec)
    assert rejected == []
    assert len(table) == 20
    assert all(codec is Codec.AMR for codec in table.codec)
    assert table.r_factor == pytest.approx(np.full(20, 93.2))
    assert (table.rx_packets == 50).all()
    assert (table.avg_jitter_ms == 0.0).all()


def test_dataset_is_seed_deterministic():
    spec = SimSpec(flows=30, packets_per_flow=40, seed=11,
                   loss_models=(BernoulliLoss(0.1),),
                   jitter_models=(GaussianJitter(4.0, 25.0),))
    first = table_rows(synthesized(spec)[0])
    second = table_rows(synthesized(spec)[0])
    assert first == second
    third = table_rows(synthesized(SimSpec(flows=30, packets_per_flow=40, seed=12,
                                           loss_models=(BernoulliLoss(0.1),),
                                           jitter_models=(GaussianJitter(4.0, 25.0),)))[0])
    assert first != third


def test_generated_records_pass_ingest_validation():
    spec = SimSpec(
        flows=60,
        packets_per_flow=80,
        seed=21,
        loss_models=(BernoulliLoss(0.05), GilbertElliottLoss(0.05, 0.4)),
        jitter_models=(NoJitter(30.0), GaussianJitter(6.0, 30.0)),
    )
    table, _ = synthesized(spec)
    assert len(table)
    parsed, rejects = parse_cdr_stream(written_cdr(table))
    assert rejects == []
    assert table_rows(parsed) == table_rows(table)


def test_sweep_mean_quality_strictly_decreasing_in_loss():
    sweep = (0.0, 0.05, 0.1, 0.15, 0.2)
    means = []
    for p in sweep:
        spec = SimSpec(
            flows=60,
            packets_per_flow=120,
            seed=31,
            codec_mix=((Codec.AMR, 1.0),),
            loss_models=(BernoulliLoss(p),),
            jitter_models=(NoJitter(30.0),),
        )
        table, _ = synthesized(spec)
        means.append(float(np.mean(table.r_factor)))
    assert all(b < a for a, b in zip(means, means[1:]))


def test_fully_lost_flows_are_rejected_with_reason():
    spec = SimSpec(
        flows=5,
        packets_per_flow=10,
        seed=41,
        loss_models=(BernoulliLoss(1.0),),
        jitter_models=(NoJitter(30.0),),
    )
    table, rejected = synthesized(spec)
    assert len(table) == 0
    assert len(rejected) == 5
    assert all(r.reason == "NOT_ENOUGH_PACKETS" for r in rejected)


def test_codec_mix_shares_close_to_spec():
    spec = SimSpec(
        flows=10_000,
        packets_per_flow=4,
        seed=51,
        codec_mix=((Codec.AMR, 0.7), (Codec.AMR_WB, 0.3)),
        loss_models=(BernoulliLoss(0.0),),
        jitter_models=(NoJitter(30.0),),
    )
    table, _ = synthesized(spec)
    share = np.count_nonzero(table.codec == Codec.AMR) / len(table)
    assert abs(share - 0.7) <= 0.02


def test_spec_digest_tracks_content():
    base = SimSpec(flows=10, packets_per_flow=10, seed=1)
    same = SimSpec(flows=10, packets_per_flow=10, seed=1)
    other = SimSpec(flows=10, packets_per_flow=10, seed=2)
    assert base.digest() == same.digest()
    assert base.digest() != other.digest()


@pytest.mark.parametrize(
    "one, other",
    [
        # The digest once held neither the base delay nor more than six
        # significant digits of a float.
        ("base_delay_ms = 30", "base_delay_ms = 130"),
        ("jitter_models = gamma(2,3)", "jitter_models = gamma(2,3.0000004)"),
    ],
)
def test_spec_digest_tells_apart_specs_that_differ_in_one_field(one, other):
    def spec(line):
        return load_sim_config(f"[sim]\nflows = 4\npackets_per_flow = 10\nseed = 1\n{line}\n")[0]

    assert spec(one) != spec(other)
    assert spec(one).digest() != spec(other).digest()
    assert spec(one).digest() == spec(one).digest()


SIM_CONFIG = """
[sim]
flows = 12
packets_per_flow = 30
seed = 9
ptime_ms = 20
codec_mix = AMR:0.6, AMR-WB:0.4
loss_models = bernoulli(0.05), gilbert_elliott(0.1, 0.5, 0, 1)
jitter_models = none, gaussian(4), gamma(2, 3)
base_delay_ms = 25
initial_delay_ms = 60
window = 8
safety_factor = 2.5

[AMR]
bpl = 15

[AMR-WB]
ie = 3
"""


def test_load_sim_config_full():
    spec, profiles = load_sim_config(SIM_CONFIG)
    assert spec.flows == 12
    assert spec.seed == 9
    assert spec.codec_mix == ((Codec.AMR, 0.6), (Codec.AMR_WB, 0.4))
    assert spec.loss_models == (BernoulliLoss(0.05), GilbertElliottLoss(0.1, 0.5, 0.0, 1.0))
    assert spec.jitter_models == (
        NoJitter(25.0),
        GaussianJitter(4.0, 25.0),
        GammaJitter(2.0, 3.0, 25.0),
    )
    assert spec.jbe.initial_delay_ms == 60.0
    assert spec.jbe.window == 8
    assert spec.jbe.safety_factor == 2.5
    assert profiles[Codec.AMR].bpl == 15.0
    assert profiles[Codec.AMR_WB].ie == 3.0


def test_load_sim_config_names_unknown_key():
    with pytest.raises(ValueError, match="packets_per_flw"):
        load_sim_config("[sim]\nflows = 1\npackets_per_flw = 5\nseed = 1\n")


def test_load_sim_config_requires_core_keys():
    with pytest.raises(ValueError, match="seed"):
        load_sim_config("[sim]\nflows = 1\npackets_per_flow = 5\n")
    with pytest.raises(ValueError, match="sim"):
        load_sim_config("[AMR]\nie = 1\n")


@pytest.mark.parametrize("mix", ["AMR:0.71,, AMR-WB:0.29", "AMR:0.71, AMR-WB:0.29,", ", AMR:1", ""])
def test_codec_mix_rejects_an_empty_item(mix):
    # As a model list rejects "bernoulli(0.1),": an empty item is no codec.
    with pytest.raises(ValueError, match=r"^codec_mix: not a comma-separated list of codec:fraction: "):
        load_sim_config(f"[sim]\nflows = 1\npackets_per_flow = 5\nseed = 1\ncodec_mix = {mix}\n")


def test_load_sim_config_rejects_an_unknown_section():
    with pytest.raises(ValueError, match=r"^unknown section \[simm\]$"):
        load_sim_config("[sim]\nflows = 1\npackets_per_flow = 5\nseed = 1\n[simm]\nflows = 2\n")


def test_spec_rejects_a_codec_named_twice():
    with pytest.raises(ValueError, match="codec_mix names a codec more than once"):
        SimSpec(flows=4, packets_per_flow=10, seed=1, codec_mix=((Codec.AMR, 0.5), (Codec.AMR, 0.5)))


@pytest.mark.parametrize("models", ["none", "none()", "none( )", "NONE ()"])
def test_model_without_arguments_loads(models):
    spec, _ = load_sim_config(f"[sim]\nflows=1\npackets_per_flow=5\nseed=1\njitter_models = {models}\n")
    assert spec.jitter_models == (NoJitter(),)


def test_load_sim_config_rejects_bad_models():
    with pytest.raises(ValueError, match="loss_models"):
        load_sim_config("[sim]\nflows=1\npackets_per_flow=5\nseed=1\nloss_models = wibble(1)\n")
    with pytest.raises(ValueError, match="gilbert_elliott"):
        load_sim_config(
            "[sim]\nflows=1\npackets_per_flow=5\nseed=1\nloss_models = gilbert_elliott(0.1)\n"
        )


# Huge delays on a send grid of 1e307 ms: arrivals, jitter sums and
# play-out delays overflow.
OVERFLOW_SPEC = SimSpec(flows=30, packets_per_flow=10, seed=78, ptime_ms=1e307,
                        loss_models=(BernoulliLoss(0.2),),
                        jitter_models=(GaussianJitter(1e308), NoJitter(1.0)))

LATE_SPEC = dict(
    codec_mix=((Codec.AMR, 0.6), (Codec.AMR_WB, 0.4)),
    loss_models=(BernoulliLoss(0.1), GilbertElliottLoss(0.05, 0.3), GilbertElliottLoss(0.2, 0.4, 0.05, 0.9)),
    jitter_models=(NoJitter(30.0), GaussianJitter(40.0, 30.0), GammaJitter(2.0, 30.0, 30.0)),
)


@pytest.mark.parametrize(
    "spec",
    [
        # Every loss x jitter model; gaussian(40) and gamma(2,30) make late packets.
        SimSpec(flows=47, packets_per_flow=60, seed=71, **LATE_SPEC),
        SimSpec(flows=30, packets_per_flow=60, seed=72, **LATE_SPEC,
                jbe=JbeConfig(initial_delay_ms=10.0, window=3, safety_factor=0.5)),
        # One to three packets: flows with no jitter sample or a single one.
        SimSpec(flows=40, packets_per_flow=1, seed=73, **LATE_SPEC),
        SimSpec(flows=40, packets_per_flow=2, seed=74, **LATE_SPEC),
        SimSpec(flows=60, packets_per_flow=3, seed=75, **LATE_SPEC),
        # All-lost flows beside flows that lose nothing.
        SimSpec(flows=20, packets_per_flow=25, seed=76,
                loss_models=(BernoulliLoss(1.0), BernoulliLoss(0.0)),
                jitter_models=(GammaJitter(2.0, 30.0, 30.0),)),
        # Arrivals, jitter and play-out that overflow.
        SimSpec(flows=12, packets_per_flow=10, seed=77, loss_models=(BernoulliLoss(0.2),),
                jitter_models=(GaussianJitter(1e308), GammaJitter(2.0, 1e308, 1e308), NoJitter(1.0))),
        OVERFLOW_SPEC,
        # A root seed of five entropy words, with Bernoulli and both
        # Gilbert-Elliott variants beside every jitter model.
        SimSpec(flows=23, packets_per_flow=40, seed=2**130 + 7, **LATE_SPEC),
    ],
    ids=["late", "late-small-window", "1-packet", "2-packets", "3-packets", "all-lost", "overflow",
         "overflow-wide-grid", "seed-2**130+7"],
)
@pytest.mark.parametrize("block_packets", [1, 150, 7 * 60 + 13, 65_536])
def test_dataset_matches_per_flow_oracle(monkeypatch, spec, block_packets):
    # Block caps below one flow's packets give blocks of one flow; the
    # others leave a last block that is not full.
    monkeypatch.setattr(simulate, "BLOCK_PACKETS", block_packets)
    profiles = dict(DEFAULT_PROFILES)
    profiles[Codec.AMR_WB] = CodecProfile(codec=Codec.AMR_WB, ie=5.0, bpl=10.0, r0=120.0, advantage=2.0)
    table, rejected = synthesized(spec, profiles)
    assert (table_rows(table), rejected) == reference_synthesize_dataset(spec, profiles)
    assert len(table) + len(rejected) == spec.flows


@pytest.mark.parametrize(
    "spec",
    [dataclasses.replace(OVERFLOW_SPEC, flows=2_100), SimSpec(flows=2_100, packets_per_flow=3, seed=75, **LATE_SPEC)],
    ids=["overflow", "3-packets"],
)
# A chunk is a run of whole blocks of at least CHUNK_ROWS (1,024) flows:
# one block of 1,024 flows, or 11 blocks of 100.  Neither divides 2,100.
@pytest.mark.parametrize("per_block,per_chunk", [(1_024, 1_024), (100, 1_100)], ids=["one-block", "11-blocks"])
def test_chunks_match_per_flow_oracle(monkeypatch, spec, per_block, per_chunk):
    monkeypatch.setattr(simulate, "BLOCK_PACKETS", per_block * spec.packets_per_flow)
    chunks = []
    written, rejected = synthesize_dataset(spec, DEFAULT_PROFILES, chunks.append)
    starts = range(0, spec.flows, per_chunk)
    assert len(chunks) == len(starts)
    for start, chunk in zip(starts, chunks):
        assert all(start <= int(flow_id[5:]) < start + per_chunk for flow_id in chunk.flow_id)
    # Every chunk has rejects, so some fall on each side of each boundary.
    assert {int(r.flow_id[5:]) // per_chunk for r in rejected} == set(range(len(chunks)))
    table = joined_tables(chunks)
    assert written == len(table)
    assert (table_rows(table), rejected) == reference_synthesize_dataset(spec, DEFAULT_PROFILES)


def test_overflowing_flows_are_rejected_with_reasons():
    table, rejected = synthesized(OVERFLOW_SPEC)
    reasons = {r.reason for r in rejected}
    assert reasons == {"ARRIVAL_NOT_FINITE", "JITTER_NOT_FINITE", "PLAYOUT_NOT_FINITE"}
    assert np.isfinite([table.avg_jitter_ms, table.max_jitter_ms, table.r_factor]).all()
    # Only the no-jitter cell (the odd flows) writes rows.
    assert {int(flow_id[5:]) % 2 for flow_id in table.flow_id} == {1}


# Specs of several blocks that reject flows, with each block's flow count:
# a chunk of 11 blocks (an odd count) and one of 10, 2 blocks in each
# chunk, and 9 blocks of one flow each.
WORKER_SPECS = [
    pytest.param(dataclasses.replace(OVERFLOW_SPEC, flows=2_100), 100, id="overflow-11-and-10-blocks"),
    pytest.param(SimSpec(flows=2_100, packets_per_flow=3, seed=75, **LATE_SPEC), 525, id="3-packets-2-blocks"),
    pytest.param(dataclasses.replace(OVERFLOW_SPEC, flows=9), 1, id="overflow-1-flow-blocks"),
]


def worker_run(monkeypatch, spec, per_block, cpus, write=None):
    """synthesize_dataset on ``cpus`` CPUs with blocks of ``per_block``
    flows, failing after a minute: its rows and rejects, and what each
    read from the worker gave."""
    monkeypatch.setattr(simulate, "BLOCK_PACKETS", per_block * spec.packets_per_flow)
    delivered = recorded_worker(monkeypatch, cpus)
    chunks = []
    with within_a_minute("synthesize_dataset"):
        written, rejected = synthesize_dataset(spec, DEFAULT_PROFILES, write or chunks.append)
    table = joined_tables(chunks)
    assert written == len(table)
    return (table_rows(table), rejected), delivered


def odd_blocks(spec, per_block):
    """The blocks the worker replays: the odd-numbered ones, numbered across chunks."""
    per_chunk = per_block * -(-simulate.CHUNK_ROWS // per_block)
    sizes = [min(per_chunk, spec.flows - start) for start in range(0, spec.flows, per_chunk)]
    return sum(-(-size // per_block) for size in sizes) // 2


@pytest.mark.parametrize("spec,per_block", WORKER_SPECS)
def test_worker_gives_the_dataset_of_one_process(monkeypatch, spec, per_block):
    alone, delivered = worker_run(monkeypatch, spec, per_block, cpus=1)
    assert delivered == []
    assert alone == reference_synthesize_dataset(spec, DEFAULT_PROFILES)
    assert alone[1]
    shared, delivered = worker_run(monkeypatch, spec, per_block, cpus=2)
    assert delivered == [True] * odd_blocks(spec, per_block)
    assert shared == alone
    assert_no_child_left()


def test_no_worker_for_chunks_of_one_block(monkeypatch):
    # 1,024 flows per block: each chunk is one block, so the worker would have none.
    spec = SimSpec(flows=2_100, packets_per_flow=3, seed=75, **LATE_SPEC)
    _, delivered = worker_run(monkeypatch, spec, 1_024, cpus=2)
    assert delivered == []


@pytest.mark.parametrize("exit_at", [0, 3])
@pytest.mark.parametrize("spec,per_block", WORKER_SPECS)
def test_blocks_a_worker_leaves_are_replayed_by_the_parent(monkeypatch, spec, per_block, exit_at):
    alone, _ = worker_run(monkeypatch, spec, per_block, cpus=1)
    parent, draw, calls = os.getpid(), simulate._draw_block, itertools.count()

    def draw_or_exit(*args):
        # Only in the worker, at its block exit_at.
        if os.getpid() != parent and next(calls) == exit_at:
            os._exit(3)
        return draw(*args)

    monkeypatch.setattr(simulate, "_draw_block", draw_or_exit)
    shared, delivered = worker_run(monkeypatch, spec, per_block, cpus=2)
    assert shared == alone
    sent = min(exit_at, odd_blocks(spec, per_block))
    assert delivered[:sent] == [True] * sent and not any(delivered[sent:])
    assert_no_child_left()


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()], ids=["OSError", "KeyboardInterrupt"])
def test_worker_is_reaped_when_write_raises(monkeypatch, error):
    # The first of two chunks fails to write while the worker replays the second.
    spec = dataclasses.replace(OVERFLOW_SPEC, flows=2_100)

    def write(table):
        raise error

    with pytest.raises(type(error)):
        worker_run(monkeypatch, spec, 100, cpus=2, write=write)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("error", [MemoryError, RuntimeWarning])
def test_errors_of_a_worker_block_are_raised_by_the_parent(monkeypatch, error, cpus):
    # Block 1 is the worker's, when there is one.
    spec, draw = SimSpec(flows=9, packets_per_flow=60, seed=71, **LATE_SPEC), simulate._draw_block

    def draw_or_fail(spec, first, words):
        if first == 1:
            raise error("block 1")
        return draw(spec, first, words)

    monkeypatch.setattr(simulate, "_draw_block", draw_or_fail)
    with pytest.raises(error, match="block 1"):
        worker_run(monkeypatch, spec, 1, cpus=cpus)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_warnings_of_a_worker_block_are_given_once_by_the_parent(monkeypatch, cpus):
    spec, draw = SimSpec(flows=9, packets_per_flow=60, seed=71, **LATE_SPEC), simulate._draw_block

    def draw_and_warn(spec, first, words):
        if first in (1, 2):
            warnings.warn(f"block {first}", RuntimeWarning)
        return draw(spec, first, words)

    monkeypatch.setattr(simulate, "_draw_block", draw_and_warn)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, _ = worker_run(monkeypatch, spec, 1, cpus=cpus)
    # In block order, as one process gives them.
    assert [str(w.message) for w in caught] == ["block 1", "block 2"]
    assert rows == reference_synthesize_dataset(spec, DEFAULT_PROFILES)
    assert_no_child_left()
