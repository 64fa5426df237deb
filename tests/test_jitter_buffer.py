"""Jitter computation and play-out buffer emulation tests."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    jbe_figures,
    make_timeline,
    reference_effective_loss,
    reference_run_jbe,
    timeline_from_delays,
)
from volteqa.jitter_buffer import (
    EmptyFlowError,
    JbeConfig,
    PacketTimeline,
    effective_loss,
    run_jbe,
)


def test_timeline_rejects_bad_structure():
    with pytest.raises(ValueError, match="arrival before send at packet 0"):
        make_timeline([-1.0])
    with pytest.raises(ValueError, match="arrival before send at packet 1"):
        make_timeline([10.0, 19.0])  # packet 1 is sent at 20
    # 10**400 is an int beyond the float range.
    for ptime_ms in (0.0, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="ptime_ms must be positive and finite"):
            PacketTimeline(ptime_ms=ptime_ms, arrival_ms=[10.0])
    with pytest.raises(ValueError, match="1-D or 2-D"):
        PacketTimeline(ptime_ms=20.0, arrival_ms=np.zeros((2, 3, 4)))


@pytest.mark.parametrize("arrival", [math.inf, -math.inf])
def test_timeline_rejects_non_finite_times(arrival):
    with pytest.raises(ValueError, match="infinite"):
        make_timeline([arrival, 30.0])


def test_timeline_rejects_a_last_send_time_that_is_not_finite():
    # Packets 0 and 1 are sent at 0 and 1e308; packet 2 at 2e308 overflows.
    with pytest.raises(ValueError, match="send time not finite at packet 2"):
        PacketTimeline(ptime_ms=1e308, arrival_ms=[1.0, 1e308, 1.7e308])
    assert PacketTimeline(ptime_ms=1e308, arrival_ms=[1.0, 1.7e308]).send_ms.tolist() == [0.0, 1e308]


def test_timeline_nan_arrival_means_lost():
    timeline = make_timeline([10.0, None, 50.0])
    assert np.isnan(timeline.arrival_ms[1])
    assert run_jbe(timeline).lost_count == 1


def test_timeline_columns_are_read_only_copies():
    arrivals = np.array([10.0, 30.0])
    timeline = PacketTimeline(ptime_ms=20.0, arrival_ms=arrivals)
    arrivals[0] = 99.0
    assert timeline.arrival_ms[0] == 10.0
    assert timeline.send_ms.dtype == timeline.arrival_ms.dtype == np.float64
    for column in (timeline.send_ms, timeline.arrival_ms):
        with pytest.raises(ValueError):
            column[0] = 1


def test_jitter_zero_for_constant_delay():
    result = run_jbe(timeline_from_delays([30.0] * 10))
    assert result.avg_jitter_ms == 0.0
    assert result.max_jitter_ms == 0.0


def test_jitter_hand_example():
    # Sends at 0, 20, 40 and arrivals at 10, 35, 50:
    # |(35-10) - 20| = 5 and |(50-35) - 20| = 5.
    result = run_jbe(make_timeline([10.0, 35.0, 50.0]))
    assert result.avg_jitter_ms == 5.0
    assert result.max_jitter_ms == 5.0


def test_jitter_skips_lost_packets():
    # Received packets 0, 2, 3 arrive at 10, 52, 80; the sample across the
    # gap compares packet 2 with packet 0: |(52-10) - 40| = 2, then |(80-52) - 20| = 8.
    result = run_jbe(timeline_from_delays([10.0, None, 12.0, 20.0]))
    assert result.avg_jitter_ms == 5.0
    assert result.max_jitter_ms == 8.0


def test_jitter_needs_two_received_packets():
    result = run_jbe(timeline_from_delays([10.0, None, None]))
    assert np.isnan(result.avg_jitter_ms).all()
    assert np.isnan(result.max_jitter_ms).all()


def test_jbe_zero_jitter_keeps_initial_delay():
    timeline = timeline_from_delays([30.0] * 20)
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert result.late_count == 0
    assert result.lost_count == 0
    assert result.received_count == 20
    assert np.array_equal(result.playout_ms, timeline.arrival_ms + 50.0)
    assert not result.effective_lost.any()
    assert result.p_loss == 0.0
    assert result.mean_playout_delay_ms == 30.0 + 50.0


def test_jbe_all_lost_except_first():
    timeline = timeline_from_delays([15.0] + [None] * 9)
    result = run_jbe(timeline)
    assert result.lost_count == 9
    assert result.received_count == 1
    assert result.playout_ms[0, 0] == 15.0 + 50.0
    assert result.p_loss == 1.0  # raw 9/1 clamps
    assert np.isnan(result.avg_jitter_ms).all()


def test_jbe_hand_stepped_five_packets():
    # Packet 3 arrives far beyond schedule; stepped by hand:
    # schedules 60, 80, 100 for the first three, packet 3 late at 250,
    # packet 4 buffered at 320 after the jitter spike inflates the window.
    timeline = make_timeline([10.0, 30.0, 50.0, 250.0, 90.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0, window=16, safety_factor=3.0))
    assert result.playout_ms[:, 0].tolist() == [60.0, 80.0, 100.0, 250.0, 320.0]
    assert jbe_figures(result)["late"] == (False, False, False, True, False)
    assert result.late_count == 1
    assert result.lost_count == 0
    assert result.effective_lost[:, 0].tolist() == [False, False, False, True, False]
    assert result.p_loss == 1 / 5
    # Jitter samples 0, 0, |(250-50) - 20| = 180 and |(90-250) - 20| = 180.
    assert result.avg_jitter_ms == 90.0
    assert result.max_jitter_ms == 180.0
    # Play-out minus send: 60, 60, 60, 190 and 240.
    assert result.mean_playout_delay_ms == 122.0


def test_jbe_window_slides_past_its_length():
    # Window 2, safety factor 3, delays 10, 12, 16, 24, 10, 10, 10: jitter
    # samples 2, 4, 8, 14, 0, 0, so the sums of the last two samples are
    # 2, 6, 12, 22, 14.
    # Headroom of packet k >= 2 is 3 * sum / min(k - 1, 2): 6, 9, 18, 33, 21,
    # on raw schedules 10 + 50 + send: 60, 80, 100, 120, 140, 160, 180.
    # Every packet is early, so it plays at its schedule.
    timeline = timeline_from_delays([10.0, 12.0, 16.0, 24.0, 10.0, 10.0, 10.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0, window=2, safety_factor=3.0))
    assert result.playout_ms[:, 0].tolist() == [60.0, 80.0, 106.0, 129.0, 158.0, 193.0, 201.0]
    assert result.late_count == 0
    assert result.avg_jitter_ms == 28.0 / 6
    assert result.max_jitter_ms == 14.0
    # Play-out minus send: 60, 60, 66, 69, 78, 93, 81.
    assert result.mean_playout_delay_ms == 507.0 / 7


def test_jbe_window_sum_is_the_sum_of_its_last_samples():
    # Window 3, safety factor 3: the last packet's headroom is the sum of
    # jitter samples 4, 5 and 6, added oldest first.  A running sum that
    # subtracts the samples leaving the window rounds to 282.90000000000003.
    arrivals = [47.2, 50.6, 92.9, 92.9, 135.8, 135.8, 153.3, 170.1, 191.9]
    timeline = PacketTimeline(ptime_ms=20.0, arrival_ms=arrivals)
    config = JbeConfig(initial_delay_ms=50.0, window=3, safety_factor=3.0)
    samples = [abs((b - a) - 20.0) for a, b in zip(arrivals, arrivals[1:])]
    headroom = 3.0 * ((samples[4] + samples[5] + samples[6]) / 3)
    assert 47.2 + 50.0 + 160.0 + headroom == 282.9
    assert run_jbe(timeline, config).playout_ms[-1, 0] == 282.9
    assert reference_run_jbe(timeline, config)["playout_ms"][-1] == 282.9


def test_jbe_on_time_status_at_exact_schedule():
    # Second packet arrives exactly at its schedule (send + 10 + 50): held, not late.
    timeline = make_timeline([10.0, 80.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert not result.effective_lost[1, 0]
    assert result.playout_ms[1, 0] == 80.0


def test_jbe_on_time_packet_sets_the_play_out_head():
    # Window 1, safety factor 1: packet 1 plays late at 120 (jitter 90),
    # packet 2 is scheduled 10 + 50 + 40 + 90 = 190 and arrives exactly then
    # (jitter 50), so packet 3's raw schedule 10 + 50 + 60 + 50 = 170 is held
    # to 190.
    timeline = make_timeline([10.0, 120.0, 190.0, 150.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0, window=1, safety_factor=1.0))
    assert result.playout_ms[:, 0].tolist() == [60.0, 120.0, 190.0, 190.0]
    assert result.effective_lost[:, 0].tolist() == [False, True, False, False]
    # Jitter samples 90, 50 and |(150-190) - 20| = 60; delays 60, 100, 150, 130.
    assert result.avg_jitter_ms == 200.0 / 3
    assert result.mean_playout_delay_ms == 110.0


def test_jbe_empty_timeline_raises():
    with pytest.raises(EmptyFlowError):
        run_jbe(PacketTimeline(ptime_ms=20.0, arrival_ms=[]))


def test_jbe_fully_lost_flow():
    result = run_jbe(timeline_from_delays([None] * 5))
    assert result.received_count == 0
    assert result.lost_count == 5
    assert np.isnan(result.playout_ms).all()
    assert result.effective_lost[:, 0].tolist() == [True] * 5
    assert result.p_loss == 1.0
    assert np.isnan(result.avg_jitter_ms).all()
    assert result.mean_playout_delay_ms == 0.0


def test_effective_loss_clamps_and_never_rounds_up_to_one():
    assert effective_loss(0, 0, 0) == 1.0  # nothing received: fully lost
    assert effective_loss(3, 0, 0) == 1.0
    assert effective_loss(2, 1, 3) == 1.0  # missing == received
    assert effective_loss(5, 2, 3) == 1.0  # missing > received
    assert effective_loss(1, 1, 8) == 0.25
    # No int-to-float overflow: Python ints of any size, in an object array.
    lost = np.array([10**400, 1, 10**400 - 1], dtype=object)
    received = np.array([5, 4, 10**400], dtype=object)
    assert effective_loss(lost, 0, received).tolist() == [1.0, 0.25, (10**400 - 1) / 10**400]
    # missing = received - 1 stays below 1 for every count below 2**53.
    received = np.array([2, 3, 1_000, 2**53 - 1])
    assert (effective_loss(received - 1, 0, received) < 1.0).all()
    assert (effective_loss(received - 2, 1, received) < 1.0).all()
    # Element by element, the array form is the scalar rule.
    lost, late, received = np.random.default_rng(3).integers(0, 60, (3, 500))
    assert effective_loss(lost, late, received).tolist() == [
        reference_effective_loss(*counts) for counts in zip(lost.tolist(), late.tolist(), received.tolist())
    ]


def test_jbe_anchors_on_first_received_packet():
    timeline = timeline_from_delays([None, 30.0, 30.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert np.isnan(result.playout_ms[0, 0])
    assert result.playout_ms[1, 0] == 50.0 + 50.0  # arrival of packet 1, plus initial delay


def test_config_validation():
    with pytest.raises(ValueError):
        JbeConfig(initial_delay_ms=0.0)
    with pytest.raises(ValueError):
        JbeConfig(window=0)
    with pytest.raises(ValueError):
        JbeConfig(safety_factor=0.0)


@pytest.mark.parametrize("name", ["initial_delay_ms", "safety_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError):
        JbeConfig(**{name: value})


def _random_timeline(rng: np.random.Generator, zero_jitter: bool = False) -> PacketTimeline:
    n = int(rng.integers(2, 60))
    base = float(rng.uniform(5, 60))
    delays = []
    for _ in range(n):
        if rng.random() < 0.15:
            delays.append(None)
        elif zero_jitter:
            delays.append(base)
        else:
            delays.append(base + float(rng.gamma(2.0, 6.0)))
    if all(d is None for d in delays):
        delays[0] = base
    return timeline_from_delays(delays)


def test_jbe_randomized_property_sweep():
    rng = np.random.default_rng(1234)
    late_total = 0
    clamped_total = 0
    for case in range(300):
        zero_jitter = case % 3 == 0
        timeline = _random_timeline(rng, zero_jitter)
        config = JbeConfig(
            initial_delay_ms=float(rng.uniform(10, 90)),
            window=int(rng.integers(1, 21)),
            safety_factor=float(rng.uniform(0.5, 4.0)),
        )
        result = run_jbe(timeline, config)

        # Schedule, late flags and every figure equal the scalar loop exactly.
        figures = jbe_figures(result)
        assert figures == reference_run_jbe(timeline, config)
        received = ~np.isnan(timeline.arrival_ms)
        playout = result.playout_ms[received]
        held = playout[~result.effective_lost[received]]
        # No packet plays before it arrives.
        assert (playout >= timeline.arrival_ms[received]).all()
        # Held play-out times never regress; equal neighbours were clamped
        # to the last held instant.
        assert (np.diff(held) >= 0).all()
        clamped_total += int(np.count_nonzero(np.diff(held) == 0))
        late_total += result.late_count
        # Loss accounting.
        assert result.lost_count + result.received_count == timeline.tx_count
        assert result.late_count <= result.received_count
        assert result.late_count == sum(figures["late"])
        # More initial delay never creates more late packets.
        roomier = run_jbe(
            timeline,
            JbeConfig(config.initial_delay_ms + 40.0, config.window, config.safety_factor),
        )
        assert roomier.late_count <= result.late_count
        if zero_jitter and result.received_count:
            assert result.late_count == 0
            assert result.p_loss == pytest.approx(min(1.0, result.lost_count / result.received_count))
    # The sweep reaches the late path and the held-instant clamp.
    assert late_total > 0
    assert clamped_total > 0


def _random_block(rng: np.random.Generator, packets: int, flows: int) -> PacketTimeline:
    """A block of random flows on one 20 ms grid, with losses, all-lost
    flows, gamma jitter and out-of-order arrivals."""
    send = np.arange(packets) * 20.0
    arrival = send[:, None] + rng.uniform(5, 60, flows) + rng.gamma(2.0, 12.0, (packets, flows))
    arrival[rng.random((packets, flows)) < rng.choice([0.0, 0.15, 0.6, 1.0], flows)] = np.nan
    return PacketTimeline(ptime_ms=20.0, arrival_ms=arrival)


@pytest.mark.parametrize("packets", [1, 2, 3, 17, 80])
def test_jbe_block_matches_scalar_reference_per_flow(packets):
    rng = np.random.default_rng(packets)
    for _ in range(10):
        flows = int(rng.integers(1, 40))
        timeline = _random_block(rng, packets, flows)
        config = JbeConfig(
            initial_delay_ms=float(rng.uniform(5, 60)),
            window=int(rng.integers(1, 21)),
            safety_factor=float(rng.uniform(0.5, 4.0)),
        )
        # The drawn window and the edges: one sample, all but one, every
        # packet, and far beyond the flow.
        for window in (config.window, 1, max(packets - 1, 1), packets, 10**30):
            edge = dataclasses.replace(config, window=window)
            result = run_jbe(timeline, edge)
            assert result.playout_ms.shape == result.effective_lost.shape == (packets, flows)
            for flow in range(flows):
                assert jbe_figures(result, flow) == reference_run_jbe(timeline, edge, flow)
        # The tracer reads block totals as ints.
        assert type(timeline.tx_count) is int and timeline.tx_count == packets * flows
        for total, per_flow in (
            (result.lost_count, result.lost_counts),
            (result.late_count, result.late_counts),
            (result.received_count, result.received_counts),
        ):
            assert type(total) is int and total == int(per_flow.sum())


@pytest.mark.parametrize("flows", [1, 2, 32])
def test_jbe_means_add_each_column_left_to_right(flows):
    # Columns long enough that a pairwise sum would round differently from
    # the scalar loop's left-to-right sums, in blocks with the flows axis
    # fast in memory and in a block of one flow, where the packets axis is.
    rng = np.random.default_rng(flows)
    send = np.arange(1000) * 20.0
    arrival = send[:, None] + rng.uniform(5, 60, flows) + rng.gamma(2.0, 12.0, (1000, flows))
    arrival[rng.random((1000, flows)) < 0.1] = np.nan
    timeline = PacketTimeline(ptime_ms=20.0, arrival_ms=arrival)
    result = run_jbe(timeline)
    for flow in range(flows):
        figures, expected = jbe_figures(result, flow), reference_run_jbe(timeline, flow=flow)
        assert figures["avg_jitter_ms"] == expected["avg_jitter_ms"]
        assert figures["mean_playout_delay_ms"] == expected["mean_playout_delay_ms"]


@pytest.mark.parametrize("window", [2**63, 10**30], ids=["2**63", "10**30"])
def test_jbe_window_beyond_the_flow_is_the_flow_length(window):
    # A window longer than the flow holds every sample: no int64 overflow.
    timeline = _random_block(np.random.default_rng(4), 30, 6)
    wide = run_jbe(timeline, JbeConfig(window=window))
    whole = run_jbe(timeline, JbeConfig(window=30))
    for flow in range(6):
        assert jbe_figures(wide, flow) == jbe_figures(whole, flow)


def test_jbe_flow_does_not_depend_on_its_block():
    rng = np.random.default_rng(8)
    timeline = _random_block(rng, 60, 12)
    block = run_jbe(timeline)
    for flow in range(12):
        alone = PacketTimeline(ptime_ms=20.0, arrival_ms=timeline.arrival_ms[:, flow])
        assert jbe_figures(run_jbe(alone)) == jbe_figures(block, flow)


def test_jbe_overflowing_figures_become_infinite():
    # Send grid of 1e307 ms and arrivals near the largest float: the jitter
    # samples are finite, their sum and the play-out delays are not.
    timeline = PacketTimeline(ptime_ms=1e307, arrival_ms=[0.0, 1.7e308, 2e307])
    result = run_jbe(timeline)
    figures = jbe_figures(result)
    assert figures == reference_run_jbe(timeline)
    assert figures["max_jitter_ms"] == 1.7e308 - 1e307
    assert figures["avg_jitter_ms"] == math.inf
