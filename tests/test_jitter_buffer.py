"""Jitter computation and play-out buffer emulation tests."""

import math

import numpy as np
import pytest

from conftest import jbe_figures, make_timeline, reference_run_jbe, timeline_from_delays
from volteqa.jitter_buffer import (
    EmptyFlowError,
    JbeConfig,
    PacketTimeline,
    run_jbe,
)


def test_timeline_rejects_bad_structure():
    with pytest.raises(ValueError):
        make_timeline([(0, 0.0, 10.0), (0, 20.0, 30.0)])  # duplicate seq
    with pytest.raises(ValueError):
        make_timeline([(0, 0.0, 10.0), (1, 25.0, 30.0)])  # off the 20 ms grid
    with pytest.raises(ValueError):
        make_timeline([(0, 0.0, -1.0)])  # arrival before send
    for ptime_ms in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PacketTimeline(ptime_ms=ptime_ms, seq=[0], send_ms=[0.0], arrival_ms=[10.0])
    with pytest.raises(ValueError):
        PacketTimeline(ptime_ms=20.0, seq=[0, 1], send_ms=[0.0, 20.0], arrival_ms=[5.0])


@pytest.mark.parametrize(
    "send, arrival",
    [
        (math.nan, 10.0),
        (math.inf, 10.0),
        (-math.inf, 10.0),
        (0.0, math.inf),
        (0.0, -math.inf),
    ],
)
def test_timeline_rejects_non_finite_times(send, arrival):
    with pytest.raises(ValueError, match="finite|infinite"):
        make_timeline([(0, send, arrival), (1, 20.0, 30.0)])


def test_timeline_nan_arrival_means_lost():
    timeline = make_timeline([(0, 0.0, 10.0), (1, 20.0, None), (2, 40.0, 50.0)])
    assert np.isnan(timeline.arrival_ms[1])
    assert run_jbe(timeline).lost_count == 1


def test_timeline_columns_are_read_only_copies():
    arrivals = np.array([10.0, 30.0])
    timeline = PacketTimeline(ptime_ms=20.0, seq=[0, 1], send_ms=[0.0, 20.0], arrival_ms=arrivals)
    arrivals[0] = 99.0
    assert timeline.arrival_ms[0] == 10.0
    for column in (timeline.seq, timeline.send_ms, timeline.arrival_ms):
        with pytest.raises(ValueError):
            column[0] = 1


def test_timeline_allows_seq_gaps_on_grid():
    timeline = make_timeline([(0, 0.0, 5.0), (3, 60.0, 66.0)])
    assert timeline.tx_count == 2


def test_jitter_zero_for_constant_delay():
    result = run_jbe(timeline_from_delays([30.0] * 10))
    assert result.avg_jitter_ms == 0.0
    assert result.max_jitter_ms == 0.0


def test_jitter_hand_example():
    # Sends at 0, 20, 40 and arrivals at 10, 35, 50:
    # |(35-10) - 20| = 5 and |(50-35) - 20| = 5.
    result = run_jbe(make_timeline([(0, 0.0, 10.0), (1, 20.0, 35.0), (2, 40.0, 50.0)]))
    assert result.avg_jitter_ms == 5.0
    assert result.max_jitter_ms == 5.0


def test_jitter_skips_lost_packets():
    # Received seqs 0, 2, 3 arrive at 10, 52, 80; the sample across the
    # gap compares seq 2 with seq 0: |(52-10) - 40| = 2, then |(80-52) - 20| = 8.
    result = run_jbe(timeline_from_delays([10.0, None, 12.0, 20.0]))
    assert result.avg_jitter_ms == 5.0
    assert result.max_jitter_ms == 8.0


def test_jitter_needs_two_received_packets():
    result = run_jbe(timeline_from_delays([10.0, None, None]))
    assert result.avg_jitter_ms is None
    assert result.max_jitter_ms is None


def test_jbe_zero_jitter_keeps_initial_delay():
    timeline = timeline_from_delays([30.0] * 20)
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert result.late_count == 0
    assert result.lost_count == 0
    assert result.received_count == 20
    assert np.array_equal(result.playout_ms, timeline.arrival_ms + 50.0)
    assert not result.late.any()
    assert result.p_loss == 0.0
    assert result.mean_playout_delay_ms == 30.0 + 50.0


def test_jbe_all_lost_except_first():
    timeline = timeline_from_delays([15.0] + [None] * 9)
    result = run_jbe(timeline)
    assert result.lost_count == 9
    assert result.received_count == 1
    assert result.playout_ms[0] == 15.0 + 50.0
    assert result.p_loss == 1.0  # raw 9/1 clamps
    assert result.avg_jitter_ms is None


def test_jbe_hand_stepped_five_packets():
    # Packet 3 (seq 3) arrives far beyond schedule; stepped by hand:
    # schedules 60, 80, 100 for the first three, packet 3 late at 250,
    # packet 4 buffered at 320 after the jitter spike inflates the window.
    timeline = make_timeline(
        [
            (0, 0.0, 10.0),
            (1, 20.0, 30.0),
            (2, 40.0, 50.0),
            (3, 60.0, 250.0),
            (4, 80.0, 90.0),
        ]
    )
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0, window=16, safety_factor=3.0))
    assert result.playout_ms.tolist() == [60.0, 80.0, 100.0, 250.0, 320.0]
    assert result.late.tolist() == [False, False, False, True, False]
    assert result.late_count == 1
    assert result.lost_count == 0
    assert result.effective_lost.tolist() == [False, False, False, True, False]
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
    assert result.playout_ms.tolist() == [60.0, 80.0, 106.0, 129.0, 158.0, 193.0, 201.0]
    assert result.late_count == 0
    assert result.avg_jitter_ms == 28.0 / 6
    assert result.max_jitter_ms == 14.0
    # Play-out minus send: 60, 60, 66, 69, 78, 93, 81.
    assert result.mean_playout_delay_ms == 507.0 / 7


def test_jbe_on_time_status_at_exact_schedule():
    # Second packet arrives exactly at its schedule (send + 10 + 50): held, not late.
    timeline = make_timeline([(0, 0.0, 10.0), (1, 20.0, 80.0)])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert not result.late[1]
    assert result.playout_ms[1] == 80.0


def test_jbe_on_time_packet_sets_the_play_out_head():
    # Window 1, safety factor 1: seq 1 plays late at 120 (jitter 90), seq 2
    # is scheduled 10 + 50 + 40 + 90 = 190 and arrives exactly then (jitter
    # 50), so seq 3's raw schedule 10 + 50 + 60 + 50 = 170 is held to 190.
    timeline = make_timeline(
        [(0, 0.0, 10.0), (1, 20.0, 120.0), (2, 40.0, 190.0), (3, 60.0, 150.0)]
    )
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0, window=1, safety_factor=1.0))
    assert result.playout_ms.tolist() == [60.0, 120.0, 190.0, 190.0]
    assert result.late.tolist() == [False, True, False, False]
    # Jitter samples 90, 50 and |(150-190) - 20| = 60; delays 60, 100, 150, 130.
    assert result.avg_jitter_ms == 200.0 / 3
    assert result.mean_playout_delay_ms == 110.0


def test_jbe_empty_timeline_raises():
    with pytest.raises(EmptyFlowError):
        run_jbe(PacketTimeline(ptime_ms=20.0, seq=[], send_ms=[], arrival_ms=[]))


def test_jbe_fully_lost_flow():
    result = run_jbe(timeline_from_delays([None] * 5))
    assert result.received_count == 0
    assert result.lost_count == 5
    assert np.isnan(result.playout_ms).all()
    assert result.effective_lost.tolist() == [True] * 5
    assert result.p_loss == 1.0
    assert result.avg_jitter_ms is None
    assert result.mean_playout_delay_ms == 0.0


def test_jbe_anchors_on_first_received_packet():
    timeline = timeline_from_delays([None, 30.0, 30.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert np.isnan(result.playout_ms[0])
    assert result.playout_ms[1] == 50.0 + 50.0  # arrival of seq 1, plus initial delay


def test_config_validation():
    with pytest.raises(ValueError):
        JbeConfig(initial_delay_ms=0.0)
    with pytest.raises(ValueError):
        JbeConfig(window=0)
    with pytest.raises(ValueError):
        JbeConfig(safety_factor=0.0)


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
        assert jbe_figures(result) == reference_run_jbe(timeline, config)
        for value in (result.p_loss, result.avg_jitter_ms, result.mean_playout_delay_ms):
            assert type(value) in (float, type(None))
        received = ~np.isnan(timeline.arrival_ms)
        playout = result.playout_ms[received]
        held = playout[~result.late[received]]
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
