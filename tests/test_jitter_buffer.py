"""Jitter computation and play-out buffer emulation tests."""

import io

import numpy as np
import pytest

from conftest import make_timeline, reference_jbe_figures, timeline_from_delays
from volteqa.jitter_buffer import (
    EmptyFlowError,
    JbeConfig,
    PacketTimeline,
    PlayoutStatus,
    run_jbe,
    timeline_from_csv,
    timeline_to_csv,
)


def test_timeline_rejects_bad_structure():
    with pytest.raises(ValueError):
        make_timeline([(0, 0.0, 10.0), (0, 20.0, 30.0)])  # duplicate seq
    with pytest.raises(ValueError):
        make_timeline([(0, 0.0, 10.0), (1, 25.0, 30.0)])  # off the 20 ms grid
    with pytest.raises(ValueError):
        make_timeline([(0, 0.0, -1.0)])  # arrival before send
    with pytest.raises(ValueError):
        PacketTimeline(ptime_ms=0.0, packets=())


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
    for event, packet in zip(result.playout, timeline.packets):
        assert event.playout_time_ms == packet.arrival_time_ms + 50.0
        assert event.status is PlayoutStatus.BUFFERED
    assert result.p_loss == 0.0
    assert result.mean_playout_delay_ms == 30.0 + 50.0


def test_jbe_all_lost_except_first():
    timeline = timeline_from_delays([15.0] + [None] * 9)
    result = run_jbe(timeline)
    assert result.lost_count == 9
    assert result.received_count == 1
    assert result.playout[0].playout_time_ms == 15.0 + 50.0
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
    got = [(e.seq, e.playout_time_ms, e.status) for e in result.playout]
    assert got == [
        (0, 60.0, PlayoutStatus.BUFFERED),
        (1, 80.0, PlayoutStatus.BUFFERED),
        (2, 100.0, PlayoutStatus.BUFFERED),
        (3, 250.0, PlayoutStatus.LATE),
        (4, 320.0, PlayoutStatus.BUFFERED),
    ]
    assert result.late_count == 1
    assert result.lost_count == 0
    assert result.effective_lost == (False, False, False, True, False)
    assert result.p_loss == 1 / 5
    # Jitter samples 0, 0, |(250-50) - 20| = 180 and |(90-250) - 20| = 180.
    assert result.avg_jitter_ms == 90.0
    assert result.max_jitter_ms == 180.0
    # Play-out minus send: 60, 60, 60, 190 and 240.
    assert result.mean_playout_delay_ms == 122.0


def test_jbe_on_time_status_at_exact_schedule():
    # Second packet arrives exactly at its schedule (send + 10 + 50).
    timeline = make_timeline([(0, 0.0, 10.0), (1, 20.0, 80.0)])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    assert result.playout[1].status is PlayoutStatus.ON_TIME
    assert result.playout[1].playout_time_ms == 80.0


def test_jbe_empty_timeline_raises():
    with pytest.raises(EmptyFlowError):
        run_jbe(PacketTimeline(ptime_ms=20.0, packets=()))


def test_jbe_fully_lost_flow():
    result = run_jbe(timeline_from_delays([None] * 5))
    assert result.received_count == 0
    assert result.lost_count == 5
    assert result.playout == ()
    assert result.effective_lost == (True,) * 5
    assert result.p_loss == 1.0
    assert result.avg_jitter_ms is None
    assert result.mean_playout_delay_ms == 0.0


def test_jbe_anchors_on_first_received_packet():
    timeline = timeline_from_delays([None, 30.0, 30.0])
    result = run_jbe(timeline, JbeConfig(initial_delay_ms=50.0))
    first = result.playout[0]
    assert first.seq == 1
    assert first.playout_time_ms == 50.0 + 50.0  # arrival of seq 1, plus initial delay


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
    for case in range(300):
        zero_jitter = case % 3 == 0
        timeline = _random_timeline(rng, zero_jitter)
        config = JbeConfig(initial_delay_ms=float(rng.uniform(10, 90)))
        result = run_jbe(timeline, config)

        arrivals = {p.seq: p.arrival_time_ms for p in timeline.packets}
        held = [e for e in result.playout if e.status is not PlayoutStatus.LATE]
        # No packet plays before it arrives.
        assert all(e.playout_time_ms >= arrivals[e.seq] for e in result.playout)
        # Held play-out times never regress.
        assert all(b.playout_time_ms >= a.playout_time_ms for a, b in zip(held, held[1:]))
        # Loss accounting.
        assert result.lost_count + result.received_count == timeline.tx_count
        assert result.late_count <= result.received_count
        # Determinism.
        assert run_jbe(timeline, config) == result
        # The one-pass figures equal their plain re-walks exactly.
        expected = reference_jbe_figures(timeline, result)
        assert {key: getattr(result, key) for key in expected} == expected
        # More initial delay never creates more late packets.
        roomier = run_jbe(timeline, JbeConfig(initial_delay_ms=config.initial_delay_ms + 40.0))
        assert roomier.late_count <= result.late_count
        if zero_jitter and result.received_count:
            assert result.late_count == 0
            assert result.p_loss == pytest.approx(min(1.0, result.lost_count / result.received_count))


def test_timeline_csv_round_trip():
    timeline = timeline_from_delays([10.0, None, 31.5, 12.25])
    buffer = io.StringIO()
    timeline_to_csv(timeline, buffer)
    buffer.seek(0)
    assert timeline_from_csv(buffer) == timeline


def test_timeline_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        timeline_from_csv(io.StringIO("a,b,c\n1,2,3\n"))
