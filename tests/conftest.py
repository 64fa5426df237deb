"""Shared test helpers: timeline builders and calibrated sim setups."""

from __future__ import annotations

import numpy as np

from volteqa.emodel import CodecProfile
from volteqa.ingest import Codec
from volteqa.jitter_buffer import JbeResult, PacketEvent, PacketTimeline, PlayoutStatus
from volteqa.simulate import GilbertElliottLoss

# Exponential decay targeted by the narrowband quality-versus-loss analysis.
EXP_OFFSET = 17.953
EXP_AMPLITUDE = 71.63
EXP_DECAY = 0.12

# Straight line targeted by the wideband analysis.
LIN_INTERCEPT = 99.01
LIN_SLOPE = -340.70

# x grid used for fit-recovery checks: the medians of 10 uniform bins on [0, 0.2].
BIN_MEDIANS = np.arange(0.01, 0.20, 0.02)

# Profiles calibrated (by nested grid search over the impairment-curve shape)
# so that the simulated pipeline's binned quality-versus-loss points track
# the target exponential / linear curves.  The burst ratio is the knob that
# lets the loss impairment exceed its random-loss range, hence the paired
# Gilbert-Elliott burstiness targets below.
AMR_CURVE_BURST_R = 106.55367954 / 95.0
AMR_CURVE_PROFILE = CodecProfile(
    codec=Codec.AMR,
    ie=0.0,
    bpl=15.83480451 / AMR_CURVE_BURST_R,
    r0=90.47605821,
)

WB_LINE_BURST_R = 248.4126752 / 95.0
WB_LINE_PROFILE = CodecProfile(
    codec=Codec.AMR_WB,
    ie=0.0,
    bpl=52.12287801 / WB_LINE_BURST_R,
    r0=103.11908275,
)


def exp_curve(x):
    return EXP_OFFSET + EXP_AMPLITUDE * np.exp(-np.asarray(x, dtype=float) / EXP_DECAY)


def line_curve(x):
    return LIN_INTERCEPT + LIN_SLOPE * np.asarray(x, dtype=float)


def burst_sweep(burst_r: float, targets=BIN_MEDIANS) -> list[GilbertElliottLoss]:
    """Loss models whose post-buffer loss fractions land near the given
    targets with the given expected burst ratio.

    The effective loss uses received packets as denominator, so the network
    rate for target x is x / (1 + x); mean burst length burst_r / (1 - p)
    yields the requested observed-to-random run-length ratio.
    """
    models = []
    for x in targets:
        p_net = float(x) / (1.0 + float(x))
        models.append(
            GilbertElliottLoss(
                p_good_to_bad=p_net / burst_r,
                p_bad_to_good=(1.0 - p_net) / burst_r,
            )
        )
    return models


def make_timeline(rows, ptime_ms: float = 20.0) -> PacketTimeline:
    """Timeline from (seq, send, arrival-or-None) triples."""
    return PacketTimeline(
        ptime_ms=ptime_ms,
        packets=tuple(PacketEvent(seq, send, arrival) for seq, send, arrival in rows),
    )


def timeline_from_delays(delays, ptime_ms: float = 20.0) -> PacketTimeline:
    """Timeline with packet k sent at k*ptime; delays[k] is the network delay
    in ms or None for a lost packet."""
    rows = []
    for seq, delay in enumerate(delays):
        send = seq * ptime_ms
        rows.append((seq, send, None if delay is None else send + delay))
    return make_timeline(rows, ptime_ms)


def reference_jbe_figures(timeline: PacketTimeline, result: JbeResult) -> dict:
    """Scalar oracle for the per-flow figures ``run_jbe`` measures in its pass.

    Each figure is recomputed by its own plain walk over the timeline or the
    play-out schedule: transit jitter over consecutive received packets,
    lost-or-late flags from the play-out statuses, the mean of play-out
    time minus send time, and (lost + late) / received clamped to 1.
    """
    received = [p for p in timeline.packets if p.arrival_time_ms is not None]
    jitter = [
        abs((b.arrival_time_ms - a.arrival_time_ms) - (b.send_time_ms - a.send_time_ms))
        for a, b in zip(received, received[1:])
    ]
    late_seqs = {e.seq for e in result.playout if e.status is PlayoutStatus.LATE}
    sends = {p.seq: p.send_time_ms for p in timeline.packets}
    delays = [e.playout_time_ms - sends[e.seq] for e in result.playout]
    lost = timeline.tx_count - len(received)
    return {
        "avg_jitter_ms": sum(jitter) / len(jitter) if jitter else None,
        "max_jitter_ms": max(jitter) if jitter else None,
        "effective_lost": tuple(
            p.arrival_time_ms is None or p.seq in late_seqs for p in timeline.packets
        ),
        "mean_playout_delay_ms": sum(delays) / len(delays) if delays else 0.0,
        "p_loss": min(1.0, (lost + len(late_seqs)) / len(received)) if received else 1.0,
    }

