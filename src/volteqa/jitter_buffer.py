"""Receiver-side adaptive jitter buffer emulation over packet timelines.

The emulator replays a flow's per-packet send/arrival times through an
adaptive play-out buffer: packets arriving early are held until their
scheduled play-out instant, packets arriving after it are forwarded
immediately and counted as late.  Late and lost packets together define
the effective packet-loss rate of the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SEND_GRID_TOLERANCE_MS = 1e-6


class EmptyFlowError(ValueError):
    """Raised when a timeline carries no packets at all."""


@dataclass(frozen=True, eq=False)
class PacketTimeline:
    """One flow's packets as columns on a fixed packetization grid.

    ``seq``, ``send_ms`` and ``arrival_ms`` hold one entry per transmitted
    packet, in send order; a NaN arrival marks a lost packet.  The columns
    are stored as read-only int64/float64 copies.
    """

    ptime_ms: float
    seq: np.ndarray
    send_ms: np.ndarray
    arrival_ms: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ptime_ms) and self.ptime_ms > 0):
            raise ValueError(f"ptime_ms must be positive and finite, got {self.ptime_ms}")
        seq = np.array(self.seq, dtype=np.int64)
        send = np.array(self.send_ms, dtype=np.float64)
        arrival = np.array(self.arrival_ms, dtype=np.float64)
        if seq.ndim != 1 or seq.shape != send.shape or seq.shape != arrival.shape:
            raise ValueError(
                f"columns must be 1-D and of equal length, got shapes "
                f"{seq.shape}, {send.shape}, {arrival.shape}"
            )
        for name, column in (("seq", seq), ("send_ms", send), ("arrival_ms", arrival)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        _first_failure(np.diff(seq) <= 0, seq[1:], "seq not strictly increasing")
        _first_failure(~np.isfinite(send), seq, "send time not finite")
        _first_failure(np.isinf(arrival), seq, "arrival time infinite")
        if seq.size:
            expected = send[0] + (seq - seq[0]) * self.ptime_ms
            _first_failure(
                np.abs(send - expected) > SEND_GRID_TOLERANCE_MS, seq, "send time off the ptime grid"
            )
        # NaN (lost) compares false, so only received packets can fail.
        _first_failure(arrival < send, seq, "arrival before send")

    @property
    def tx_count(self) -> int:
        return self.seq.size


def _first_failure(failed: np.ndarray, seq: np.ndarray, message: str) -> None:
    if failed.any():
        raise ValueError(f"{message} at seq={seq[np.argmax(failed)]}")


@dataclass(frozen=True)
class JbeConfig:
    """Emulator knobs: initial play-out delay, jitter window, safety margin."""

    initial_delay_ms: float = 50.0
    window: int = 16
    safety_factor: float = 3.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.initial_delay_ms) and self.initial_delay_ms > 0):
            raise ValueError("initial_delay_ms must be positive and finite")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not (math.isfinite(self.safety_factor) and self.safety_factor > 0):
            raise ValueError("safety_factor must be positive and finite")


@dataclass(frozen=True, eq=False)
class JbeResult:
    """Play-out schedule plus the loss, jitter and delay figures of one emulated flow.

    ``playout_ms``, ``late`` and ``effective_lost`` hold one entry per
    transmitted packet: the play-out instant (NaN for a lost packet),
    whether the packet played late, and whether it was lost or late.
    ``p_loss`` is the effective loss (lost + late) / received, clamped to
    [0, 1]; a flow with nothing received counts as fully lost.  Jitter is
    the instantaneous transit jitter |delta(arrival) - delta(send)|
    between consecutive received packets, across loss gaps; its mean and
    maximum are None with fewer than two received packets.  The mean
    play-out delay is taken over received packets, from send to play-out,
    and is 0.0 with none.
    """

    playout_ms: np.ndarray
    late: np.ndarray
    effective_lost: np.ndarray
    lost_count: int
    late_count: int
    received_count: int
    p_loss: float
    avg_jitter_ms: float | None
    max_jitter_ms: float | None
    mean_playout_delay_ms: float


def run_jbe(timeline: PacketTimeline, config: JbeConfig = JbeConfig()) -> JbeResult:
    """Replay a timeline through the adaptive play-out buffer.

    The play-out schedule is anchored at the first received packet, which
    plays ``initial_delay_ms`` after it arrives; later packets are scheduled
    on the send grid relative to that anchor plus an adaptive headroom of
    ``safety_factor`` times the mean instantaneous jitter of the previous
    ``window`` received packets.  With no jitter observed the play-out delay
    therefore stays at the initial delay.  A packet arriving at or before
    its scheduled instant is held until then; one arriving after it is
    forwarded immediately at its arrival time and counted late.  Held
    packets never play earlier than a previously held packet (single
    play-out head).

    Only the jitter window sum is computed packet by packet.  The last
    held play-out instant before a packet equals the running maximum of
    the raw schedules (anchor plus send offset plus headroom) of the
    earlier packets that arrived by their raw schedule, so it is a prefix
    maximum rather than sequential state.
    """
    if not timeline.tx_count:
        raise EmptyFlowError("timeline has no packets")

    received = ~np.isnan(timeline.arrival_ms)
    arrival = timeline.arrival_ms[received]
    send = timeline.send_ms[received]
    received_count = arrival.size
    jitter = np.abs(np.diff(arrival) - np.diff(send))
    samples = jitter.tolist()

    # Window sums after each jitter sample.  The plain loop keeps the float
    # rounding of the running sum.  Sample i - window leaves the window as
    # sample i enters; the padding subtracts 0.0, which is exact.  Samples
    # are non-negative, so the sum is kept from drifting below zero through
    # float cancellation.
    window = config.window
    leaving = [0.0] * min(window, len(samples)) + samples
    window_sums = []
    window_sum = 0.0
    for old, new in zip(leaving, samples):
        window_sum = window_sum - old + new
        if window_sum < 0.0:
            window_sum = 0.0
        window_sums.append(window_sum)
    # Received packet k >= 2 sees the k - 1 samples taken before it.
    headroom = np.zeros(received_count)
    headroom[2:] = config.safety_factor * (
        np.array(window_sums[:-1]) / np.minimum(np.arange(1, received_count - 1), window)
    )
    raw = arrival[:1] + config.initial_delay_ms + (send - send[:1]) + headroom
    held_max = np.maximum.accumulate(np.where(arrival <= raw, raw, -np.inf))
    scheduled = raw.copy()
    scheduled[1:] = np.maximum(raw[1:], held_max[:-1])
    late = arrival > scheduled
    playout = np.where(late, arrival, scheduled)

    late_count = int(np.count_nonzero(late))
    lost_count = timeline.tx_count - received_count
    playout_ms = np.full(timeline.tx_count, np.nan)
    playout_ms[received] = playout
    late_flags = np.zeros(timeline.tx_count, dtype=bool)
    late_flags[received] = late
    # Means add left to right (np.add.accumulate), not pairwise (np.sum) or
    # compensated (sum() on Python >= 3.12): datasets depend on the rounding.
    delays = playout - send
    return JbeResult(
        playout_ms=playout_ms,
        late=late_flags,
        effective_lost=~received | late_flags,
        lost_count=lost_count,
        late_count=late_count,
        received_count=received_count,
        p_loss=effective_loss(lost_count, late_count, received_count),
        avg_jitter_ms=float(np.add.accumulate(jitter)[-1]) / jitter.size if jitter.size else None,
        max_jitter_ms=float(jitter.max()) if jitter.size else None,
        mean_playout_delay_ms=(
            float(np.add.accumulate(delays)[-1]) / received_count if received_count else 0.0
        ),
    )


def effective_loss(lost: int, late: int, received: int) -> float:
    """Effective packet loss (lost + late) / received, clamped to [0, 1]; a
    flow with nothing received counts as fully lost."""
    missing = lost + late
    # Dividing only when the ratio is below 1 keeps huge counts from overflowing.
    return 1.0 if missing >= received else missing / received
