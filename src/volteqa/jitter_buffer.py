"""Receiver-side adaptive jitter buffer emulation over packet timelines.

The emulator replays flows' per-packet send/arrival times through an
adaptive play-out buffer: packets arriving early are held until their
scheduled play-out instant, packets arriving after it are forwarded
immediately and counted as late.  Late and lost packets together define
the effective packet-loss rate of a flow.  Flows sent on one grid are
replayed together as a block, one array column per flow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class EmptyFlowError(ValueError):
    """Raised when a timeline carries no packets at all."""


@dataclass(frozen=True, eq=False)
class PacketTimeline:
    """A block of flows sent on one packetization grid, as columns.

    Packet k of every flow is sent at k * ``ptime_ms``, held in ``send_ms``.
    ``arrival_ms`` has shape (packets, flows): one column per flow, with NaN
    marking a lost packet.  A 1-D ``arrival_ms`` is a block of one flow.
    Both columns are read-only float64 arrays, ``arrival_ms`` a copy.
    """

    ptime_ms: float
    arrival_ms: np.ndarray
    send_ms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # A comparison, not math.isfinite, which overflows on an int beyond the float range.
        if not 0 < self.ptime_ms <= sys.float_info.max:
            raise ValueError(f"ptime_ms must be positive and finite, got {self.ptime_ms}")
        arrival = np.array(self.arrival_ms, dtype=np.float64)
        if arrival.ndim == 1:
            arrival = arrival.reshape(-1, 1)
        if arrival.ndim != 2:
            raise ValueError(f"arrival_ms must be 1-D or 2-D, got shape {arrival.shape}")
        # Sends rise with k, so the last is the first that can overflow.
        if not math.isfinite((len(arrival) - 1) * self.ptime_ms):
            raise ValueError(f"send time not finite at packet {len(arrival) - 1}")
        send = np.arange(len(arrival), dtype=np.float64) * self.ptime_ms
        for name, column in (("send_ms", send), ("arrival_ms", arrival)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        _first_failure(np.isinf(arrival), "arrival time infinite")
        # NaN (lost) compares false, so only received packets can fail.
        _first_failure(arrival < send[:, None], "arrival before send")

    @property
    def tx_count(self) -> int:
        """Transmitted packets of all the block's flows."""
        return self.arrival_ms.size


def _first_failure(failed: np.ndarray, message: str) -> None:
    if failed.any():
        raise ValueError(f"{message} at packet {np.argmax(failed.any(axis=1))}")


def _column_totals(x: np.ndarray) -> np.ndarray:
    """Each column's sum of a C-ordered (packets, flows) array, added top to
    bottom: numpy sums pairwise only along the fast axis, which holds the flows."""
    return np.add.reduce(x, axis=0) if x.shape[1] > 1 else np.add.accumulate(x, axis=0)[-1]


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
    """Play-out schedule plus the loss, jitter and delay figures of a block of flows.

    ``playout_ms`` and ``effective_lost`` have the timeline's (packets,
    flows) shape: the play-out instant (NaN for a lost packet) and whether
    the packet was lost or played late.  Every other field holds one entry
    per flow.  ``p_loss`` is the effective loss (lost + late) / received,
    clamped to [0, 1]; a flow with nothing received counts as fully lost.
    Jitter is the instantaneous transit jitter |delta(arrival) -
    delta(send)| between consecutive received packets, across loss gaps;
    its mean and maximum are NaN with fewer than two received packets.  The
    mean play-out delay is taken over received packets, from send to
    play-out, and is 0.0 with none.
    """

    playout_ms: np.ndarray
    effective_lost: np.ndarray
    lost_counts: np.ndarray
    late_counts: np.ndarray
    received_counts: np.ndarray
    p_loss: np.ndarray
    avg_jitter_ms: np.ndarray
    max_jitter_ms: np.ndarray
    mean_playout_delay_ms: np.ndarray

    @property
    def lost_count(self) -> int:
        """Lost packets of all the block's flows."""
        return int(self.lost_counts.sum())

    @property
    def late_count(self) -> int:
        """Late packets of all the block's flows."""
        return int(self.late_counts.sum())

    @property
    def received_count(self) -> int:
        """Received packets of all the block's flows."""
        return int(self.received_counts.sum())


def run_jbe(timeline: PacketTimeline, config: JbeConfig = JbeConfig()) -> JbeResult:
    """Replay a block of flows through the adaptive play-out buffer.

    Each flow's play-out schedule is anchored at its first received
    packet, which plays ``initial_delay_ms`` after it arrives; later
    packets are scheduled on the send grid relative to that anchor plus an
    adaptive headroom of ``safety_factor`` times the mean instantaneous
    jitter of the previous ``window`` received packets.  With no jitter
    observed the play-out delay therefore stays at the initial delay.  A
    packet arriving at or before its scheduled instant is held until then;
    one arriving after it is forwarded immediately at its arrival time and
    counted late.  Held packets never play earlier than a previously held
    packet (single play-out head).

    Jitter is measured between consecutive received packets, so each
    flow's received packets are first moved to the front of its column;
    the rest of the column is padding that no figure reads.  Each step is
    element-wise arithmetic over the block, in the order of one flow's
    scalar loop, so every figure keeps that loop's rounding.  The jitter
    and play-out delay means add each column top to bottom, as that loop
    does: ``np.add.reduce`` down a block of two flows or more, whose fast
    axis holds the flows, so that numpy's pairwise summation runs across
    them, and ``np.add.accumulate`` down a block of one flow.  The window
    sum is the plain definition: the last ``window`` samples added oldest
    first, one pass over the block per position in the window, so its
    rounding is bounded by ``window`` additions.  The last held play-out
    instant before a packet equals the running maximum of the raw
    schedules (anchor plus send offset plus headroom) of the earlier
    packets that arrived by their raw schedule, so it is a prefix maximum
    rather than sequential state.  Figures that overflow become infinite.
    """
    arrival = timeline.arrival_ms
    packets, flows = arrival.shape
    if not packets:
        raise EmptyFlowError("timeline has no packets")
    send_ms = timeline.send_ms[:, None]

    received = ~np.isnan(arrival)
    received_counts = np.count_nonzero(received, axis=0)
    # Arrival and send times of the received packets, front-packed: row k
    # of a column is the flow's k-th received packet.  The masks are
    # transposed so values are taken and placed flow by flow.
    front = np.arange(packets)[:, None] < received_counts
    jitter = np.zeros((packets, flows))
    jitter.T[front.T] = arrival.T[received.T]
    send = np.zeros((packets, flows))
    send.T[front.T] = np.broadcast_to(timeline.send_ms, (flows, packets))[received.T]
    anchor = jitter[0] + config.initial_delay_ms
    first_send = send[0].copy()
    window = min(config.window, packets)

    with np.errstate(over="ignore"):
        # Row k becomes the sample between received packets k and k + 1:
        # the arrival step minus the send step, in place.
        np.subtract(jitter[1:], jitter[:-1], out=jitter[:-1])
        np.subtract(send[1:], send[:-1], out=send[:-1])
        np.subtract(jitter[:-1], send[:-1], out=jitter[:-1])
        del send
        np.abs(jitter, out=jitter)
        jitter[-1] = 0.0
        jitter[:-1][~front[1:]] = 0.0

        # Row k sums samples k - window + 1 .. k, oldest first, one pass per
        # lag; each sum starts at 0.0, which the first sample adds to exactly.
        sums = np.zeros((packets, flows))
        for lag in range(window - 1, -1, -1):
            sums[lag:] += jitter[: packets - lag]

        max_jitter = jitter.max(axis=0)
        # Means add left to right, not pairwise (np.sum of a column) or
        # compensated (sum() on Python >= 3.12): datasets depend on the
        # rounding.  Padding adds 0.0, which is exact.
        jitter_total = _column_totals(jitter)

        # Received packet k >= 2 sees the k - 1 samples taken before it;
        # its headroom goes to its own row in the timeline's layout.
        headroom = jitter
        headroom[:2] = 0.0
        samples_before = np.minimum(np.arange(1, packets - 1), window)[:, None]
        np.divide(sums[: packets - 2], samples_before, out=headroom[2:])
        np.multiply(config.safety_factor, headroom[2:], out=headroom[2:])
        sums.T[received.T] = headroom.T[front.T]

        schedule = jitter
        np.subtract(send_ms, first_send, out=schedule)
        np.add(anchor, schedule, out=schedule)
        np.add(schedule, sums, out=schedule)
        # A lost packet (NaN) never arrives by its schedule, nor late.
        held = sums
        held.fill(-np.inf)
        np.copyto(held, schedule, where=arrival <= schedule)
        np.maximum.accumulate(held, axis=0, out=held)
        np.maximum(schedule[1:], held[:-1], out=schedule[1:])
        late = arrival > schedule
        effective_lost = ~received | late
        playout = schedule
        np.copyto(playout, arrival, where=effective_lost)

        delays = sums
        delays.fill(0.0)
        np.subtract(playout, send_ms, out=delays, where=received)
        delay_total = _column_totals(delays)

    late_counts = np.count_nonzero(late, axis=0)
    lost_counts = packets - received_counts
    with_samples = received_counts > 1
    return JbeResult(
        playout_ms=playout,
        effective_lost=effective_lost,
        lost_counts=lost_counts,
        late_counts=late_counts,
        received_counts=received_counts,
        p_loss=effective_loss(lost_counts, late_counts, received_counts),
        avg_jitter_ms=np.divide(
            jitter_total, received_counts - 1, out=np.full(flows, np.nan), where=with_samples
        ),
        max_jitter_ms=np.where(with_samples, max_jitter, np.nan),
        mean_playout_delay_ms=np.divide(
            delay_total, received_counts, out=np.zeros(flows), where=received_counts > 0
        ),
    )


def effective_loss(lost, late, received) -> np.ndarray:
    """Effective packet loss (lost + late) / received of each flow, clamped
    to [0, 1]; a flow with nothing received counts as fully lost.

    The counts are arrays (or scalars) of integers; object arrays of
    Python ints of any size work too.
    """
    missing = np.asarray(lost + late)
    received = np.asarray(received)
    below = missing < received
    p_loss = np.ones(below.shape)
    # Dividing only where the ratio is below 1 keeps huge counts from overflowing.
    p_loss[below] = missing[below] / received[below]
    return p_loss
