"""Receiver-side adaptive jitter buffer emulation over packet timelines.

The emulator replays a flow's per-packet send/arrival events through an
adaptive play-out buffer: packets arriving early are held until their
scheduled play-out instant, packets arriving after it are forwarded
immediately and counted as late.  Late and lost packets together define
the effective packet-loss rate of the flow.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from itertools import pairwise
from typing import IO

SEND_GRID_TOLERANCE_MS = 1e-6


class EmptyFlowError(ValueError):
    """Raised when a timeline carries no packets at all."""


@dataclass(frozen=True)
class PacketEvent:
    """One packet of a flow; ``arrival_time_ms`` is None for a lost packet."""

    seq: int
    send_time_ms: float
    arrival_time_ms: float | None


@dataclass(frozen=True)
class PacketTimeline:
    """Ordered per-packet send/arrival events on a fixed packetization grid."""

    ptime_ms: float
    packets: tuple[PacketEvent, ...]

    def __post_init__(self) -> None:
        if self.ptime_ms <= 0:
            raise ValueError(f"ptime_ms must be positive, got {self.ptime_ms}")
        object.__setattr__(self, "packets", tuple(self.packets))
        for prev, cur in pairwise(self.packets):
            if cur.seq <= prev.seq:
                raise ValueError(f"seq not strictly increasing at seq={cur.seq}")
        if self.packets:
            first = self.packets[0]
            for pkt in self.packets:
                expected = first.send_time_ms + (pkt.seq - first.seq) * self.ptime_ms
                if abs(pkt.send_time_ms - expected) > SEND_GRID_TOLERANCE_MS:
                    raise ValueError(
                        f"send time off the ptime grid at seq={pkt.seq}: "
                        f"{pkt.send_time_ms} != {expected}"
                    )
                if pkt.arrival_time_ms is not None and pkt.arrival_time_ms < pkt.send_time_ms:
                    raise ValueError(f"arrival before send at seq={pkt.seq}")

    @property
    def tx_count(self) -> int:
        return len(self.packets)


@dataclass(frozen=True)
class JbeConfig:
    """Emulator knobs: initial play-out delay, jitter window, safety margin."""

    initial_delay_ms: float = 50.0
    window: int = 16
    safety_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.initial_delay_ms <= 0:
            raise ValueError("initial_delay_ms must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.safety_factor <= 0:
            raise ValueError("safety_factor must be positive")


class PlayoutStatus(str, enum.Enum):
    BUFFERED = "buffered"
    ON_TIME = "on_time"
    LATE = "late"


@dataclass(frozen=True)
class PlayoutEvent:
    seq: int
    playout_time_ms: float
    status: PlayoutStatus


@dataclass(frozen=True)
class JbeResult:
    """Play-out schedule plus the loss, jitter and delay figures of one emulated flow.

    ``effective_lost`` holds one flag per transmitted packet, set when the
    packet was lost or played late.  ``p_loss`` is the effective loss
    (lost + late) / received, clamped to [0, 1]; a flow with nothing
    received counts as fully lost.  Jitter is the instantaneous transit
    jitter |delta(arrival) - delta(send)| between consecutive received
    packets, across loss gaps; its mean and maximum are None with fewer
    than two received packets.  The mean play-out delay is taken over
    received packets, from send to play-out, and is 0.0 with none.
    """

    playout: tuple[PlayoutEvent, ...]
    effective_lost: tuple[bool, ...]
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
    """
    if not timeline.packets:
        raise EmptyFlowError("timeline has no packets")

    lost_count = 0
    late_count = 0
    playout: list[PlayoutEvent] = []
    effective_lost: list[bool] = []
    playout_delays: list[float] = []
    jitter_samples: list[float] = []
    window = config.window
    window_sum = 0.0
    anchor: PacketEvent | None = None
    prev_received: PacketEvent | None = None
    last_held_playout = -math.inf

    for pkt in timeline.packets:
        arrival, send = pkt.arrival_time_ms, pkt.send_time_ms
        if arrival is None:
            lost_count += 1
            effective_lost.append(True)
            continue
        if anchor is None:
            anchor = pkt
        window_len = min(len(jitter_samples), window)
        headroom = config.safety_factor * (window_sum / window_len) if window_len else 0.0
        scheduled = (
            anchor.arrival_time_ms
            + config.initial_delay_ms
            + (send - anchor.send_time_ms)
            + headroom
        )
        scheduled = max(scheduled, last_held_playout)
        late = arrival > scheduled
        if late:
            late_count += 1
            playout_time = arrival
            status = PlayoutStatus.LATE
        else:
            playout_time = scheduled
            status = PlayoutStatus.ON_TIME if arrival == scheduled else PlayoutStatus.BUFFERED
            last_held_playout = scheduled
        playout.append(PlayoutEvent(pkt.seq, playout_time, status))
        effective_lost.append(late)
        playout_delays.append(playout_time - send)
        if prev_received is not None:
            jitter = abs(
                (arrival - prev_received.arrival_time_ms) - (send - prev_received.send_time_ms)
            )
            if len(jitter_samples) >= window:
                window_sum -= jitter_samples[-window]  # leaves the window
            jitter_samples.append(jitter)
            # Samples are non-negative, so keep the running sum from drifting
            # below zero through float cancellation.
            window_sum = max(window_sum + jitter, 0.0)
        prev_received = pkt

    received_count = len(playout)
    # Means take sum() over the lists, not a running total: sum() of floats
    # is compensated on Python >= 3.12, and datasets depend on its rounding.
    return JbeResult(
        playout=tuple(playout),
        effective_lost=tuple(effective_lost),
        lost_count=lost_count,
        late_count=late_count,
        received_count=received_count,
        p_loss=min(1.0, (lost_count + late_count) / received_count) if received_count else 1.0,
        avg_jitter_ms=sum(jitter_samples) / len(jitter_samples) if jitter_samples else None,
        max_jitter_ms=max(jitter_samples) if jitter_samples else None,
        mean_playout_delay_ms=sum(playout_delays) / received_count if received_count else 0.0,
    )


TIMELINE_COLUMNS = ("seq", "send_time_ms", "arrival_time_ms")


def timeline_to_csv(timeline: PacketTimeline, stream: IO[str]) -> None:
    """Write a timeline as ``seq,send_time_ms,arrival_time_ms`` rows
    (empty arrival field = lost)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TIMELINE_COLUMNS)
    for pkt in timeline.packets:
        arrival = "" if pkt.arrival_time_ms is None else repr(pkt.arrival_time_ms)
        writer.writerow([pkt.seq, repr(pkt.send_time_ms), arrival])


def timeline_from_csv(stream: IO[str], ptime_ms: float | None = None) -> PacketTimeline:
    """Read a timeline written by :func:`timeline_to_csv`.

    When ``ptime_ms`` is omitted it is inferred from the first two rows;
    a single-packet file falls back to 20 ms.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(header) != TIMELINE_COLUMNS:
        found = "nothing" if header is None else ",".join(header)
        raise ValueError(f"bad timeline header: {found}; expected {','.join(TIMELINE_COLUMNS)}")
    packets = []
    for row in reader:
        if not row:
            continue
        seq, send, arrival = row
        packets.append(
            PacketEvent(
                seq=int(seq),
                send_time_ms=float(send),
                arrival_time_ms=None if arrival == "" else float(arrival),
            )
        )
    if ptime_ms is None:
        if len(packets) >= 2:
            a, b = packets[0], packets[1]
            ptime_ms = (b.send_time_ms - a.send_time_ms) / (b.seq - a.seq)
        else:
            ptime_ms = 20.0
    return PacketTimeline(ptime_ms=ptime_ms, packets=tuple(packets))
