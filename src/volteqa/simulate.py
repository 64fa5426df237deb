"""Seeded synthetic packet timelines and CDR datasets.

Loss is drawn from either an independent (Bernoulli) process or a
two-state Gilbert-Elliott Markov chain; network delay is a base value
plus an optional jitter distribution.  All randomness flows from one
seed through numpy's PCG64 generator.  Flow i draws from child i of
``SeedSequence(seed)``, so flows are reproducible independently of
generation order.  The seed words of a chunk of flows' children are
derived in bulk with array arithmetic (:func:`child_words`), and PCG64
seeded with them matches ``SeedSequence.spawn`` plus ``PCG64`` bit for bit.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from volteqa.emodel import (
    CodecProfile,
    burst_ratio,
    compute_r_factor,
    profiles_from_parser,
)
from volteqa.ingest import CHUNK_ROWS, CdrTable, Codec, parse_float, parse_int
from volteqa.jitter_buffer import JbeConfig, JbeResult, PacketTimeline, run_jbe
from volteqa.worker import shared

GENERATOR_NAME = "numpy.random.PCG64"


@dataclass(frozen=True)
class BernoulliLoss:
    """Independent loss with a fixed per-packet probability."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {self.p}")

    def stationary_loss_rate(self) -> float:
        return self.p

    def loss_rate_std_error(self, n: int) -> float:
        return math.sqrt(self.p * (1.0 - self.p) / n)

    def uniforms(self, n: int) -> int:
        """Uniform variates a flow of n packets draws: one per packet."""
        return n

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Loss flags of a block of flows from their ``(uniforms, flows)``
        draws, one column per flow."""
        return uniforms < self.p


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Two-state Markov loss: a good and a bad state with separate loss rates.

    The chain starts in its stationary distribution, so the expected loss
    rate of any window equals the closed-form stationary rate.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.p_good_to_bad + self.p_bad_to_good == 0.0:
            raise ValueError("chain never transitions: p_good_to_bad + p_bad_to_good must be > 0")

    def stationary_bad_probability(self) -> float:
        return self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)

    def stationary_loss_rate(self) -> float:
        pi_bad = self.stationary_bad_probability()
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def loss_rate_std_error(self, n: int) -> float:
        # Mean of a function of a stationary 2-state chain: the loss
        # indicator has lag-k autocovariance (lb-lg)^2 * pi_g * pi_b * rho^k
        # with rho = 1 - p_gb - p_bg, so the long-run variance is
        # p(1-p) + 2 (lb-lg)^2 pi_g pi_b rho / (1 - rho).
        p = self.stationary_loss_rate()
        pi_bad = self.stationary_bad_probability()
        rho = 1.0 - self.p_good_to_bad - self.p_bad_to_good
        gamma0 = p * (1.0 - p)
        cross = (self.loss_bad - self.loss_good) ** 2 * pi_bad * (1.0 - pi_bad)
        long_run_var = gamma0 + 2.0 * cross * rho / (1.0 - rho)
        return math.sqrt(max(long_run_var, 0.0) / n)

    def uniforms(self, n: int) -> int:
        """Uniform variates a flow of n packets draws: n transitions, then
        n emissions, then its initial state."""
        return 2 * n + 1

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Loss flags of a block of flows from their ``(uniforms, flows)``
        draws, one column per flow."""
        n = len(uniforms) // 2
        transitions, emissions = uniforms[:n], uniforms[n : 2 * n]
        # Packet i emits in the state before transition draw i.  A draw
        # below both thresholds toggles the state, a draw below exactly one
        # forces it (bad below p_good_to_bad, good below p_bad_to_good) and
        # any other draw keeps it.  So the state after a step is the state
        # set at the last force (the start counting as one), flipped by the
        # parity of the toggles since then.  Row 0 is the start.
        forced, set_bad, parity = np.empty((3, n + 1, uniforms.shape[1]), dtype=bool)
        forced[0], parity[0] = True, False
        np.less(uniforms[2 * n], self.stationary_bad_probability(), out=set_bad[0])
        to_bad = np.less(transitions, self.p_good_to_bad, out=set_bad[1:])
        to_good = transitions < self.p_bad_to_good
        np.not_equal(to_bad, to_good, out=forced[1:])
        np.logical_and(to_bad, to_good, out=parity[1:])
        np.logical_xor.accumulate(parity, axis=0, out=parity)
        # The flat index of each step's last force: row * flows + column
        # rises with the row, so its running maximum is the last one.
        last_force = np.where(forced[:n], np.arange(transitions.size).reshape(transitions.shape), 0)
        np.maximum.accumulate(last_force, axis=0, out=last_force)
        state_bad = set_bad.take(last_force)
        state_bad ^= parity[:n]
        state_bad ^= parity.take(last_force)
        if self.loss_good == 0.0 and self.loss_bad == 1.0:
            # Uniforms are below 1 and not below 0: the state is the flag.
            return state_bad
        return emissions < np.where(state_bad, self.loss_bad, self.loss_good)


LossModel = Union[BernoulliLoss, GilbertElliottLoss]


@dataclass(frozen=True)
class NoJitter:
    """Constant network delay."""

    base_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        # Comparisons, not math.isfinite, which overflows on an int beyond the float range.
        if not 0 <= self.base_delay_ms <= sys.float_info.max:
            raise ValueError("base_delay_ms must be finite and >= 0")

    def draw(self, generator: np.random.Generator, out: np.ndarray) -> None:
        """Draws nothing: a constant delay needs no variates."""

    def delays(self, draws: np.ndarray) -> np.ndarray:
        """Network delays of a block of flows, shaped like their
        ``(packets, flows)`` draws, whose values it does not read."""
        return np.full(draws.shape, self.base_delay_ms)


@dataclass(frozen=True)
class GaussianJitter:
    """Zero-mean Gaussian delay variation around the base delay."""

    sigma_ms: float
    base_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma_ms <= sys.float_info.max:
            raise ValueError("sigma_ms must be finite and >= 0")
        if not 0 <= self.base_delay_ms <= sys.float_info.max:
            raise ValueError("base_delay_ms must be finite and >= 0")

    def draw(self, generator: np.random.Generator, out: np.ndarray) -> None:
        """One flow's standard normal variates, one per packet, into ``out``."""
        generator.standard_normal(out=out)

    def delays(self, draws: np.ndarray) -> np.ndarray:
        """Network delays of a block of flows from their ``(packets, flows)``
        draws, one column per flow."""
        # 0 + sigma * z, as Generator.normal(0, sigma) computes it.
        variation = 0.0 + self.sigma_ms * draws
        # Negative total delays are truncated to zero.
        return np.maximum(0.0, self.base_delay_ms + variation)


@dataclass(frozen=True)
class GammaJitter:
    """Gamma-distributed extra delay on top of the base delay."""

    shape: float
    scale_ms: float
    base_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if not all(0 < v <= sys.float_info.max for v in (self.shape, self.scale_ms)):
            raise ValueError("gamma shape and scale must be positive and finite")
        if not 0 <= self.base_delay_ms <= sys.float_info.max:
            raise ValueError("base_delay_ms must be finite and >= 0")

    def draw(self, generator: np.random.Generator, out: np.ndarray) -> None:
        """One flow's standard gamma variates, one per packet, into ``out``."""
        generator.standard_gamma(self.shape, out=out)

    def delays(self, draws: np.ndarray) -> np.ndarray:
        """Network delays of a block of flows from their ``(packets, flows)``
        draws, one column per flow."""
        # scale * g, as Generator.gamma(shape, scale) computes it.
        return self.base_delay_ms + self.scale_ms * draws


JitterModel = Union[NoJitter, GaussianJitter, GammaJitter]


def synthesize_timeline(
    lost: np.ndarray, delays: np.ndarray, ptime_ms: float
) -> tuple[PacketTimeline, np.ndarray]:
    """A block of flows' timelines from their loss flags and network delays.

    ``lost`` and ``delays`` have shape (packets, flows), one column per
    flow.  Sends fall on the ptime grid; a packet arrives its delay after
    its send unless lost.  Delivery is first-in first-out, so arrivals are
    made non-decreasing (no reordering): each received packet arrives no
    earlier than the one received before it.  A flow whose arrival
    overflows to infinity is left out of the timeline; the returned flags
    mark, per column, the flows that are in it.
    """
    packets = lost.shape[0]
    send = np.arange(packets) * ptime_ms
    with np.errstate(over="ignore"):
        arrival = np.add(delays, send[:, None])
    np.maximum(arrival, send[:, None], out=arrival)
    # A lost packet neither arrives nor holds back the packets after it.
    arrival[lost] = -np.inf
    np.maximum.accumulate(arrival, axis=0, out=arrival)
    # A received infinite arrival carries to the last row; a flow that
    # receives nothing ends at -inf and is kept.
    kept = arrival[-1] != np.inf
    arrival[lost] = np.nan
    # The timeline copies what it is given: a selection of every flow would be one copy more.
    arrival = arrival if kept.all() else arrival[:, kept]
    timeline = PacketTimeline(ptime_ms=ptime_ms, arrival_ms=arrival)
    return timeline, kept


@dataclass(frozen=True)
class SimSpec:
    """Declarative description of a synthetic dataset."""

    flows: int
    packets_per_flow: int
    seed: int
    codec_mix: tuple[tuple[Codec, float], ...] = ((Codec.AMR, 0.71), (Codec.AMR_WB, 0.29))
    loss_models: tuple[LossModel, ...] = (BernoulliLoss(0.0),)
    jitter_models: tuple[JitterModel, ...] = (NoJitter(),)
    ptime_ms: float = 20.0
    jbe: JbeConfig = field(default_factory=JbeConfig)

    def __post_init__(self) -> None:
        if self.flows < 0:
            raise ValueError("flows must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.ptime_ms <= sys.float_info.max:
            raise ValueError(f"ptime_ms must be positive and finite, got {self.ptime_ms}")
        # Arrays cannot hold more than 2**63 - 1 packets.
        if not 1 <= self.packets_per_flow <= np.iinfo(np.int64).max:
            raise ValueError(f"packets_per_flow must be in [1, 2**63 - 1], got {self.packets_per_flow}")
        if not (self.packets_per_flow - 1) * self.ptime_ms <= sys.float_info.max:
            raise ValueError(
                f"last send time (packets_per_flow - 1) * ptime_ms is not finite: "
                f"({self.packets_per_flow} - 1) * {self.ptime_ms:g}"
            )
        if not self.loss_models or not self.jitter_models:
            raise ValueError("need at least one loss model and one jitter model")
        fractions = [frac for _, frac in self.codec_mix]
        if not all(0.0 <= frac <= 1.0 for frac in fractions):
            raise ValueError(f"codec_mix fractions must be in [0, 1], got {fractions}")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"codec mix fractions must sum to 1, got {total}")
        codecs = [codec.value for codec, _ in self.codec_mix]
        if len(set(codecs)) < len(codecs):
            raise ValueError(f"codec_mix names a codec more than once: {', '.join(codecs)}")

    def sweep_cells(self) -> list[tuple[LossModel, JitterModel]]:
        return list(itertools.product(self.loss_models, self.jitter_models))

    def digest(self) -> str:
        """SHA-256 of the spec's repr, which names every field of the spec
        and of its models, floats as their shortest round-trip repr."""
        import hashlib  # here, not at the top: OpenSSL loads on no command's path but simulate's
        return hashlib.sha256(repr(self).encode()).hexdigest()


@dataclass(frozen=True)
class RejectedFlow:
    flow_id: str
    reason: str


def pick_codecs(mix: tuple[tuple[Codec, float], ...], u: np.ndarray) -> np.ndarray:
    """Index into ``mix`` of the codec drawn by each uniform variate in ``u``:
    the first codec whose running share, summed left to right, exceeds the
    variate, or the last codec when rounding leaves the total of the shares
    at or below it."""
    cumulative = list(itertools.accumulate(fraction for _, fraction in mix))
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(mix) - 1)


# The constants of numpy's SeedSequence hash (pool of four 32-bit words).
# numpy keeps it and PCG64's seeding fixed so that seeded streams stay
# reproducible (NEP 19).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call XORs its 32-bit words (a Python
    int or a uint32 array) with the hash constant, steps the constant and
    multiplies by it."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def child_words(seed: int, flows: np.ndarray) -> np.ndarray:
    """The seed words ``SeedSequence(seed, spawn_key=(i,)).generate_state(4,
    np.uint64)`` for each child index i in the uint64 array ``flows``, one
    row of four uint64 words per child.

    The root entropy (``seed`` in 32-bit words, least significant first,
    padded to the pool size) is hashed once; the spawn key (i in one word,
    or two from 2**32 on) is mixed in as uint32 vectors, and the pool is
    expanded into four 64-bit words as ``generate_state`` does.  PCG64
    seeded with a child's words starts from that child's state.
    """
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Entropy words beyond the pool: the rest of the root, then the spawn key.
    for word in words[_POOL_SIZE:]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    low = (flows & _MASK32).astype(np.uint32)
    pool = [_mix(np.full(len(flows), p, dtype=np.uint32), hashmix(low)) for p in pool]
    high = (flows >> 32).astype(np.uint32)
    wide = high != 0
    if wide.any():
        pool = [np.where(wide, _mix(p, hashmix(high)), p) for p in pool]
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(2 * _POOL_SIZE)]
    return np.stack([halves[2 * k] | halves[2 * k + 1] << 32 for k in range(_POOL_SIZE)], axis=1)


@functools.cache
def _seed_words() -> type:
    """The seed sequence type that gives PCG64 one child's row of seed words."""
    # Imported here, not at the top: numpy.random loads on no command's path but simulate's.
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return SeedWords


# Packets per block of flows that are replayed and scored together.  It
# bounds the block's arrays: the replay peaks at about 35 bytes per packet.
# A block holds at least one flow.
BLOCK_PACKETS = 32_768


def _draw_block(spec: SimSpec, first: int, words: np.ndarray) -> tuple[np.ndarray, PacketTimeline, np.ndarray]:
    """Draw flow ``first`` of the spec and those after it, one per row of
    seed ``words``, and build their timeline: each flow's codec variate, the
    timeline, and the flags of the flows in it (see :func:`synthesize_timeline`).

    Each flow draws from a generator seeded with its child's words: its
    codec variate and its loss uniforms in one run, then its jitter
    variates.
    """
    packets = spec.packets_per_flow
    cells = spec.sweep_cells()
    size = len(words)
    seed_words = _seed_words()
    codec_u = np.empty(size)
    lost = np.empty((packets, size), dtype=bool)
    delays = np.empty((packets, size))
    # Flow first + j is in sweep cell (first + j) % len(cells).  A delay
    # that overflows is infinite, and so is its flow's arrival.
    with np.errstate(over="ignore"):
        for cell, (loss_model, jitter_model) in enumerate(cells):
            flows = slice((cell - first) % len(cells), size, len(cells))
            group = words[flows]
            if not len(group):
                continue
            # One row per flow, so that each flow's draws fill a contiguous run.
            uniforms = np.empty((len(group), 1 + loss_model.uniforms(packets)))
            draws = np.empty((len(group), packets))
            for row, flow_uniforms, flow_draws in zip(group, uniforms, draws):
                generator = np.random.Generator(np.random.PCG64(seed_words(row)))
                generator.random(out=flow_uniforms)
                jitter_model.draw(generator, flow_draws)
            codec_u[flows] = uniforms[:, 0]
            lost[:, flows] = loss_model.sample(uniforms[:, 1:].T)
            delays[:, flows] = jitter_model.delays(draws.T)
    timeline, kept = synthesize_timeline(lost, delays, spec.ptime_ms)
    return codec_u, timeline, kept


def _replay_block(
    spec: SimSpec, first: int, words: np.ndarray, figures: np.ndarray
) -> tuple[PacketTimeline, JbeResult]:
    """Replay flow ``first`` of the spec and those after it, one per row of
    seed ``words``, and fill ``figures`` with their per-flow figures, one
    column per flow and one row per figure: the codec variate, received
    packets (as int64; -1 for a flow left out of the block's timeline),
    p_loss, burst_r, mean and maximum jitter, and mean play-out delay (NaN
    for a flow left out).  Returns the block's timeline and replay.
    """
    codec_u, timeline, kept = _draw_block(spec, first, words)
    result = run_jbe(timeline, spec.jbe)
    figures[0] = codec_u
    received = figures[1].view(np.int64)
    received.fill(-1)
    received[kept] = result.received_counts
    figures[2:] = np.nan
    figures[2:, kept] = (
        result.p_loss,
        burst_ratio(result.effective_lost),
        result.avg_jitter_ms,
        result.max_jitter_ms,
        result.mean_playout_delay_ms,
    )
    return timeline, result


# Rows of a block's figures (see _replay_block).
_FIGURES = 7


def _blocks(spec: SimSpec, per_block: int, per_chunk: int):
    """Each block's first flow and the seed words of its flows, in flow
    order; the words are derived a chunk at a time."""
    for start in range(0, spec.flows, per_chunk):
        words = child_words(spec.seed, np.arange(start, min(start + per_chunk, spec.flows), dtype=np.uint64))
        for first in range(0, len(words), per_block):
            yield start + first, words[first : first + per_block]


# Why a flow is rejected, by the code synthesize_dataset gives it; code 0
# accepts the flow.
_REJECT_REASONS = ("", "ARRIVAL_NOT_FINITE", "NOT_ENOUGH_PACKETS", "JITTER_NOT_FINITE", "PLAYOUT_NOT_FINITE")


def _chunk_table(
    spec: SimSpec, profiles: dict[Codec, CodecProfile], start: int, figures: np.ndarray
) -> tuple[CdrTable, list[RejectedFlow]]:
    """The scored table of the accepted flows of a chunk that starts at flow
    ``start``, and its rejects, from the chunk's figures (see
    :func:`_replay_block`)."""
    codec_u, _, p_loss, burst_r, avg_jitter, max_jitter, delay = figures
    received = figures[1].view(np.int64)
    size = len(codec_u)
    jitter_ok = np.isfinite(avg_jitter) & np.isfinite(max_jitter)
    reason = np.select([received < 0, received < 2, ~jitter_ok, ~np.isfinite(delay)], [1, 2, 3, 4], 0)
    good = reason == 0
    codec_at = pick_codecs(spec.codec_mix, codec_u)
    flow_ids = np.array([f"flow-{i:06d}" for i in range(start, start + size)], dtype=object)
    rejected = [
        RejectedFlow(flow_id, _REJECT_REASONS[code])
        for flow_id, code in zip(flow_ids[~good].tolist(), reason[~good].tolist())
    ]
    r_factor = np.empty(size)
    for index, (codec, _) in enumerate(spec.codec_mix):
        flows = good & (codec_at == index)
        if flows.any():
            r_factor[flows] = compute_r_factor(
                profiles[codec], 100.0 * p_loss[flows], burst_r[flows], delay[flows]
            ).r_factor
    codecs = np.array([codec for codec, _ in spec.codec_mix], dtype=object)
    tx = np.full(size, spec.packets_per_flow, dtype=np.int64)
    table = CdrTable(flow_ids, codecs[codec_at], tx, received, avg_jitter, max_jitter, r_factor)
    return table.take(good), rejected


def synthesize_dataset(
    spec: SimSpec, profiles: dict[Codec, CodecProfile], write: Callable[[CdrTable], object]
) -> tuple[int, list[RejectedFlow]]:
    """Generate the spec's flows as CDR tables, one chunk at a time, and
    hand each chunk's accepted flows to ``write``; return the number of
    flows written and the rejects, in flow order.

    Per flow: synthesize a timeline, replay it through the jitter buffer
    (which measures effective loss, jitter and play-out delay in one pass),
    characterize loss burstiness over the lost-or-late pattern, and score
    the flow with its codec profile using the mean play-out delay as the
    one-way delay.  Rejected, with the reason named, are flows whose
    arrivals overflow (ARRIVAL_NOT_FINITE), with fewer than two received
    packets, so without jitter statistics (NOT_ENOUGH_PACKETS), and whose
    jitter (JITTER_NOT_FINITE) or mean play-out delay (PLAYOUT_NOT_FINITE)
    overflows.

    Flow i draws from child i of ``SeedSequence(spec.seed)``; the seed
    words of each chunk's children are derived in bulk and seed PCG64 as
    ``SeedSequence.spawn`` does, bit for bit.  The replay runs on blocks of
    up to ``BLOCK_PACKETS`` packets and the scoring on the accepted flows
    of each codec, element by element, so the dataset does not depend on
    the block size.  A chunk is a run of whole blocks that holds at least
    ``CHUNK_ROWS`` flows, or the flows left: only one chunk's per-flow
    figures are held at a time.

    The blocks are made through ``volteqa.worker.shared``.  When a chunk
    holds two blocks or more, its worker may replay every other block,
    numbered across chunks; a block's figures depend only on its flows, so
    the dataset does not depend on the worker either.
    """
    per_block = max(1, BLOCK_PACKETS // spec.packets_per_flow)
    per_chunk = per_block * -(-CHUNK_ROWS // per_block)
    held, after = None, 0

    def make(block: tuple[int, np.ndarray]) -> np.ndarray:
        """The figures of a block (their bytes, when sent)."""
        nonlocal held, after
        first, words = block
        # Alone, a block's timeline and replay are let go only when the next
        # block's replace them, also across a chunk's end: freed, the heap
        # they held would be given back and faulted in again.  When a worker
        # made the block before, holding them saves no time and raises the
        # peak memory by a block's arrays.
        if first != after:
            held = None
        figures = np.empty((_FIGURES, len(words)))
        held = _replay_block(spec, first, words, figures)
        after = first + len(words)
        return figures

    blocks = functools.partial(_blocks, spec, per_block, per_chunk)
    # No worker for one block per chunk.  It would get blocks 1, 3, ..., as
    # blocks are numbered across chunks, but no benchmark workload has
    # chunks of one block, so whether it pays there is unmeasured.
    worker_blocks = blocks if min(spec.flows, per_chunk) > per_block else None
    written, rejected = 0, []
    with contextlib.closing(shared(blocks(), make, worker_blocks)) as made:
        for start in range(0, spec.flows, per_chunk):
            chunk_blocks = itertools.islice(made, -(-min(per_chunk, spec.flows - start) // per_block))
            figures = np.hstack([np.frombuffer(payload).reshape(_FIGURES, -1) for payload in chunk_blocks])
            table, chunk_rejected = _chunk_table(spec, profiles, start, figures)
            rejected += chunk_rejected
            written += len(table)
            write(table)
            del table  # not held while the next chunk is made
    return written, rejected


_MODEL_ITEM = re.compile(r"\s*([A-Za-z_]+)\s*(?:\(([^)]*)\))?\s*")
# A comma with no ")" ahead of the next "(" separates items; the others
# separate a model's arguments.
_ITEM_COMMA = re.compile(r",(?![^(]*\))")


def _parse_model_list(text: str, key: str) -> list[tuple[str, list[float]]]:
    """The ``name`` or ``name(args)`` items of a comma-separated model list;
    ``name()`` takes no arguments, and every argument must be a number."""
    found = []
    for item in _ITEM_COMMA.split(text):
        match = _MODEL_ITEM.fullmatch(item)
        if match is None:
            raise ValueError(f"{key}: not a comma-separated list of name or name(args): {text!r}")
        name, args_text = match.groups()
        chunks = args_text.split(",") if args_text and args_text.strip() else []
        args = [parse_float(chunk.strip(), f"{key}: {name}(...)") for chunk in chunks]
        found.append((name.lower(), args))
    return found


# The models of each model-list key: its class, the number of arguments it
# takes from the config and what its error message says it takes.
LOSS_MODELS = {
    "bernoulli": (BernoulliLoss, 1, "exactly one probability"),
    "gilbert_elliott": (GilbertElliottLoss, 4, "(p_good_to_bad, p_bad_to_good, loss_good, loss_bad)"),
}
JITTER_MODELS = {
    "none": (NoJitter, 0, "no arguments"),
    "gaussian": (GaussianJitter, 1, "exactly one sigma"),
    "gamma": (GammaJitter, 2, "(shape, scale_ms)"),
}


def _build_models(text: str, key: str, table: dict, *extra: float) -> tuple:
    """The models of a model list from ``table``, each built from its
    arguments followed by ``extra``."""
    models = []
    for name, args in _parse_model_list(text, key):
        if name not in table:
            raise ValueError(f"{key}: unknown model {name!r}")
        model, count, takes = table[name]
        if len(args) != count:
            raise ValueError(f"{key}: {name} takes {takes}")
        models.append(model(*args, *extra))
    return tuple(models)


def _parse_codec_mix(text: str) -> tuple[tuple[Codec, float], ...]:
    mix = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"codec_mix: not a comma-separated list of codec:fraction: {text!r}")
        name, _, fraction = chunk.partition(":")
        try:
            codec = Codec(name.strip())
        except ValueError:
            raise ValueError(f"codec_mix: unknown codec {name.strip()!r}") from None
        mix.append((codec, parse_float(fraction, "codec_mix")))
    order = {codec: k for k, codec in enumerate(Codec)}
    return tuple(sorted(mix, key=lambda item: order[item[0]]))


SIM_KEYS = (
    "flows",
    "packets_per_flow",
    "seed",
    "ptime_ms",
    "codec_mix",
    "loss_models",
    "jitter_models",
    "base_delay_ms",
    "initial_delay_ms",
    "window",
    "safety_factor",
)


def load_sim_config(text: str) -> tuple[SimSpec, dict[Codec, CodecProfile]]:
    """Parse config text: a [sim] section plus optional codec profile sections.

    Unknown keys are rejected by name so typos surface immediately.
    """
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section("sim"):
        raise ValueError("sim config needs a [sim] section")
    section = parser["sim"]
    for key in section:
        if key not in SIM_KEYS:
            raise ValueError(f"unknown sim key {key!r}")
    for required in ("flows", "packets_per_flow", "seed"):
        if required not in section:
            raise ValueError(f"sim config missing required key {required!r}")

    base_delay = parse_float(section.get("base_delay_ms", "0"), "base_delay_ms")
    jbe = JbeConfig(
        initial_delay_ms=parse_float(section.get("initial_delay_ms", "50"), "initial_delay_ms"),
        window=parse_int(section.get("window", "16"), "window"),
        safety_factor=parse_float(section.get("safety_factor", "3"), "safety_factor"),
    )
    spec = SimSpec(
        flows=parse_int(section["flows"], "flows"),
        packets_per_flow=parse_int(section["packets_per_flow"], "packets_per_flow"),
        seed=parse_int(section["seed"], "seed"),
        ptime_ms=parse_float(section.get("ptime_ms", "20"), "ptime_ms"),
        codec_mix=_parse_codec_mix(section.get("codec_mix", "AMR:0.71, AMR-WB:0.29")),
        loss_models=_build_models(section.get("loss_models", "bernoulli(0)"), "loss_models", LOSS_MODELS),
        jitter_models=_build_models(
            section.get("jitter_models", "none"), "jitter_models", JITTER_MODELS, base_delay
        ),
        jbe=jbe,
    )
    return spec, profiles_from_parser(parser)
