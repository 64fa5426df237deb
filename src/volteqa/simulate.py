"""Seeded synthetic packet timelines and CDR datasets.

Loss is drawn from either an independent (Bernoulli) process or a
two-state Gilbert-Elliott Markov chain; network delay is a base value
plus an optional jitter distribution.  All randomness flows from one
64-bit seed through numpy's PCG64 generator, with per-flow child streams
spawned via SeedSequence so flows are reproducible independently of
generation order.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from volteqa.emodel import (
    DEFAULT_PROFILES,
    CodecProfile,
    LossCharacter,
    burst_ratio,
    compute_r_factor,
    profiles_from_parser,
)
from volteqa.ingest import Codec, FlowRecord, parse_float
from volteqa.jitter_buffer import JbeConfig, JbeResult, PacketTimeline, run_jbe

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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(n) < self.p

    def spec_string(self) -> str:
        return f"bernoulli({self.p:g})"


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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        transitions = rng.random(n)
        emissions = rng.random(n)
        bad = rng.random() < self.stationary_bad_probability()
        # Packet i emits in the state before transition draw i.  A draw
        # below both thresholds toggles the state, a draw below exactly one
        # forces it (bad below p_good_to_bad, good below p_bad_to_good) and
        # any other draw keeps it.  So the state after a step is the state
        # set at the last force (the start counting as one), flipped once
        # per toggle since then.
        to_bad = transitions < self.p_good_to_bad
        to_good = transitions < self.p_bad_to_good
        forced = np.concatenate(([True], to_bad != to_good))
        set_bad = np.concatenate(([bad], to_bad))
        toggles = np.cumsum(np.concatenate(([False], to_bad & to_good)))
        last_force = np.maximum.accumulate(np.where(forced, np.arange(n + 1), 0))
        state_bad = set_bad[last_force] ^ ((toggles - toggles[last_force]) % 2 == 1)
        return emissions < np.where(state_bad[:n], self.loss_bad, self.loss_good)

    def spec_string(self) -> str:
        return (
            f"gilbert_elliott({self.p_good_to_bad:g},{self.p_bad_to_good:g},"
            f"{self.loss_good:g},{self.loss_bad:g})"
        )


LossModel = Union[BernoulliLoss, GilbertElliottLoss]


@dataclass(frozen=True)
class NoJitter:
    """Constant network delay."""

    base_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_delay_ms) and self.base_delay_ms >= 0):
            raise ValueError("base_delay_ms must be finite and >= 0")

    def delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.base_delay_ms)

    def spec_string(self) -> str:
        return "none"


@dataclass(frozen=True)
class GaussianJitter:
    """Zero-mean Gaussian delay variation around the base delay."""

    sigma_ms: float
    base_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_ms) and self.sigma_ms >= 0):
            raise ValueError("sigma_ms must be finite and >= 0")
        if not (math.isfinite(self.base_delay_ms) and self.base_delay_ms >= 0):
            raise ValueError("base_delay_ms must be finite and >= 0")

    def delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Negative total delays are truncated to zero.
        return np.maximum(0.0, self.base_delay_ms + rng.normal(0.0, self.sigma_ms, n))

    def spec_string(self) -> str:
        return f"gaussian({self.sigma_ms:g})"


@dataclass(frozen=True)
class GammaJitter:
    """Gamma-distributed extra delay on top of the base delay."""

    shape: float
    scale_ms: float
    base_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.shape, self.scale_ms)):
            raise ValueError("gamma shape and scale must be positive and finite")
        if not (math.isfinite(self.base_delay_ms) and self.base_delay_ms >= 0):
            raise ValueError("base_delay_ms must be finite and >= 0")

    def delays(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.base_delay_ms + rng.gamma(self.shape, self.scale_ms, n)

    def spec_string(self) -> str:
        return f"gamma({self.shape:g},{self.scale_ms:g})"


JitterModel = Union[NoJitter, GaussianJitter, GammaJitter]


def synthesize_timeline(
    loss: LossModel,
    jitter: JitterModel,
    packets: int,
    ptime_ms: float,
    rng: np.random.Generator,
) -> PacketTimeline:
    """Generate one flow's timeline: sends on the ptime grid, arrivals
    delayed per the jitter model or dropped per the loss model.

    Deterministic given the generator's state.  Delivery is first-in
    first-out, so arrivals are made non-decreasing (no reordering): each
    received packet arrives no earlier than the one received before it.
    """
    if packets < 1:
        raise ValueError(f"packets must be >= 1, got {packets}")
    lost = loss.sample(packets, rng)
    delays = jitter.delays(packets, rng)
    seq = np.arange(packets)
    send = seq * ptime_ms
    sent = send[~lost]
    arrival = np.full(packets, np.nan)
    arrival[~lost] = np.maximum.accumulate(np.maximum(sent + delays[~lost], sent))
    return PacketTimeline(ptime_ms=ptime_ms, seq=seq, send_ms=send, arrival_ms=arrival)


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
        if not (math.isfinite(self.ptime_ms) and self.ptime_ms > 0):
            raise ValueError(f"ptime_ms must be positive and finite, got {self.ptime_ms}")
        if self.packets_per_flow < 1:
            raise ValueError("packets_per_flow must be >= 1")
        if not self.loss_models or not self.jitter_models:
            raise ValueError("need at least one loss model and one jitter model")
        fractions = [frac for _, frac in self.codec_mix]
        if not all(0.0 <= frac <= 1.0 for frac in fractions):
            raise ValueError(f"codec_mix fractions must be in [0, 1], got {fractions}")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"codec mix fractions must sum to 1, got {total}")

    def sweep_cells(self) -> list[tuple[LossModel, JitterModel]]:
        return list(itertools.product(self.loss_models, self.jitter_models))

    def digest(self) -> str:
        text = "|".join(
            [
                f"flows={self.flows}",
                f"packets={self.packets_per_flow}",
                f"seed={self.seed}",
                f"ptime={self.ptime_ms:g}",
                "mix=" + ",".join(f"{c.value}:{f:g}" for c, f in self.codec_mix),
                "loss=" + ",".join(m.spec_string() for m in self.loss_models),
                "jitter=" + ",".join(m.spec_string() for m in self.jitter_models),
                f"jbe={self.jbe.initial_delay_ms:g}/{self.jbe.window}/{self.jbe.safety_factor:g}",
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class FlowOutcome:
    """One synthetic flow's CDR record and the jitter-buffer pass it was measured with."""

    record: FlowRecord
    jbe_result: JbeResult


@dataclass(frozen=True)
class RejectedFlow:
    flow_id: str
    reason: str


def _pick_codec(mix: tuple[tuple[Codec, float], ...], u: float) -> Codec:
    cumulative = 0.0
    for codec, fraction in mix:
        cumulative += fraction
        if u < cumulative:
            return codec
    return mix[-1][0]


def iter_flow_outcomes(
    spec: SimSpec,
    profiles: dict[Codec, CodecProfile] | None = None,
) -> Iterable[FlowOutcome | RejectedFlow]:
    """Run every flow of the spec through the full measurement pipeline.

    Per flow: synthesize a timeline, replay it through the jitter buffer
    (which measures effective loss, jitter and play-out delay in one pass),
    characterize loss burstiness over the lost-or-late pattern, and score
    the flow with its codec profile using the mean play-out delay as the
    one-way delay.  Flows with fewer than two received packets carry no
    jitter statistics and are rejected.
    """
    profiles = profiles if profiles is not None else DEFAULT_PROFILES
    cells = spec.sweep_cells()
    children = np.random.SeedSequence(spec.seed).spawn(spec.flows)
    for i in range(spec.flows):
        flow_id = f"flow-{i:06d}"
        rng = np.random.default_rng(children[i])
        codec = _pick_codec(spec.codec_mix, rng.random())
        loss_model, jitter_model = cells[i % len(cells)]
        timeline = synthesize_timeline(
            loss_model, jitter_model, spec.packets_per_flow, spec.ptime_ms, rng
        )
        result = run_jbe(timeline, spec.jbe)
        if result.avg_jitter_ms is None:
            yield RejectedFlow(flow_id, "NOT_ENOUGH_PACKETS")
            continue
        character = LossCharacter(
            ppl=100.0 * result.p_loss,
            burst_r=burst_ratio(result.effective_lost),
        )
        score = compute_r_factor(profiles[codec], character, result.mean_playout_delay_ms)
        record = FlowRecord(
            flow_id=flow_id,
            codec=codec,
            tx_packets=timeline.tx_count,
            rx_packets=result.received_count,
            avg_jitter_ms=result.avg_jitter_ms,
            max_jitter_ms=result.max_jitter_ms,
            r_factor=score.r_factor,
        )
        yield FlowOutcome(record=record, jbe_result=result)


def synthesize_dataset(
    spec: SimSpec,
    profiles: dict[Codec, CodecProfile] | None = None,
) -> tuple[list[FlowRecord], list[RejectedFlow]]:
    """Generate the spec's flows as CDR records; per-flow failures become rejects."""
    records: list[FlowRecord] = []
    rejected: list[RejectedFlow] = []
    for outcome in iter_flow_outcomes(spec, profiles):
        if isinstance(outcome, RejectedFlow):
            rejected.append(outcome)
        else:
            records.append(outcome.record)
    return records, rejected


_MODEL_TOKEN = re.compile(r"([A-Za-z_]+)\s*(?:\(([^)]*)\))?")


def _parse_model_list(text: str, key: str) -> list[tuple[str, list[float]]]:
    found = []
    for match in _MODEL_TOKEN.finditer(text):
        name = match.group(1)
        if not name:
            continue
        args_text = match.group(2)
        args = []
        if args_text:
            for chunk in args_text.split(","):
                chunk = chunk.strip()
                if chunk:
                    args.append(parse_float(chunk, f"{key}: {name}(...)"))
        found.append((name.lower(), args))
    if not found:
        raise ValueError(f"{key}: no models given")
    return found


def _build_loss_models(text: str) -> tuple[LossModel, ...]:
    models: list[LossModel] = []
    for name, args in _parse_model_list(text, "loss_models"):
        if name == "bernoulli":
            if len(args) != 1:
                raise ValueError("loss_models: bernoulli takes exactly one probability")
            models.append(BernoulliLoss(args[0]))
        elif name == "gilbert_elliott":
            if len(args) != 4:
                raise ValueError(
                    "loss_models: gilbert_elliott takes (p_good_to_bad, p_bad_to_good,"
                    " loss_good, loss_bad)"
                )
            models.append(GilbertElliottLoss(*args))
        else:
            raise ValueError(f"loss_models: unknown model {name!r}")
    return tuple(models)


def _build_jitter_models(text: str, base_delay_ms: float) -> tuple[JitterModel, ...]:
    models: list[JitterModel] = []
    for name, args in _parse_model_list(text, "jitter_models"):
        if name == "none":
            if args:
                raise ValueError("jitter_models: none takes no arguments")
            models.append(NoJitter(base_delay_ms))
        elif name == "gaussian":
            if len(args) != 1:
                raise ValueError("jitter_models: gaussian takes exactly one sigma")
            models.append(GaussianJitter(args[0], base_delay_ms))
        elif name == "gamma":
            if len(args) != 2:
                raise ValueError("jitter_models: gamma takes (shape, scale_ms)")
            models.append(GammaJitter(args[0], args[1], base_delay_ms))
        else:
            raise ValueError(f"jitter_models: unknown model {name!r}")
    return tuple(models)


def _parse_codec_mix(text: str) -> tuple[tuple[Codec, float], ...]:
    mix = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, fraction = chunk.partition(":")
        try:
            codec = Codec(name.strip())
        except ValueError:
            raise ValueError(f"codec_mix: unknown codec {name.strip()!r}") from None
        mix.append((codec, parse_float(fraction, "codec_mix")))
    if not mix:
        raise ValueError("codec_mix: empty")
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
        window=int(section.get("window", "16")),
        safety_factor=parse_float(section.get("safety_factor", "3"), "safety_factor"),
    )
    spec = SimSpec(
        flows=int(section["flows"]),
        packets_per_flow=int(section["packets_per_flow"]),
        seed=int(section["seed"]),
        ptime_ms=parse_float(section.get("ptime_ms", "20"), "ptime_ms"),
        codec_mix=_parse_codec_mix(section.get("codec_mix", "AMR:0.71, AMR-WB:0.29")),
        loss_models=_build_loss_models(section.get("loss_models", "bernoulli(0)")),
        jitter_models=_build_jitter_models(section.get("jitter_models", "none"), base_delay),
        jbe=jbe,
    )
    return spec, profiles_from_parser(parser)
