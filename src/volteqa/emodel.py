"""E-Model R-factor and MOS scoring with burst-aware loss impairment.

Quality is an additive impairment budget, ``R = r0 - is - id - ie_eff + A``,
clamped to the codec's rating scale: 0..100 for narrowband, 0..129 for
wideband.  Loss enters through the effective equipment impairment
``ie_eff``, which grows with the loss percentage and with the burstiness
of the loss pattern (summarized by the burst ratio).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import IO, Sequence

from volteqa.ingest import Bandwidth, Codec

# ie_eff saturates toward this value as loss approaches 100%.
LOSS_IMPAIRMENT_CEILING = 95.0

PROFILE_KEYS = ("ie", "bpl", "r0", "is", "advantage", "r_max")


@dataclass(frozen=True)
class CodecProfile:
    """Per-codec E-Model parameters.

    Shipped defaults are provisional, editable configuration; they pin the
    no-impairment score to the scale's conventional maximum, not to any
    measured equipment characterization.
    """

    codec: Codec
    ie: float
    bpl: float
    r0: float
    simultaneous: float = 0.0  # config key "is"
    advantage: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ie < LOSS_IMPAIRMENT_CEILING:
            raise ValueError(f"ie must be in [0, 95), got {self.ie}")
        if self.bpl <= 0:
            raise ValueError(f"bpl must be positive, got {self.bpl}")
        if self.advantage < 0:
            raise ValueError(f"advantage must be >= 0, got {self.advantage}")
        if self.r0 - self.simultaneous > self.codec.r_max:
            raise ValueError(
                f"r0 - is = {self.r0 - self.simultaneous} exceeds "
                f"r_max = {self.codec.r_max} for {self.codec.value}"
            )


DEFAULT_PROFILES: dict[Codec, CodecProfile] = {
    Codec.AMR: CodecProfile(codec=Codec.AMR, ie=0.0, bpl=13.0, r0=93.2),
    Codec.AMR_WB: CodecProfile(codec=Codec.AMR_WB, ie=0.0, bpl=40.0, r0=129.0),
}


@dataclass(frozen=True)
class LossCharacter:
    """Loss percentage plus burstiness of the loss pattern.

    ``burst_r`` is the mean observed loss-run length divided by the mean
    run length expected under independent loss at the same rate; 1 means
    random loss, larger means burstier.
    """

    ppl: float
    burst_r: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ppl <= 100.0:
            raise ValueError(f"ppl must be a percentage in [0, 100], got {self.ppl}")
        if self.burst_r < 1.0:
            raise ValueError(f"burst_r must be >= 1, got {self.burst_r}")


NO_LOSS = LossCharacter(ppl=0.0, burst_r=1.0)


@dataclass(frozen=True)
class ScoreComponents:
    r0: float
    simultaneous: float
    delay: float
    equipment_effective: float
    advantage: float


@dataclass(frozen=True)
class QualityScore:
    """R-factor with its impairment breakdown and the mapped MOS."""

    codec: Codec
    r_factor: float
    mos: float
    r_unclamped: float
    components: ScoreComponents


def burst_ratio(loss_flags: Sequence[bool]) -> LossCharacter:
    """Summarize a loss pattern (True = lost) as loss percent plus burst ratio.

    The ratio degenerates to 1 when nothing was lost or everything was lost.
    """
    total = len(loss_flags)
    if total == 0:
        raise ValueError("need at least one loss flag")
    lost = sum(1 for flag in loss_flags if flag)
    ppl = 100.0 * lost / total
    if lost == 0 or lost == total:
        return LossCharacter(ppl=ppl, burst_r=1.0)
    runs = 0
    previous = False
    for flag in loss_flags:
        if flag and not previous:
            runs += 1
        previous = flag
    mean_run = lost / runs
    p = lost / total
    expected_run = 1.0 / (1.0 - p)
    return LossCharacter(ppl=ppl, burst_r=max(1.0, mean_run / expected_run))


def ie_eff(profile: CodecProfile, loss: LossCharacter) -> float:
    """Effective equipment impairment under the given loss character.

    Monotonically non-decreasing in both loss percent and burst ratio,
    equal to ``ie`` at zero loss and strictly below 95.  The loss term
    ``ppl / (ppl/burst_r + bpl)`` saturates just under 1: for bursty loss
    at extreme rates the raw ratio exceeds 1, which would push the
    impairment past the ceiling it is meant to approach.
    """
    term = loss.ppl / (loss.ppl / loss.burst_r + profile.bpl)
    term = min(term, math.nextafter(1.0, 0.0))
    return profile.ie + (LOSS_IMPAIRMENT_CEILING - profile.ie) * term


def delay_impairment(one_way_delay_ms: float) -> float:
    """Delay impairment: zero up to 100 ms, then piecewise linear growth."""
    if one_way_delay_ms < 0:
        raise ValueError(f"delay must be >= 0, got {one_way_delay_ms}")
    if one_way_delay_ms <= 100.0:
        return 0.0
    impairment = 0.024 * (one_way_delay_ms - 100.0)
    if one_way_delay_ms > 177.3:
        impairment += 0.11 * (one_way_delay_ms - 177.3)
    return impairment


def compute_r_factor(
    profile: CodecProfile,
    loss: LossCharacter = NO_LOSS,
    one_way_delay_ms: float = 0.0,
) -> QualityScore:
    """Score a flow: impairment budget, clamped R-factor, and MOS."""
    delay = delay_impairment(one_way_delay_ms)
    equipment = ie_eff(profile, loss)
    raw = profile.r0 - profile.simultaneous - delay - equipment + profile.advantage
    r_factor = min(max(raw, 0.0), profile.codec.r_max)
    return QualityScore(
        codec=profile.codec,
        r_factor=r_factor,
        mos=r_to_mos(r_factor, profile.codec.bandwidth),
        r_unclamped=raw,
        components=ScoreComponents(
            r0=profile.r0,
            simultaneous=profile.simultaneous,
            delay=delay,
            equipment_effective=equipment,
            advantage=profile.advantage,
        ),
    )


def r_to_mos(r: float, bandwidth: Bandwidth = Bandwidth.NARROWBAND) -> float:
    """Map an R-factor to MOS on the 1..5 scale (4.5 at the scale maximum).

    The wideband scale reuses the narrowband mapping with r rescaled by
    100/129, so r = 129 maps to 4.5.  The raw cubic dips slightly below 1
    for very small positive r; the result is floored at 1 to keep the
    mapping monotone on the full scale.
    """
    scaled = r if bandwidth is Bandwidth.NARROWBAND else r * 100.0 / 129.0
    if scaled <= 0.0:
        return 1.0
    if scaled >= 100.0:
        return 4.5
    mos = 1.0 + 0.035 * scaled + scaled * (scaled - 60.0) * (100.0 - scaled) * 7e-6
    return max(1.0, mos)


def load_profiles(source: IO[str] | str) -> dict[Codec, CodecProfile]:
    """Load codec profiles from key-value config text with [AMR] / [AMR-WB] sections.

    Keys: ie, bpl, r0, is, advantage, r_max.  Missing keys fall back to
    ``DEFAULT_PROFILES``; an r_max key must match the codec's fixed scale ceiling.
    """
    parser = configparser.ConfigParser()
    if isinstance(source, str):
        parser.read_string(source)
    else:
        parser.read_file(source)
    return profiles_from_parser(parser)


def profiles_from_parser(parser: configparser.ConfigParser) -> dict[Codec, CodecProfile]:
    """Codec profiles from the codec sections of an already parsed config
    (see :func:`load_profiles`); other sections are ignored."""
    profiles = dict(DEFAULT_PROFILES)
    for section in parser.sections():
        try:
            codec = Codec(section)
        except ValueError:
            continue  # non-codec sections (e.g. [sim]) belong to other loaders
        base = profiles[codec]
        values = {
            "ie": base.ie,
            "bpl": base.bpl,
            "r0": base.r0,
            "is": base.simultaneous,
            "advantage": base.advantage,
            "r_max": codec.r_max,
        }
        for key, text in parser.items(section):
            if key not in PROFILE_KEYS:
                raise ValueError(f"unknown profile key {key!r} in [{section}]")
            values[key] = float(text)
        if values["r_max"] != codec.r_max:
            raise ValueError(
                f"r_max for {codec.value} is fixed at {codec.r_max}, got {values['r_max']}"
            )
        profiles[codec] = CodecProfile(
            codec=codec,
            ie=values["ie"],
            bpl=values["bpl"],
            r0=values["r0"],
            simultaneous=values["is"],
            advantage=values["advantage"],
        )
    return profiles
