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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from volteqa.ingest import Bandwidth, Codec, parse_float

# ie_eff saturates toward its scale's ceiling as loss approaches 100%:
# G.107's 95 on the narrowband scale, G.107.1's 129 on the wideband one.
LOSS_IMPAIRMENT_CEILING = {Bandwidth.NARROWBAND: 95.0, Bandwidth.WIDEBAND: 129.0}

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
        for name in ("ie", "bpl", "r0", "simultaneous", "advantage"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        ceiling = LOSS_IMPAIRMENT_CEILING[self.codec.bandwidth]
        if not 0.0 <= self.ie < ceiling:
            raise ValueError(f"ie must be in [0, {ceiling:g}) for {self.codec.value}, got {self.ie}")
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


@dataclass(frozen=True, eq=False)
class QualityScore:
    """Clamped R-factors and the mapped MOS values, one entry per flow."""

    r_factor: np.ndarray
    mos: np.ndarray


def burst_ratio(loss_flags: Sequence[bool] | np.ndarray) -> np.ndarray:
    """Burst ratio of each flow's loss pattern (True = lost), as the
    ``burst_r`` of :func:`compute_r_factor`.

    Axis 0 runs over packets, any further axes over flows: an (n, flows)
    array gives one ratio per flow, a 1-D pattern a 0-d array.  The ratio
    is the mean observed loss-run length divided by the mean run length
    expected under independent loss at the same rate; 1 means random loss,
    larger means burstier.  It degenerates to 1 when nothing was lost or
    everything was lost.
    """
    flags = np.asarray(loss_flags, dtype=bool)
    total = flags.shape[0] if flags.ndim else 0
    if total == 0:
        raise ValueError("need at least one loss flag")
    lost = np.count_nonzero(flags, axis=0)
    # A run starts at a lost packet that is first or follows a received one.
    runs = flags[0] + np.count_nonzero(flags[1:] & ~flags[:-1], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_run = lost / runs
        p = lost / total
        expected_run = 1.0 / (1.0 - p)
        ratio = mean_run / expected_run
    return np.where((lost == 0) | (lost == total) | ~(ratio > 1.0), 1.0, ratio)


def compute_r_factor(
    profile: CodecProfile,
    ppl: float | np.ndarray,
    burst_r: float | np.ndarray = 1.0,
    one_way_delay_ms: float | np.ndarray = 0.0,
) -> QualityScore:
    """Score flows with one codec profile: R, the impairment budget clamped
    to the codec's scale, and its MOS.

    ``ppl`` (loss percent), ``burst_r`` and ``one_way_delay_ms`` broadcast
    against each other, one entry per flow.  Each step is the scalar G.107
    arithmetic, element by element and in the same order.  The delay
    impairment is zero up to 100 ms, then grows by 0.024 per ms, plus 0.11
    per ms beyond 177.3 ms.  ``ie_eff`` equals ``ie`` at zero loss, grows
    with loss and burstiness and stays strictly below the loss-impairment
    ceiling of the codec's scale, 95 narrowband or 129 wideband: its loss term
    ``ppl / (ppl/burst_r + bpl)`` saturates just under 1, which bursty loss
    at extreme rates would otherwise exceed.  MOS maps R onto 1..4.5; the
    wideband scale rescales R by 100/129 first, and the raw cubic, which
    dips slightly below 1 for very small R, is floored at 1.
    """
    ppl = np.asarray(ppl, dtype=np.float64)
    burst_r = np.asarray(burst_r, dtype=np.float64)
    delay = np.asarray(one_way_delay_ms, dtype=np.float64)
    _check(~((ppl >= 0.0) & (ppl <= 100.0)), ppl, "ppl must be a percentage in [0, 100]")
    _check(~(burst_r >= 1.0), burst_r, "burst_r must be >= 1")
    _check(~(delay >= 0.0), delay, "delay must be >= 0")

    delay_impairment = np.where(delay <= 100.0, 0.0, 0.024 * (delay - 100.0))
    delay_impairment = np.where(
        delay > 177.3, delay_impairment + 0.11 * (delay - 177.3), delay_impairment
    )
    term = np.minimum(ppl / (ppl / burst_r + profile.bpl), math.nextafter(1.0, 0.0))
    equipment = profile.ie + (LOSS_IMPAIRMENT_CEILING[profile.codec.bandwidth] - profile.ie) * term
    raw = profile.r0 - profile.simultaneous - delay_impairment - equipment + profile.advantage
    # Comparisons rather than np.maximum / np.minimum keep the scalar
    # max() / min() choice between equal values, -0.0 included.
    r_max = profile.codec.r_max
    r_factor = np.where(raw < 0.0, 0.0, raw)
    r_factor = np.where(r_max < r_factor, r_max, r_factor)

    wideband = profile.codec.bandwidth is Bandwidth.WIDEBAND
    scaled = r_factor * 100.0 / 129.0 if wideband else r_factor
    mos = 1.0 + 0.035 * scaled + scaled * (scaled - 60.0) * (100.0 - scaled) * 7e-6
    mos = np.where(mos > 1.0, mos, 1.0)
    mos = np.where(scaled >= 100.0, 4.5, mos)
    mos = np.where(scaled <= 0.0, 1.0, mos)
    return QualityScore(r_factor=r_factor, mos=mos)


def _check(failed: np.ndarray, values: np.ndarray, message: str) -> None:
    if failed.any():
        raise ValueError(f"{message}, got {values[failed].flat[0]}")


def load_profiles(text: str) -> dict[Codec, CodecProfile]:
    """Load codec profiles from key-value config text with [AMR] / [AMR-WB] sections.

    Keys: ie, bpl, r0, is, advantage, r_max.  Missing keys fall back to
    ``DEFAULT_PROFILES``; an r_max key must match the codec's fixed scale ceiling.
    A [sim] section is allowed and left alone; any other section is an error.
    """
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return profiles_from_parser(parser)


def profiles_from_parser(parser: configparser.ConfigParser) -> dict[Codec, CodecProfile]:
    """Codec profiles from the codec sections of an already parsed config
    (see :func:`load_profiles`).  A [sim] section, which profiles share a
    file with, is left to the sim loader; any other section is an error."""
    profiles = dict(DEFAULT_PROFILES)
    for section in parser.sections():
        if section == "sim":
            continue
        try:
            codec = Codec(section)
        except ValueError:
            raise ValueError(f"unknown section [{section}]") from None
        values = {}  # by CodecProfile field name; key "is" sets simultaneous
        for key, text in parser.items(section):
            if key not in PROFILE_KEYS:
                raise ValueError(f"unknown profile key {key!r} in [{section}]")
            values["simultaneous" if key == "is" else key] = parse_float(text, f"[{section}] {key}")
        r_max = values.pop("r_max", codec.r_max)
        if r_max != codec.r_max:
            raise ValueError(f"r_max for {codec.value} is fixed at {codec.r_max}, got {r_max}")
        profiles[codec] = replace(profiles[codec], **values)
    return profiles
