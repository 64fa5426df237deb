"""CDR ingestion: parsing, per-row validation, and dataset summaries.

The on-disk format is a CSV with the fixed column set
``flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor``.
An empty ``r_factor`` field means the score is absent.  Codec values other
than ``AMR`` and ``AMR-WB`` reject the row, never the file; only a bad
header is fatal.
"""

from __future__ import annotations

import csv
import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

CDR_COLUMNS = (
    "flow_id",
    "codec",
    "tx_packets",
    "rx_packets",
    "avg_jitter_ms",
    "max_jitter_ms",
    "r_factor",
)


class SchemaError(ValueError):
    """Raised when a CSV header does not match the CDR schema."""


class Bandwidth(enum.Enum):
    NARROWBAND = "narrowband"
    WIDEBAND = "wideband"


class Codec(enum.Enum):
    """Speech codec of a voice flow; fixes the rating-scale ceiling."""

    AMR = "AMR"
    AMR_WB = "AMR-WB"

    @property
    def bandwidth(self) -> Bandwidth:
        return Bandwidth.NARROWBAND if self is Codec.AMR else Bandwidth.WIDEBAND

    @property
    def r_max(self) -> float:
        # Narrowband ratings top out at 100, wideband ratings at 129.
        return 100.0 if self.bandwidth is Bandwidth.NARROWBAND else 129.0


class RejectReason(str, enum.Enum):
    """Why a CDR row was filtered out instead of becoming a FlowRecord."""

    BAD_FIELD = "BAD_FIELD"
    UNSUPPORTED_CODEC = "UNSUPPORTED_CODEC"
    NEGATIVE_COUNT = "NEGATIVE_COUNT"
    EMPTY_FLOW = "EMPTY_FLOW"
    INCONSISTENT_JITTER = "INCONSISTENT_JITTER"
    R_OUT_OF_RANGE = "R_OUT_OF_RANGE"


@dataclass(frozen=True)
class FlowRecord:
    """One uplink voice flow's CDR row."""

    flow_id: str
    codec: Codec
    tx_packets: int
    rx_packets: int
    avg_jitter_ms: float
    max_jitter_ms: float
    r_factor: float | None = None


@dataclass(frozen=True)
class RejectedRow:
    """A filtered-out CSV row: where it is and why it was rejected."""

    line_no: int
    reason: RejectReason
    detail: str


@dataclass(frozen=True)
class DatasetSummary:
    total_flows: int
    per_codec_counts: dict[Codec, int]
    per_codec_shares: dict[Codec, float]
    rejected_total: int = 0
    rejected_by_reason: dict[RejectReason, int] = field(default_factory=dict)


def validate_record(record: FlowRecord) -> RejectReason | None:
    """Return the first violated acceptance rule, or None if the record is good.

    Rules, in order: negative packet counts, fully empty flow, inconsistent
    jitter fields (negative, or max below average), R-factor outside
    [0, r_max] for the record's codec.  Unsupported codecs never reach this
    function; they are rejected at parse time.
    """
    if record.tx_packets < 0 or record.rx_packets < 0:
        return RejectReason.NEGATIVE_COUNT
    if record.tx_packets == 0 and record.rx_packets == 0:
        return RejectReason.EMPTY_FLOW
    if record.avg_jitter_ms < 0 or record.max_jitter_ms < record.avg_jitter_ms:
        return RejectReason.INCONSISTENT_JITTER
    if record.r_factor is not None and not 0.0 <= record.r_factor <= record.codec.r_max:
        return RejectReason.R_OUT_OF_RANGE
    return None


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}: not an integer: {text!r}") from None


def _parse_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name}: not a number: {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name}: not finite: {text!r}")
    return value


def parse_cdr_csv(stream: IO[str]) -> tuple[list[FlowRecord], list[RejectedRow]]:
    """Parse a CDR CSV into accepted records and per-row rejects.

    Every data row becomes exactly one FlowRecord or one RejectedRow, in
    file order.  ``line_no`` is the 1-based line number (the header is
    line 1).  A missing or unknown header raises SchemaError.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty input: expected header " + ",".join(CDR_COLUMNS)) from None
    if tuple(header) != CDR_COLUMNS:
        raise SchemaError(
            f"unexpected header {','.join(header)!r}; expected {','.join(CDR_COLUMNS)!r}"
        )

    records: list[FlowRecord] = []
    rejects: list[RejectedRow] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue

        def reject(reason: RejectReason, detail: str) -> None:
            rejects.append(RejectedRow(line_no, reason, detail))

        if len(row) != len(CDR_COLUMNS):
            reject(RejectReason.BAD_FIELD, f"expected {len(CDR_COLUMNS)} fields, got {len(row)}")
            continue
        flow_id, codec_text, tx, rx, avg_j, max_j, r_text = row
        try:
            codec = Codec(codec_text)
        except ValueError:
            reject(RejectReason.UNSUPPORTED_CODEC, f"codec {codec_text!r}")
            continue
        try:
            record = FlowRecord(
                flow_id=flow_id,
                codec=codec,
                tx_packets=_parse_int(tx, "tx_packets"),
                rx_packets=_parse_int(rx, "rx_packets"),
                avg_jitter_ms=_parse_float(avg_j, "avg_jitter_ms"),
                max_jitter_ms=_parse_float(max_j, "max_jitter_ms"),
                r_factor=None if r_text == "" else _parse_float(r_text, "r_factor"),
            )
        except ValueError as exc:
            reject(RejectReason.BAD_FIELD, str(exc))
            continue
        reason = validate_record(record)
        if reason is not None:
            reject(reason, reason.value)
            continue
        records.append(record)
    return records, rejects


def cdr_row(record: FlowRecord) -> list:
    """A record's fields in CDR column order; floats in their shortest
    round-trip form, an absent r_factor as an empty field."""
    return [
        record.flow_id,
        record.codec.value,
        record.tx_packets,
        record.rx_packets,
        repr(float(record.avg_jitter_ms)),
        repr(float(record.max_jitter_ms)),
        "" if record.r_factor is None else repr(float(record.r_factor)),
    ]


def write_cdr_csv(records: Iterable[FlowRecord], stream: IO[str]) -> None:
    """Write records in the CDR schema; a parse(write(records)) round trip
    reproduces the records exactly."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CDR_COLUMNS)
    writer.writerows(cdr_row(record) for record in records)


def summarize_dataset(
    records: Sequence[FlowRecord],
    rejected: Sequence[RejectedRow] = (),
) -> DatasetSummary:
    """Count flows per codec and derive codec shares over accepted flows.

    Deterministic regardless of input order; shares are omitted entirely
    for an empty record list.
    """
    counts = Counter(record.codec for record in records)
    total = len(records)
    per_codec_counts = {codec: counts[codec] for codec in Codec if counts[codec]}
    per_codec_shares = {
        codec: count / total for codec, count in per_codec_counts.items()
    }
    reason_counts = Counter(row.reason for row in rejected)
    return DatasetSummary(
        total_flows=total,
        per_codec_counts=per_codec_counts,
        per_codec_shares=per_codec_shares,
        rejected_total=len(rejected),
        rejected_by_reason={r: reason_counts[r] for r in RejectReason if reason_counts[r]},
    )


def summary_as_dict(summary: DatasetSummary) -> dict:
    """JSON-friendly view of a DatasetSummary (enum keys become strings)."""
    return {
        "total_flows": summary.total_flows,
        "per_codec_counts": {c.value: n for c, n in summary.per_codec_counts.items()},
        "per_codec_shares": {c.value: s for c, s in summary.per_codec_shares.items()},
        "rejected": {
            "total": summary.rejected_total,
            "by_reason": {r.value: n for r, n in summary.rejected_by_reason.items()},
        },
    }
