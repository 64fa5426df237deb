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
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

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
    """Why a CDR row was filtered out instead of joining the table."""

    BAD_FIELD = "BAD_FIELD"
    UNSUPPORTED_CODEC = "UNSUPPORTED_CODEC"
    NEGATIVE_COUNT = "NEGATIVE_COUNT"
    EMPTY_FLOW = "EMPTY_FLOW"
    INCONSISTENT_JITTER = "INCONSISTENT_JITTER"
    R_OUT_OF_RANGE = "R_OUT_OF_RANGE"


# No generated ==: arrays compare element by element.  Compare rows().
@dataclass(frozen=True, eq=False)
class CdrTable:
    """CDR rows as columns, one per CDR column.

    ``flow_id`` and ``codec`` are object arrays of str and Codec.  The
    packet counts are int64, or object arrays of Python ints when a count
    does not fit.  The jitter columns and ``r_factor`` are float64, with
    NaN for an absent r_factor.
    """

    flow_id: np.ndarray
    codec: np.ndarray
    tx_packets: np.ndarray
    rx_packets: np.ndarray
    avg_jitter_ms: np.ndarray
    max_jitter_ms: np.ndarray
    r_factor: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> CdrTable:
        """The table of rows given in column order, None for an absent r_factor."""
        flow_id, codec, tx, rx, *floats = zip(*rows) if rows else [()] * len(CDR_COLUMNS)
        objects = [np.array(column, dtype=object) for column in (flow_id, codec)]
        # As float64, an absent r_factor (None) becomes NaN.
        return cls(*objects, _counts(tx), _counts(rx), *(np.array(c, dtype=float) for c in floats))

    def __len__(self) -> int:
        return len(self.flow_id)

    def take(self, rows) -> CdrTable:
        """The table of the rows that ``rows`` (a slice, mask or indices) selects."""
        return CdrTable(*(getattr(self, name)[rows] for name in CDR_COLUMNS))

    def rows(self) -> Iterator[tuple]:
        """The rows as tuples in column order, None for an absent r_factor."""
        r_factor = [None if r != r else r for r in self.r_factor.tolist()]
        return zip(*(getattr(self, name).tolist() for name in CDR_COLUMNS[:-1]), r_factor)


def _counts(values: Sequence[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # a count beyond int64
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class RejectedRow:
    """A filtered-out CSV row: where it is and why it was rejected."""

    line_no: int
    reason: RejectReason
    detail: str


def validate_record(
    codec: Codec, tx_packets: int, rx_packets: int, avg_jitter_ms: float, max_jitter_ms: float,
    r_factor: float | None,
) -> RejectReason | None:
    """Return the first violated acceptance rule, or None if the row is good.

    Rules, in order: negative packet counts, fully empty flow, inconsistent
    jitter fields (negative, or max below average), R-factor outside
    [0, r_max] for the row's codec.  Unsupported codecs never reach this
    function; they are rejected at parse time.
    """
    if tx_packets < 0 or rx_packets < 0:
        return RejectReason.NEGATIVE_COUNT
    if tx_packets == 0 and rx_packets == 0:
        return RejectReason.EMPTY_FLOW
    if avg_jitter_ms < 0 or max_jitter_ms < avg_jitter_ms:
        return RejectReason.INCONSISTENT_JITTER
    if r_factor is not None and not 0.0 <= r_factor <= codec.r_max:
        return RejectReason.R_OUT_OF_RANGE
    return None


def parse_int(text: str, name: str) -> int:
    """The integer in ``text``; ValueError, naming ``name``, otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}: not an integer: {text!r}") from None


def parse_float(text: str, name: str) -> float:
    """The finite number in ``text``; ValueError, naming ``name``, otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name}: not a number: {text!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name}: not finite: {text!r}")
    return value


def parse_cdr_csv(stream: IO[str]) -> tuple[CdrTable, list[RejectedRow]]:
    """Parse a CDR CSV into the table of accepted rows and per-row rejects.

    Every data row becomes exactly one table row or one RejectedRow, in
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

    rows: list[tuple] = []
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
            values = (
                codec,
                parse_int(tx, "tx_packets"),
                parse_int(rx, "rx_packets"),
                parse_float(avg_j, "avg_jitter_ms"),
                parse_float(max_j, "max_jitter_ms"),
                None if r_text == "" else parse_float(r_text, "r_factor"),
            )
        except ValueError as exc:
            reject(RejectReason.BAD_FIELD, str(exc))
            continue
        reason = validate_record(*values)
        if reason is not None:
            reject(reason, reason.value)
            continue
        rows.append((flow_id, *values))
    return CdrTable.from_rows(rows), rejects


def cdr_rows(table: CdrTable) -> Iterator[list]:
    """The table's rows in CDR column order; floats in their shortest
    round-trip form, an absent r_factor as an empty field."""
    for flow_id, codec, tx, rx, avg_j, max_j, r in table.rows():
        yield [flow_id, codec.value, tx, rx, repr(avg_j), repr(max_j), "" if r is None else repr(r)]


def write_cdr_csv(table: CdrTable, stream: IO[str]) -> None:
    """Write a table in the CDR schema; a parse(write(table)) round trip
    reproduces its rows exactly."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CDR_COLUMNS)
    writer.writerows(cdr_rows(table))


def summarize_dataset(table: CdrTable, rejects: Sequence[RejectedRow]) -> dict:
    """The JSON summary document of a parsed CDR file.

    Flow counts and shares per codec over the table's rows (no entry for
    an absent codec), and the rejected rows with their count by reason.
    Counts and shares do not depend on row order.
    """
    counts = Counter(table.codec.tolist())
    reasons = Counter(row.reason for row in rejects)
    present = [codec for codec in Codec if counts[codec]]
    return {
        "total_flows": len(table),
        "per_codec_counts": {codec.value: counts[codec] for codec in present},
        "per_codec_shares": {codec.value: counts[codec] / len(table) for codec in present},
        "rejected": {
            "total": len(rejects),
            "by_reason": {r.value: reasons[r] for r in RejectReason if reasons[r]},
            "rows": [
                {"line_no": r.line_no, "reason": r.reason.value, "detail": r.detail} for r in rejects
            ],
        },
    }
