"""CDR ingestion: column-wise parsing, validation and writing.

The on-disk format is a CSV with the fixed column set
``flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor``.
An empty ``r_factor`` field means the score is absent.  Codec values other
than ``AMR`` and ``AMR-WB`` reject the row, never the file; only a bad
header is fatal.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence

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

# Rows read and converted, or formatted and written, at a time by the CSV
# readers and writers: the per-row Python objects of a chunk stay small
# beside the columns.
CHUNK_ROWS = 1024


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


# No generated ==: arrays compare element by element.
@dataclass(frozen=True, eq=False)
class CdrTable:
    """CDR rows as columns, one per CDR column.

    ``flow_id`` and ``codec`` are object arrays of str and Codec.  The
    packet counts are int64, or object arrays of Python ints when a count
    does not fit.  The jitter columns and ``r_factor`` are float64, with
    NaN for an absent r_factor, or str objects that ``cdr_lines`` writes
    as they are.
    """

    flow_id: np.ndarray
    codec: np.ndarray
    tx_packets: np.ndarray
    rx_packets: np.ndarray
    avg_jitter_ms: np.ndarray
    max_jitter_ms: np.ndarray
    r_factor: np.ndarray

    def __len__(self) -> int:
        return len(self.flow_id)

    def take(self, rows) -> CdrTable:
        """The table of the rows that ``rows`` (a slice, mask or indices) selects."""
        return CdrTable(*(getattr(self, name)[rows] for name in CDR_COLUMNS))

    def codec_counts(self) -> dict[Codec, int]:
        """The number of rows of each codec."""
        return {codec: int(np.count_nonzero(self.codec == codec)) for codec in Codec}


def _counts(values: Sequence[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # a count beyond int64
        return np.array(values, dtype=object)


@dataclass(frozen=True, slots=True)
class RejectedRow:
    """A filtered-out CSV row: where it is and why it was rejected."""

    line_no: int
    reason: RejectReason
    detail: str


def parse_int(text: str, name: str) -> int:
    """The integer in ``text``; ValueError, naming ``name``, otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}: not an integer: {text!r}") from None


def finite_number(text: str) -> tuple[float, str | None]:
    """The finite number in ``text`` and None, or NaN and why ``text`` is
    not one: ``"not a number"`` or ``"not finite"``."""
    try:
        value = float(text)
    except ValueError:
        return math.nan, "not a number"
    return (value, None) if math.isfinite(value) else (math.nan, "not finite")


def parse_float(text: str, name: str) -> float:
    """The finite number in ``text``; ValueError, naming ``name``, otherwise."""
    value, fault = finite_number(text)
    if fault:
        raise ValueError(f"{name}: {fault}: {text!r}")
    return value


class CsvBlock:
    """Consecutive rows of a CSV file, split as ``csv.reader`` splits them.

    ``fields`` holds each row's field count, 0 for a blank row.
    ``columns`` holds the cells of the rows that are not blank, in file
    order, one sequence per header column: as ``csv.DictReader`` reads
    them, a short row is padded with empty cells and a long row is cut.

    ``lines`` holds the lines of a block that is split on commas, and is
    None for a block that ``csv.reader`` read.  Such a block is split when
    ``fields`` or ``columns`` is first read, so a reader that takes the
    lines as they are makes no ``str`` of each cell.
    """

    def __init__(
        self, lines: list[str] | None = None, text: str = "", width: int = 0,
        cells: tuple[np.ndarray, Sequence[Sequence[str]]] | None = None,
    ):
        self.lines = lines
        self._text, self._width, self._cells = text, width, cells

    def __len__(self) -> int:
        """The number of rows, blank ones too; a block of lines is not split for it."""
        return len(self.fields) if self.lines is None else len(self.lines)

    @property
    def fields(self) -> np.ndarray:
        return self._split()[0]

    @property
    def columns(self) -> Sequence[Sequence[str]]:
        return self._split()[1]

    def _split(self) -> tuple[np.ndarray, Sequence[Sequence[str]]]:
        if self._cells is None:
            self._cells = _split_lines(self._text, self._width)
        return self._cells


def csv_blocks(stream: IO[str]) -> tuple[list[str] | None, Iterator[CsvBlock]]:
    """The header row of a CSV text stream, None if the stream is empty,
    and the rows after it in blocks of up to ``CHUNK_ROWS``.

    A plain block of lines, one that holds no quote, CR or NUL and no
    line longer than ``csv.field_size_limit()``, keeps its lines, and is
    split on commas in one pass when its cells are first read.  From the
    first block that is not plain, ``csv.reader`` reads the rest of the
    stream: a quoted field may span lines.
    """
    lines = iter(stream)
    # csv.reader takes only the lines of the header row, however many.
    header = next(csv.reader(lines), None)
    return header, _line_blocks(lines, len(header or ()))


def _line_blocks(lines: Iterator[str], width: int) -> Iterator[CsvBlock]:
    limit = csv.field_size_limit()
    while block := list(itertools.islice(lines, CHUNK_ROWS)):
        text = "".join(block)
        # No field of a line within the limit is beyond it, and no line is
        # longer than the block.
        long = len(text) > limit and max(map(len, block)) > limit
        if long or '"' in text or "\r" in text or "\0" in text:
            yield from _reader_blocks(csv.reader(itertools.chain(block, lines)), width)
            return
        yield CsvBlock(block, text, width)


def _split_lines(text: str, width: int) -> tuple[np.ndarray, list[list[str]]]:
    """The field count of each line of ``text`` and the cells of its rows
    that are not blank as columns at ``width``; no line may hold a quote,
    CR or NUL."""
    if not text.endswith("\n"):  # the last line of a file may have no newline
        text += "\n"
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    parts_per_line = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")), ends), prepend=0) + 1
    fields = np.where(np.diff(ends, prepend=-1) == 1, 0, parts_per_line)  # a blank line is its newline
    parts = text.replace("\n", ",").split(",")
    # Pad or cut each row of another width to the header's width and drop
    # the one empty part of each blank row, from the last row back, so the
    # parts of the rows before stay where they are.
    starts = np.cumsum(parts_per_line) - parts_per_line
    padding = [""] * width
    for row in np.flatnonzero(fields != width)[::-1]:
        start, n = starts[row], fields[row]
        parts[start:start + parts_per_line[row]] = (parts[start:start + n] + padding)[:width] if n else []
    stop = width * int(np.count_nonzero(fields))  # a final newline leaves one empty part beyond
    return fields, [parts[column:stop:width] for column in range(width)]


def _reader_blocks(reader: Iterator[list[str]], width: int) -> Iterator[CsvBlock]:
    padding = [""] * width
    while rows := list(itertools.islice(reader, CHUNK_ROWS)):
        cells = [(row + padding)[:width] for row in rows if row]
        yield CsvBlock(cells=(
            np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)),
            list(zip(*cells)) if cells else [()] * width,
        ))


def cdr_blocks(stream: IO[str]) -> Iterator[tuple[int, CsvBlock]]:
    """The data rows of a CDR CSV in the blocks of ``csv_blocks``, each
    with the 1-based line number of its first row (the header is line 1).

    A missing or unknown header raises SchemaError at once, before any
    data row is read.
    """
    header, blocks = csv_blocks(stream)
    if header is None:
        raise SchemaError("empty input: expected header " + ",".join(CDR_COLUMNS))
    if tuple(header) != CDR_COLUMNS:
        raise SchemaError(
            f"unexpected header {','.join(header)!r}; expected {','.join(CDR_COLUMNS)!r}"
        )
    return _numbered(blocks)


def _numbered(blocks: Iterator[CsvBlock]) -> Iterator[tuple[int, CsvBlock]]:
    line_no = 2
    for block in blocks:
        yield line_no, block
        line_no += len(block)


_CODECS = tuple(Codec)
# Each codec's text and its position in Codec.
CODEC_INDEX = {codec.value: index for index, codec in enumerate(_CODECS)}
# Each codec's R scale ceiling, by its position in Codec.
CODEC_R_MAX = np.array([codec.r_max for codec in _CODECS])


def codec_codes(texts: Sequence[str]) -> np.ndarray:
    """Each text's position in Codec, or -1 if it names no codec."""
    return np.fromiter(map(CODEC_INDEX.get, texts, itertools.repeat(-1)), dtype=np.intp, count=len(texts))


def parse_cdr_csv(block: CsvBlock, first_line: int) -> tuple[CdrTable, list[RejectedRow]]:
    """Parse a block of CDR rows, the first on line ``first_line``, into
    the table of its accepted rows and its rejects.

    Every data row becomes exactly one table row or one RejectedRow, in
    file order; ``line_no`` counts the block's blank rows too.  Each check
    runs on a whole column, and a row keeps the first one it fails, in
    this order: the field count, the codec, the conversion of each field
    in column order, negative packet counts, a fully empty flow,
    inconsistent jitter (negative, or max below average), and an
    R-factor outside [0, r_max] for the row's codec.
    """
    width = len(CDR_COLUMNS)
    fields = block.fields[block.fields > 0]  # blank rows are skipped
    failed: dict[int, tuple[RejectReason, str]] = {}  # row -> its first failed check

    def fail(row: int, reason: RejectReason, detail: str) -> None:
        failed.setdefault(row, (reason, detail))

    for row in np.flatnonzero(fields != width).tolist():
        fail(row, RejectReason.BAD_FIELD, f"expected {width} fields, got {fields[row]}")
    flow_id, codec_text, tx_text, rx_text, avg_text, max_text, r_text = block.columns
    code = codec_codes(codec_text)
    for row in np.flatnonzero(code < 0).tolist():
        fail(row, RejectReason.UNSUPPORTED_CODEC, f"codec {codec_text[row]!r}")
    tx = _int_column(tx_text, "tx_packets", fail)
    rx = _int_column(rx_text, "rx_packets", fail)
    avg = _float_column(avg_text, "avg_jitter_ms", fail)
    max_j = _float_column(max_text, "max_jitter_ms", fail)
    r_factor = _float_column(r_text, "r_factor", fail, optional=True)
    rules = (
        (RejectReason.NEGATIVE_COUNT, (tx < 0) | (rx < 0)),
        (RejectReason.EMPTY_FLOW, (tx == 0) & (rx == 0)),
        (RejectReason.INCONSISTENT_JITTER, (avg < 0) | (max_j < avg)),
        # An absent r_factor is NaN, which no comparison selects.
        (RejectReason.R_OUT_OF_RANGE, (r_factor < 0.0) | (r_factor > CODEC_R_MAX[code])),
    )
    for reason, broken in rules:
        for row in np.flatnonzero(broken).tolist():
            fail(row, reason, reason.value)

    lines = np.flatnonzero(block.fields)  # each row's place in the block
    rejects = [
        RejectedRow(first_line + int(lines[row]), reason, detail) for row, (reason, detail) in sorted(failed.items())
    ]
    keep = np.ones(len(fields), dtype=bool)
    keep[list(failed)] = False
    # Counts are narrowed again after the selection: a count beyond int64
    # in a rejected row must not make the column an object array.
    return CdrTable(
        np.array(flow_id, dtype=object)[keep],
        np.array(_CODECS, dtype=object)[code[keep]],
        _counts(tx[keep]),
        _counts(rx[keep]),
        avg[keep],
        max_j[keep],
        r_factor[keep],
    ), rejects


_Fail = Callable[[int, RejectReason, str], None]


def _int_column(texts: Sequence[str], name: str, fail: _Fail) -> np.ndarray:
    """The integers in ``texts``; a text that is not one reads as 0 and
    fails its row as a BAD_FIELD."""
    # Plain decimals convert at once; any other text, such as a sign,
    # spaces or a typo, converts or fails on its own.
    odd = [row for row, text in enumerate(texts) if not text.isdecimal()]
    values = list(texts)
    for row in odd:
        values[row] = "0"
    try:
        values = list(map(int, values))
    except ValueError:  # a decimal beyond int()'s digit limit
        odd, values = range(len(texts)), [0] * len(texts)
    for row in odd:
        try:
            values[row] = parse_int(texts[row], name)
        except ValueError as exc:
            fail(row, RejectReason.BAD_FIELD, str(exc))
    return _counts(values)


def _float_column(texts: Sequence[str], name: str, fail: _Fail, optional: bool = False) -> np.ndarray:
    """The finite numbers in ``texts`` as float64; a text that is not one
    fails its row as a BAD_FIELD.  With ``optional``, an empty text is an
    absent value and reads as NaN."""
    values, bad = finite_floats([text or "nan" for text in texts] if optional else texts)
    for row in bad:
        text = texts[row]
        if text or not optional:
            fail(row, RejectReason.BAD_FIELD, f"{name}: {finite_number(text)[1]}: {text!r}")
    return values


def finite_floats(texts: Sequence[str]) -> tuple[np.ndarray, list[int]]:
    """``float()`` of each text as float64, and the indices of the texts
    that are not finite numbers (NaN or infinite in the array)."""
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:
        values = np.array([_float_or_nan(text) for text in texts], dtype=float)
    return values, np.flatnonzero(~np.isfinite(values)).tolist()


# Not finite_number: no fault is needed, and plain float() is faster.
def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


# A row's seven CDR fields.  Floats take their shortest round-trip form
# (``%s`` of a float is its repr), so an absent r_factor can be "" and a
# float column can also be given as its text.
_CDR_LINE = "%s,%s,%d,%d,%s,%s,%s"


def _needs_quotes(text: str) -> bool:
    """Whether a field holding ``text`` needs quotes: it holds a comma, a
    double quote, CR or LF.  csv.writer before Python 3.13 leaves a CR
    bare, and a reader then splits the row there.  Four scans in C are
    faster than one regex search."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def cdr_lines(table: CdrTable, *scores: np.ndarray) -> str:
    """The CSV lines of the table's rows, each row followed by its value of
    each score column with 6 significant digits (``-0`` as ``0``).

    The rows share one ``%`` format.  A flow id that holds a comma, a
    quote, CR or LF is quoted, its quotes doubled; no other field needs
    quoting.
    """
    flow_id = table.flow_id.tolist()
    if _needs_quotes("".join(flow_id)):
        flow_id = ['"' + s.replace('"', '""') + '"' if _needs_quotes(s) else s for s in flow_id]
    codec = np.empty(len(table), dtype=object)
    for member in Codec:
        codec[table.codec == member] = member.value
    r_factor = table.r_factor.tolist()
    # NaN, an absent r_factor, is the one value unequal to itself; text is never.
    for row in np.flatnonzero(table.r_factor != table.r_factor).tolist():
        r_factor[row] = ""
    columns = (
        flow_id, codec.tolist(), *(getattr(table, name).tolist() for name in CDR_COLUMNS[2:6]), r_factor,
        *((score + 0.0).tolist() for score in scores),  # + 0.0 turns -0.0 into 0.0
    )
    line = _CDR_LINE + ",%.6g" * len(scores) + "\n"
    return line * len(table) % tuple(itertools.chain.from_iterable(zip(*columns)))


def write_cdr_csv(table: CdrTable, stream: IO[str]) -> None:
    """Write a table's rows in the CDR schema, without the header,
    ``CHUNK_ROWS`` rows at a time; parsing the header and the rows
    reproduces the table's rows exactly."""
    for start in range(0, len(table), CHUNK_ROWS):
        stream.write(cdr_lines(table.take(slice(start, start + CHUNK_ROWS))))

