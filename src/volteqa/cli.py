"""Command-line front end: score, simulate, fit, and report subcommands.

Each command is deterministic given its inputs, config, and seed; data
goes to the declared output files and diagnostics go to stderr.  Derived
floats are formatted with 6 significant digits so outputs are stable
across platforms.  A command opens every output before it writes any:
an error then removes them all, and a failed command leaves none.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import stat
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from volteqa import __version__
from volteqa.analytics import (
    MAX_BINS,
    BinnedSeries,
    FitResult,
    bin_series,
    fit_exponential,
    fit_linear,
    surface_grid,
    uniform_edges,
)
from volteqa.emodel import DEFAULT_PROFILES, CodecProfile, compute_r_factor, load_profiles
from volteqa.ingest import (
    CDR_COLUMNS,
    CHUNK_ROWS,
    CODEC_INDEX,
    CODEC_R_MAX,
    CdrTable,
    Codec,
    CsvBlock,
    RejectedRow,
    RejectReason,
    SchemaError,
    cdr_blocks,
    cdr_lines,
    codec_codes,
    csv_blocks,
    finite_floats,
    finite_number,
    parse_cdr_csv,
    write_cdr_csv,
)
from volteqa.jitter_buffer import effective_loss
from volteqa.simulate import GENERATOR_NAME, load_sim_config, synthesize_dataset
from volteqa.worker import shared

SCORED_COLUMNS = CDR_COLUMNS + ("p_loss", "mos", "r_factor_computed")

T = TypeVar("T")


class CliError(Exception):
    """Fatal command error with a stable diagnostic code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def format_g6(value: float) -> str:
    """Fixed 6-significant-digit rendering for derived floats."""
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.6g}"


def round_g6(value: float) -> float:
    return float(format_g6(value))


def repr_g6_column(column: np.ndarray) -> np.ndarray:
    """``repr(round_g6(v))`` of each value, ``""`` for NaN, as str objects,
    from one ``%.6g`` pass.  Its text is that repr but where it is integral
    (``.0`` is added), from 1e6 to 1e16 (exponent form) or subnormal (a
    shorter form): zeros are set at once, and the other cells within
    rounding of an integer (all from 5e4 on) or below 2.3e-308 redone."""
    column = column + 0.0  # turns -0.0 into 0.0
    texts = np.array(("%.6g," * len(column) % tuple(column.tolist())).split(",")[:-1], dtype=object)
    size = np.abs(column)
    with np.errstate(invalid="ignore"):  # inf - inf
        redo = (size != 0) & ((size < 2.3e-308) | (np.abs(column - np.rint(column)) <= 1e-5 * size))
    texts[redo] = [repr(float(text)) for text in texts[redo].tolist()]
    texts[size == 0] = "0.0"
    texts[np.isnan(column)] = ""
    return texts


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise CliError("BAD_RANGE", f"{flag} must be LO:HI, got {text!r}")
    (lo, lo_fault), (hi, hi_fault) = finite_number(lo_text), finite_number(hi_text)
    if "not a number" in (lo_fault, hi_fault):
        raise CliError("BAD_RANGE", f"{flag} must be numeric LO:HI, got {text!r}")
    if lo_fault or hi_fault:
        raise CliError("BAD_RANGE", f"{flag} needs finite bounds, got {text!r}")
    if not hi > lo:
        raise CliError("BAD_RANGE", f"{flag} needs HI > LO, got {text!r}")
    return lo, hi


def _bin_count(bins: int, flag: str) -> int:
    if bins < 1:
        raise CliError("BAD_BINS", f"{flag} must be >= 1, got {bins}")
    if bins > MAX_BINS:
        raise CliError("BAD_BINS", f"{flag} must be <= {MAX_BINS}, got {bins}")
    return bins


def _check_edges(bins: int, lo: float, hi: float, bins_flag: str, range_flag: str) -> None:
    """End the command unless ``bins`` uniform bins split [lo, hi] into
    distinct edges that can be allocated."""
    try:
        uniform_edges(bins, lo, hi)
    except ValueError as exc:
        raise CliError("BAD_RANGE", f"{range_flag}: {exc}") from None
    except MemoryError:
        raise CliError("BAD_BINS", f"{bins_flag}: too many bins to allocate: {bins}") from None


def _codec_filter(name: str) -> Codec | None:
    if name == "all":
        return None
    return Codec(name)


@contextlib.contextmanager
def _open(path: str | Path, kind: str) -> Iterator[IO[str]]:
    """Open the command's ``kind`` file (INPUT, CONFIG or OUTPUT) as UTF-8
    text; OUTPUT is opened for writing.

    A file that cannot be opened, and input that is not UTF-8 text or not
    CSV, end the command with a CliError that names the file.  An output
    file whose writing an error cuts short is removed.
    """
    # A config keeps universal newlines: simulate hashes its text into the meta.
    try:
        handle = open(
            path, "w" if kind == "OUTPUT" else "r", encoding="utf-8",
            newline=None if kind == "CONFIG" else "",
        )
    except OSError as exc:
        if kind == "OUTPUT":
            raise CliError("OUTPUT_UNWRITABLE", f"cannot write {path}: {exc.strerror}") from None
        if isinstance(exc, FileNotFoundError):
            raise CliError(f"{kind}_NOT_FOUND", f"{kind.lower()} file not found: {path}") from None
        raise CliError(f"{kind}_UNREADABLE", f"cannot read {path}: {exc.strerror}") from None
    regular = kind == "OUTPUT" and stat.S_ISREG(os.fstat(handle.fileno()).st_mode)  # not a device or pipe
    try:
        with handle:
            yield handle
    except BaseException as exc:
        if regular:
            Path(path).unlink(missing_ok=True)
        # Only the file being read names itself in its decoding and CSV
        # errors: an output opened while reading must not take them over.
        if kind != "OUTPUT" and isinstance(exc, (UnicodeDecodeError, csv.Error)):
            raise CliError("CONFIG" if kind == "CONFIG" else "SCHEMA", f"{path}: {exc}") from None
        raise


def _check_writable(path: Path, **others: str | Path | None) -> None:
    """End the command if ``path`` has no file name (``.``, ``''`` or
    ``/``) or names another of its files, one it reads or one it writes
    before ``path``; ``others`` gives each by its role, such as
    ``input=args.input``, or None if the command has no such file.

    Two paths that exist name one file when they are one regular file; a
    path yet to be made names the file its resolved path names."""
    if not path.name:  # a directory, and no name to put a sidecar's suffix on
        raise CliError("OUTPUT_UNWRITABLE", f"cannot write {path}: it names a directory")
    for role, other in others.items():
        if other is None:
            continue
        if os.path.exists(path) and os.path.exists(other):
            same = path.is_file() and path.samefile(other)  # a device or pipe is no file to keep
        else:
            same = path.resolve() == Path(other).resolve()
        if same:
            raise CliError("OUTPUT_UNWRITABLE", f"cannot write {path}: it is the {role} file")


def _load_config(path: str, load: Callable[[str], T]) -> tuple[str, T]:
    """The text of a config file and what ``load`` makes of it."""
    with _open(path, "CONFIG") as handle:
        text = handle.read()
    try:
        return text, load(text)
    except (ValueError, configparser.Error) as exc:
        raise CliError("CONFIG", str(exc)) from None


def cmd_score(args: argparse.Namespace) -> int:
    profiles = DEFAULT_PROFILES if args.config is None else _load_config(args.config, load_profiles)[1]
    wanted = _codec_filter(args.codec)
    output = Path(args.output)
    counts = [0] * len(Codec)
    rejects: list[RejectedRow] = []
    with _open(args.input, "INPUT") as source:
        try:
            blocks = cdr_blocks(source)
        except SchemaError as exc:
            raise CliError("SCHEMA", str(exc)) from None
        _check_writable(output, input=args.input, config=args.config)
        summary_path = Path(args.summary) if args.summary else output.with_suffix(output.suffix + ".summary.json")
        _check_writable(summary_path, input=args.input, config=args.config, output=output)
        with _open(output, "OUTPUT") as sink, _open(summary_path, "OUTPUT") as summary:
            sink.write(",".join(SCORED_COLUMNS) + "\n")

            def make(job: tuple[int, CsvBlock]) -> tuple[str, list[int], list[tuple[int, str, str]]]:
                return _score_block(job[1], job[0], wanted, profiles)

            def worker_jobs() -> Iterator[tuple[int, CsvBlock]]:
                with _own_stream(source.fileno()) as own:
                    yield from cdr_blocks(own)

            # One pass: each block is parsed, scored and written before the
            # next is read, so only the counts and the rejects outlive it.
            # Once two blocks are read, the worker may score every other
            # block of a regular file; the command still reads every block.
            ahead = list(itertools.islice(blocks, 2))
            fork = len(ahead) == 2 and stat.S_ISREG(os.fstat(source.fileno()).st_mode)  # a pipe's data cannot be read twice

            def jobs() -> Iterator[tuple[int, CsvBlock]]:
                while ahead:  # each block read ahead is let go once it is handed on
                    yield ahead.pop(0)
                yield from blocks

            with contextlib.closing(shared(jobs(), make, worker_jobs if fork else None)) as made:
                for text, block_counts, rows in made:
                    rejects += [RejectedRow(n, _REASONS[r], d) for n, r, d in rows]
                    counts = [total + n for total, n in zip(counts, block_counts)]
                    sink.write(text)
            summarize_dataset(dict(zip(Codec, counts)), rejects, summary)
    return 0


def _score_block(
    block: CsvBlock, first_line: int, wanted: Codec | None, profiles: dict[Codec, CodecProfile],
) -> tuple[str, list[int], list[tuple[int, str, str]]]:
    """The scored CSV lines of a block of CDR rows, the first on line
    ``first_line``, that are of codec ``wanted`` (any, if None), their
    count for each codec of Codec, and the block's rejects as (line_no,
    reason, detail) tuples."""
    table, rejects = parse_cdr_csv(block, first_line)
    if wanted is not None:
        table = table.take(table.codec == wanted)
    rows = [(row.line_no, row.reason.value, row.detail) for row in rejects]
    return cdr_lines(table, *_score_records(table, profiles)), list(table.codec_counts().values()), rows


# Each reject reason by its value.
_REASONS = {reason.value: reason for reason in RejectReason}


def _own_stream(fd: int) -> IO[str]:
    """The file open on ``fd`` as a text stream from its start, as
    ``_open`` reads an input, on an open file description of its own: not
    the path, which may name another file by now, nor the descriptor,
    whose offset the command's reads move."""
    return open(f"/proc/self/fd/{fd}", encoding="utf-8", newline="")


# A reject row of the summary as json.dumps(indent=2, sort_keys=True) lays
# it out at its depth.
_REJECT_ROW = '      {\n        "detail": %s,\n        "line_no": %d,\n        "reason": %s\n      }'


def summarize_dataset(counts: Mapping[Codec, int], rejects: Sequence[RejectedRow], stream: IO[str]) -> None:
    """Write the summary of a scored CDR file as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would: the flow count and ``round_g6`` share
    of each codec with flows, and the rejected rows in file order with
    their count by reason.  The rows are formatted from a template straight
    from the RejectedRows, ``CHUNK_ROWS`` at a time: only their strings go
    through json.dumps, whose string encoder is in C."""
    total = sum(counts.values())
    present = [codec for codec in Codec if counts.get(codec)]
    reasons = Counter(row.reason for row in rejects)
    head, _, tail = json.dumps({
        "total_flows": total,
        "per_codec_counts": {codec.value: counts[codec] for codec in present},
        "per_codec_shares": {codec.value: round_g6(counts[codec] / total) for codec in present},
        "rejected": {
            "total": len(rejects),
            "by_reason": {r.value: reasons[r] for r in RejectReason if reasons[r]},
            "rows": [],
        },
    }, indent=2, sort_keys=True).partition('"rows": []')
    stream.write(head + '"rows": [')
    for start in range(0, len(rejects), CHUNK_ROWS):
        stream.write((",\n" if start else "\n") + ",\n".join(
            _REJECT_ROW % (json.dumps(row.detail), row.line_no, json.dumps(row.reason.value))
            for row in rejects[start:start + CHUNK_ROWS]
        ))
    stream.write(("\n    ]" if rejects else "]") + tail + "\n")


def _score_records(table: CdrTable, profiles: dict[Codec, CodecProfile]) -> tuple[np.ndarray, ...]:
    """Each row's effective loss, MOS and R-factor, scored one codec at a time."""
    # CDR rows carry no per-packet timing, so late packets cannot be told
    # apart from on-time ones: only network loss counts.
    p_loss = effective_loss(np.maximum(table.tx_packets - table.rx_packets, 0), 0, table.rx_packets)
    mos, r_factor = np.empty((2, len(table)))
    for codec in Codec:
        rows = table.codec == codec
        if rows.any():
            # Counts alone say nothing about burstiness: assume random loss.
            score = compute_r_factor(profiles[codec], 100.0 * p_loss[rows])
            mos[rows] = score.mos
            r_factor[rows] = score.r_factor
    return p_loss, mos, r_factor


def _write_json(handle: IO[str], doc: dict) -> None:
    handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    def load(text: str):
        spec, profiles = load_sim_config(text)
        return (spec if args.seed is None else dataclasses.replace(spec, seed=args.seed)), profiles

    timestamp = _timestamp()  # before any output, which a bad SOURCE_DATE_EPOCH would leave behind
    config_text, (spec, profiles) = _load_config(args.config, load)

    output = Path(args.output)
    _check_writable(output, config=args.config)
    meta_path = Path(args.meta) if args.meta else output.with_suffix(output.suffix + ".meta.json")
    _check_writable(meta_path, config=args.config, output=output)

    # Each chunk is written as synthesize_dataset makes it.
    with _open(output, "OUTPUT") as handle, _open(meta_path, "OUTPUT") as meta:
        def write(table: CdrTable) -> None:
            write_cdr_csv(dataclasses.replace(table, **{
                name: repr_g6_column(getattr(table, name)) for name in ("avg_jitter_ms", "max_jitter_ms", "r_factor")
            }), handle)

        handle.write(",".join(CDR_COLUMNS) + "\n")
        try:
            flows_written, rejected = synthesize_dataset(spec, profiles, write)
        except MemoryError:
            raise CliError("CONFIG", f"packets_per_flow: too large to simulate: {spec.packets_per_flow}") from None

        import hashlib  # here, not at the top: OpenSSL loads on no command's path but simulate's
        _write_json(meta, {
            "command": "simulate",
            "tool_version": __version__,
            "generator": GENERATOR_NAME,
            "seed": spec.seed,
            "spec_sha256": spec.digest(),
            "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
            "flows_written": flows_written,
            "flows_rejected": len(rejected),
            "rejected": [{"flow_id": r.flow_id, "reason": r.reason} for r in rejected],
            "timestamp": timestamp,
        })
    return 0


def _timestamp() -> str:
    """The time of the run, or the one that SOURCE_DATE_EPOCH pins (whole
    seconds since 1970, UTC) so that whole runs can be diffed."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return datetime.now(timezone.utc).isoformat()
    try:
        if epoch.isascii() and epoch.isdigit():
            return datetime.fromtimestamp(int(epoch), timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):  # beyond the years datetime can hold
        pass
    raise CliError("CONFIG", f"SOURCE_DATE_EPOCH must be whole seconds since 1970, got {epoch!r}")


def _read_samples(path: str, wanted: Codec | None, columns: tuple[str, ...]) -> dict[Codec, np.ndarray]:
    """Read a scored CSV as per-codec samples in file order: one float64
    row per CSV row, holding the named columns and then its quality.

    Quality is the measured r_factor when present, otherwise the
    recomputed r_factor_computed.  Cells are read by column index, as
    ``csv.DictReader`` would: the last of repeated header names counts, a
    blank row is skipped and a short row's missing cells are empty.  Rows
    of codecs other than ``wanted`` are left out.  Rows with an unknown
    codec, with an empty, non-numeric or non-finite cell, or with a
    quality outside [0, r_max] of its codec are skipped, and one line on
    stderr counts them by the first such cell of each.
    numpy's C text reader reads a block of plain lines; a block it refuses
    is split into cells and read cell by cell.

    Each block of ``csv_blocks`` is a job of ``volteqa.worker.shared``,
    keyed by its index.  A regular file of at least ``_SPLIT_BYTES`` is
    shared with the worker, which reads the same blocks on a stream of its
    own and makes every other one.
    """
    groups = {codec: bytearray() for codec in Codec}  # each codec's float64 samples
    skipped: Counter[str] = Counter()
    with _open(path, "INPUT") as handle:
        header, blocks = csv_blocks(handle)
        index = {name: i for i, name in enumerate(header or ())}
        missing = {"codec", *columns} - set(index)
        if missing:
            raise CliError(
                "SCHEMA", f"scored CSV is missing columns: {', '.join(sorted(missing))}"
            )
        quality = [c for c in ("r_factor", "r_factor_computed") if c in index]
        if not quality:
            raise CliError("SCHEMA", "scored CSV needs an r_factor or r_factor_computed column")
        read = [index[c] for c in ("codec", *columns, *quality)]

        def make(job: tuple[int, CsvBlock]) -> tuple[list[np.ndarray], dict[str, int]]:
            """The samples of the block's rows as one array (bytes, when
            sent) per codec of Codec, and their skips."""
            block = job[1]
            code, samples, failed = (
                _loadtxt_samples(block.lines, read[: len(columns) + 2]) or _cell_samples(block, read, columns, quality)
            )
            skips: Counter[str] = Counter()
            unknown = int(np.count_nonzero(code < 0))
            if unknown:
                skips["unknown codec"] += unknown
            kept = code >= 0 if wanted is None else code == CODEC_INDEX[wanted.value]
            skips.update(reason for row, reason in failed.items() if kept[row])
            kept[list(failed)] = False
            return [samples[kept & (code == i)] for i in range(len(Codec))], dict(skips)

        def worker_jobs() -> Iterator[tuple[int, CsvBlock]]:
            with _own_stream(handle.fileno()) as own:
                yield from enumerate(csv_blocks(own)[1])

        info = os.fstat(handle.fileno())
        fork = stat.S_ISREG(info.st_mode) and info.st_size >= _SPLIT_BYTES  # a pipe's data cannot be read twice
        # Each block's samples go onto one buffer per codec, so no array of a
        # block outlives it among the heap chunks of the lines read after it.
        with contextlib.closing(shared(enumerate(blocks), make, worker_jobs if fork else None)) as made:
            for parts, block_skips in made:
                for codec, part in zip(Codec, parts):
                    groups[codec].extend(part)
                skipped.update(block_skips)
    if skipped:
        reasons = ", ".join(f"{reason}={n}" for reason, n in sorted(skipped.items()))
        print(f"warning: {path}: skipped rows: {reasons}", file=sys.stderr)
    return {codec: np.frombuffer(data).reshape(-1, len(columns) + 1) for codec, data in groups.items() if data}


# The smallest input file that _read_samples shares with a worker.  A fork
# costs the command 1,000 or so copy-on-write page faults besides the fork
# and the reaping.  fit --raw-points plus report on the head of a 100k-row
# scored file, forking at any size against never, in-process medians of 25
# alternating runs on a shared two-CPU host: 0.66 MB 37.5 against 20.1 ms,
# 1.49 MB 49.7 against 41.1 ms, 2.23 MB 55.9 against 59.3 ms (the fork
# faster in 6 of 25 runs), 2.97 MB 72.3 against 76.7 ms (22 of 25), 3.50 MB
# 98.1 against 106.0 ms (19 of 25); the whole 6.99 MB file 171.5 against
# 180.5 ms (19 of 25).
_SPLIT_BYTES = 3 << 20


# One character longer than the longest codec name: a longer cell is cut
# to a text that names no codec.
_CODEC_CELL = f"U{max(map(len, CODEC_INDEX)) + 1}"


def _loadtxt_samples(
    lines: list[str] | None, usecols: list[int],
) -> tuple[np.ndarray, np.ndarray, dict[int, str]] | None:
    """The codec index and sample of every row of a block of plain
    ``lines`` and no failed row, read by ``np.loadtxt`` from the codec
    cell, the named columns and the first quality column in ``usecols``.

    None when there are no lines, or only blank ones (of which loadtxt
    warns), and when loadtxt refuses a row or reads a value that is not
    finite: a short row, a blank, padded-blank or non-numeric cell
    (``1_000`` and non-ASCII digits among them), NaN or infinity; and
    when a quality lies off its codec's R scale.  The cell-by-cell reader
    then substitutes a blank quality and counts each bad cell by reason.
    Numbers convert as ``float()`` converts them.
    """
    if not lines or lines.count("\n") == len(lines):
        return None
    dtype = [("codec", _CODEC_CELL)] + [(f"v{i}", np.float64) for i in range(len(usecols) - 1)]
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)
    except ValueError:
        return None
    samples = np.column_stack([rows[name] for name, _ in dtype[1:]])
    if not np.isfinite(samples).all():
        return None
    code = np.full(len(rows), -1, dtype=np.intp)
    for text, index in CODEC_INDEX.items():
        code[rows["codec"] == text] = index
    if ((samples[:, -1] < 0.0) | (samples[:, -1] > CODEC_R_MAX[code])).any():
        return None
    return code, samples, {}


def _cell_samples(
    block: CsvBlock, read: list[int], columns: tuple[str, ...], quality: list[str],
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """The codec index and sample of every row of a block, read from its
    cells, and the reason of each row's first bad cell."""
    codec_cells, *cells = [block.columns[i] for i in read]
    # The recomputed quality stands in where the measured one is blank: an
    # empty cell here, so count-only input converts at once, and spaces below.
    value_cells, measured, computed = cells[: len(columns)], cells[len(columns)], cells[-1]
    quality_cells = [m or c for m, c in zip(measured, computed)] if len(quality) == 2 else measured
    values: list[np.ndarray] = []
    failed: dict[int, str] = {}  # row -> the reason of its first bad cell
    for name, texts in zip((*columns, None), (*value_cells, quality_cells)):
        column, bad = finite_floats(texts)
        values.append(column)
        # float() ignores surrounding whitespace except \x1c-\x1f, which
        # strip() removes: only cells that fail are stripped and read again.
        for row in bad:
            cell, cell_name = texts[row].strip(), name
            if name is None:
                cell, cell_name = measured[row].strip(), quality[0]
                if not cell:
                    cell, cell_name = computed[row].strip(), quality[-1]
            column[row], fault = finite_number(cell) if cell else (math.nan, "empty")
            if fault:
                failed.setdefault(row, f"{cell_name} {fault}")
    code = codec_codes(codec_cells)
    # A failed quality is NaN, which no comparison selects.
    for row in np.flatnonzero((values[-1] < 0.0) | (values[-1] > CODEC_R_MAX[code])).tolist():
        failed.setdefault(row, f"{quality[0] if measured[row].strip() else quality[-1]} out of range")
    return code, np.column_stack(values), failed


def _write_bins_csv(handle: IO[str], labelled: list[tuple[str, BinnedSeries]]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(
        ["codec", "bin_index", "p_loss_lo", "p_loss_hi", "count",
         "p_loss_median", "r_mean", "r_std"]
    )
    for label, series in labelled:
        edges = series.edges
        stats = zip(series.counts, series.median_x, series.mean_y, series.std_y)
        for index, (count, *values) in enumerate(stats):
            writer.writerow(
                [
                    label,
                    index,
                    format_g6(edges[index]),
                    format_g6(edges[index + 1]),
                    count,
                    *("" if v is None else format_g6(v) for v in values),
                ]
            )


def cmd_fit(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range, "--range")
    bins = _bin_count(args.bins, "--bins")
    _check_edges(bins, lo, hi, "--bins", "--range")
    output = Path(args.output)
    _check_writable(output, input=args.input)
    bins_path = Path(args.bins_output) if args.bins_output else output.with_suffix(".bins.csv")
    _check_writable(bins_path, input=args.input, output=output)
    groups = _read_samples(args.input, _codec_filter(args.codec), ("p_loss",))

    doc: dict = {"bins": bins, "range": [lo, hi], "codecs": {}}
    labelled_series: list[tuple[str, BinnedSeries]] = []
    for codec, points in groups.items():
        try:
            series = bin_series(points, bins=bins, lo=lo, hi=hi)
        except MemoryError:
            raise CliError("BAD_BINS", f"--bins: too many bins to allocate: {bins}") from None
        labelled_series.append((codec.value, series))
        binned_points = fit_points = series.points()
        if args.raw_points:
            # The rows the bins count: _cells places exactly those in [lo, hi].
            fit_points = points[(points[:, 0] >= lo) & (points[:, 0] <= hi)]

        fits: dict[str, dict] = {}
        for model, fit_model in (("exponential", fit_exponential), ("linear", fit_linear)):
            if args.model == "both" or model.startswith(args.model):
                try:
                    fits[model] = _fit_doc(fit_model(fit_points))
                except ValueError as exc:
                    raise CliError("FIT", f"{model} fit for {codec.value}: {exc}") from None

        doc["codecs"][codec.value] = {
            "points": [[round_g6(x), round_g6(y)] for x, y in binned_points],
            "raw_point_count": len(points),
            "fits": fits,
        }
        if args.raw_points:
            doc["codecs"][codec.value]["raw_points_out_of_range"] = series.out_of_range

    with _open(output, "OUTPUT") as handle, _open(bins_path, "OUTPUT") as bins_handle:
        _write_json(handle, doc)
        _write_bins_csv(bins_handle, labelled_series)
    return 0


def _fit_doc(fit: FitResult) -> dict:
    doc = {
        "model": fit.model,
        "params": {k: round_g6(v) for k, v in fit.params.items()},
        "r_squared": round_g6(fit.r_squared),
        "sse": round_g6(fit.residual_sse),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    if fit.model == "exponential":
        doc["k_se"] = None if fit.k_se is None else round_g6(fit.k_se)
    return doc


def cmd_report(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range, "--range")
    j_range = None if args.j_range is None else _parse_range(args.j_range, "--j-range")
    p_bins, j_bins = _bin_count(args.bins, "--bins"), _bin_count(args.j_bins, "--j-bins")
    cells = _bin_count(p_bins * j_bins, "--bins x --j-bins")
    _check_edges(p_bins, lo, hi, "--bins", "--range")
    # A range taken from the data is checked after the read; 0:1 stands in
    # for it here, so that edges too many to allocate end the command first.
    _check_edges(j_bins, *(j_range or (0.0, 1.0)), "--j-bins", "--j-range")
    _check_writable(Path(args.output), input=args.input)
    groups = _read_samples(args.input, _codec_filter(args.codec), ("p_loss", "max_jitter_ms"))
    # Cells aggregate sorted values, so sample order does not matter.  The
    # per-codec arrays are let go once they are joined.
    samples = np.concatenate([*groups.values(), np.empty((0, 3))])
    del groups

    if j_range is None:
        j_hi_data = float(samples[:, 1].max(initial=0.0))
        j_range = 0.0, j_hi_data if j_hi_data > 0 else 1.0
        _check_edges(j_bins, *j_range, "--j-bins", "--j-range default")
    try:
        grid = surface_grid(samples, p_bins=p_bins, p_range=(lo, hi), j_bins=j_bins, j_range=j_range)
    except MemoryError:
        raise CliError("BAD_BINS", f"--bins x --j-bins: too many cells to allocate: {cells}") from None

    with _open(args.output, "OUTPUT") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["p_loss_bin", "j_max_bin", "mean_r", "count"])
        p_edges, j_edges = grid.p_edges, grid.j_edges
        for i in range(len(p_edges) - 1):
            p_center = (p_edges[i] + p_edges[i + 1]) / 2.0
            for k in range(len(j_edges) - 1):
                j_center = (j_edges[k] + j_edges[k + 1]) / 2.0
                mean = grid.mean_r[i][k]
                writer.writerow(
                    [
                        format_g6(p_center),
                        format_g6(j_center),
                        "" if mean is None else format_g6(mean),
                        grid.counts[i][k],
                    ]
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volteqa",
        description="VoLTE call-quality analytics: score CDRs, simulate datasets, "
        "fit quality-versus-loss curves, and export surface grids.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    codecs = [codec.value for codec in Codec] + ["all"]  # the values of --codec

    score = sub.add_parser("score", help="Score a CDR CSV: append p_loss, MOS, R-factor")
    score.add_argument("--input", required=True, help="CDR CSV to score")
    score.add_argument("--output", required=True, help="Scored CSV output path")
    score.add_argument("--summary", help="Summary JSON path (default: <output>.summary.json)")
    score.add_argument("--config", help="Codec profile config file")
    score.add_argument("--codec", choices=codecs, default="all")
    score.set_defaults(handler=cmd_score)

    simulate = sub.add_parser("simulate", help="Generate a synthetic CDR dataset")
    simulate.add_argument("--config", required=True, help="Sim spec config file")
    simulate.add_argument("--output", required=True, help="Dataset CSV output path")
    simulate.add_argument("--meta", help="Metadata sidecar path (default: <output>.meta.json)")
    simulate.add_argument("--seed", type=int, help="Override the config seed")
    simulate.set_defaults(handler=cmd_simulate)

    fit = sub.add_parser("fit", help="Bin a scored CSV and fit quality-versus-loss models")
    fit.add_argument("--input", required=True, help="Scored CSV (needs p_loss and r_factor)")
    fit.add_argument("--output", required=True, help="Fit JSON output path")
    fit.add_argument(
        "--bins-output", help="Binned-series CSV path (default: <output> with its suffix replaced by .bins.csv)"
    )
    fit.add_argument("--model", choices=["exp", "linear", "both"], default="both")
    fit.add_argument("--codec", choices=codecs, default="all")
    fit.add_argument("--bins", type=int, default=10, help="Number of uniform loss bins")
    fit.add_argument("--range", default="0:0.2", help="Loss range LO:HI for binning")
    fit.add_argument("--raw-points", action="store_true", help="Fit raw flows instead of bins")
    fit.set_defaults(handler=cmd_fit)

    report = sub.add_parser("report", help="Export a loss-by-jitter surface grid CSV")
    report.add_argument("--input", required=True, help="Scored CSV input path")
    report.add_argument("--output", required=True, help="Grid CSV output path")
    report.add_argument("--codec", choices=codecs, default="all")
    report.add_argument("--bins", type=int, default=10, help="Loss-axis bins")
    report.add_argument("--range", default="0:0.2", help="Loss range LO:HI")
    report.add_argument("--j-bins", type=int, default=10, help="Jitter-axis bins")
    report.add_argument("--j-range", help="Jitter range LO:HI (default: 0:max observed)")
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 0
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
