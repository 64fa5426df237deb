"""Command-line front end: score, simulate, fit, and report subcommands.

Each command is deterministic given its inputs, config, and seed; data
goes to the declared output files and diagnostics go to stderr.  Derived
floats are formatted with 6 significant digits so outputs are stable
across platforms.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import stat
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, TypeVar

import numpy as np

from volteqa import __version__
from volteqa.analytics import (
    MAX_BINS,
    MIN_EXPONENTIAL_POINTS,
    BinnedSeries,
    FitResult,
    bin_series,
    fit_exponential,
    fit_linear,
    surface_grid,
)
from volteqa.emodel import DEFAULT_PROFILES, CodecProfile, compute_r_factor, load_profiles
from volteqa.ingest import (
    CDR_COLUMNS,
    CODEC_INDEX,
    CdrTable,
    Codec,
    CsvBlock,
    RejectedRow,
    SchemaError,
    cdr_blocks,
    cdr_lines,
    codec_codes,
    csv_blocks,
    finite_floats,
    finite_number,
    parse_cdr_csv,
    summarize_dataset,
    write_cdr_csv,
)
from volteqa.jitter_buffer import effective_loss
from volteqa.simulate import GENERATOR_NAME, load_sim_config, synthesize_dataset

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


def round_g6_column(column: np.ndarray) -> np.ndarray:
    """``round_g6`` of each value, with one format for the whole column."""
    text = "%.6g," * len(column) % tuple((column + 0.0).tolist())  # + 0.0 turns -0.0 into 0.0
    return np.fromiter(map(float, text.split(",")[:-1]), dtype=float, count=len(column))


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
    counts: Counter[Codec] = Counter()
    rejects: list[RejectedRow] = []
    # One pass: each block is parsed, scored and written before the next
    # is read, so only the counts and the rejects outlive it.
    with _open(args.input, "INPUT") as source:
        try:
            blocks = cdr_blocks(source)
        except SchemaError as exc:
            raise CliError("SCHEMA", str(exc)) from None
        if output.is_file() and output.samefile(args.input):  # writing would truncate what is read
            raise CliError("OUTPUT_UNWRITABLE", f"cannot write {output}: it is the input file")
        with _open(output, "OUTPUT") as sink:
            sink.write(",".join(SCORED_COLUMNS) + "\n")
            for first_line, block in blocks:
                table, block_rejects = parse_cdr_csv(block, first_line)
                rejects += block_rejects
                if wanted is not None:
                    table = table.take(table.codec == wanted)
                counts.update(table.codec_counts())
                sink.write(cdr_lines(table, *_score_records(table, profiles)))

    summary = summarize_dataset(counts, rejects)
    summary["per_codec_shares"] = {k: round_g6(v) for k, v in summary["per_codec_shares"].items()}
    summary_path = Path(args.summary) if args.summary else output.with_suffix(output.suffix + ".summary.json")
    with _open(summary_path, "OUTPUT") as handle:
        handle.write(_summary_json(summary))
    return 0


# A reject row of the summary as json.dumps(indent=2, sort_keys=True) lays
# it out at its depth.
_REJECT_ROW = '      {\n        "detail": %s,\n        "line_no": %d,\n        "reason": %s\n      }'


def _summary_json(summary: dict) -> str:
    """``json.dumps(summary, indent=2, sort_keys=True) + "\\n"`` for a
    ``summarize_dataset`` document.  The reject rows are formatted from a
    template: only their strings go through json.dumps, whose string
    encoder is in C, and not its pure-Python indenting encoder."""
    rejected = summary["rejected"]
    text = json.dumps({**summary, "rejected": {**rejected, "rows": []}}, indent=2, sort_keys=True)
    if rejected["rows"]:
        rows = ",\n".join(
            _REJECT_ROW % (json.dumps(row["detail"]), row["line_no"], json.dumps(row["reason"]))
            for row in rejected["rows"]
        )
        text = text.replace('"rows": []', '"rows": [\n' + rows + "\n    ]")
    return text + "\n"


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


def _write_json(path: Path, doc: dict) -> None:
    with _open(path, "OUTPUT") as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    def load(text: str):
        spec, profiles = load_sim_config(text)
        return (spec if args.seed is None else dataclasses.replace(spec, seed=args.seed)), profiles

    timestamp = _timestamp()  # before any output, which a bad SOURCE_DATE_EPOCH would leave behind
    config_text, (spec, profiles) = _load_config(args.config, load)

    try:
        table, rejected = synthesize_dataset(spec, profiles)
    except MemoryError:
        raise CliError("CONFIG", f"packets_per_flow: too large to simulate: {spec.packets_per_flow}") from None
    rounded = dataclasses.replace(table, **{
        name: round_g6_column(getattr(table, name)) for name in ("avg_jitter_ms", "max_jitter_ms", "r_factor")
    })
    output = Path(args.output)
    with _open(output, "OUTPUT") as handle:
        write_cdr_csv(rounded, handle)

    manifest = {
        "command": "simulate",
        "tool_version": __version__,
        "generator": GENERATOR_NAME,
        "seed": spec.seed,
        "spec_sha256": spec.digest(),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "flows_written": len(rounded),
        "flows_rejected": len(rejected),
        "rejected": [{"flow_id": r.flow_id, "reason": r.reason} for r in rejected],
        "timestamp": timestamp,
    }
    meta_path = Path(args.meta) if args.meta else output.with_suffix(output.suffix + ".meta.json")
    _write_json(meta_path, manifest)
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
    codec or with an empty, non-numeric or non-finite cell are skipped,
    and one line on stderr counts them by the first such cell of each.
    """
    groups: dict[Codec, list[np.ndarray]] = {codec: [] for codec in Codec}
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
        for block in blocks:
            code, samples = _sample_chunk(block, read, columns, quality, wanted, skipped)
            for i, codec in enumerate(Codec):
                part = samples[code == i]
                if len(part):
                    groups[codec].append(part)
    if skipped:
        reasons = ", ".join(f"{reason}={n}" for reason, n in sorted(skipped.items()))
        print(f"warning: {path}: skipped rows: {reasons}", file=sys.stderr)
    return {codec: np.concatenate(parts) for codec, parts in groups.items() if parts}


def _sample_chunk(
    block: CsvBlock, read: list[int], columns: tuple[str, ...], quality: list[str],
    wanted: Codec | None, skipped: Counter[str],
) -> tuple[np.ndarray, np.ndarray]:
    """The codec index (position in Codec) and the sample of each kept row
    of a block; skipped rows are counted in ``skipped`` by reason.

    ``read`` holds the indices of the codec cell, of each named column and
    of each quality column.
    """
    codec_cells, *cells = [block.columns[i] for i in read]
    code = codec_codes(codec_cells)
    unknown = int(np.count_nonzero(code < 0))
    if unknown:
        skipped["unknown codec"] += unknown
    kept = code >= 0 if wanted is None else code == CODEC_INDEX[wanted.value]

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
    skipped.update(reason for row, reason in failed.items() if kept[row])
    kept[list(failed)] = False
    return code[kept], np.column_stack(values)[kept]


def _write_bins_csv(path: Path, labelled: list[tuple[str, BinnedSeries]]) -> None:
    with _open(path, "OUTPUT") as handle:
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
    groups = _read_samples(args.input, _codec_filter(args.codec), ("p_loss",))
    if args.weighted and args.raw_points:
        print("warning: --weighted is ignored with --raw-points: raw points are fitted unweighted",
              file=sys.stderr)

    doc: dict = {"bins": bins, "range": [lo, hi], "codecs": {}}
    labelled_series: list[tuple[str, BinnedSeries]] = []
    for codec, points in groups.items():
        try:
            series = bin_series(points, bins=bins, lo=lo, hi=hi)
        except ValueError as exc:  # a range too narrow to split into distinct edges
            raise CliError("BAD_RANGE", f"--range: {exc}") from None
        except MemoryError:
            raise CliError("BAD_BINS", f"--bins: too many bins to allocate: {bins}") from None
        labelled_series.append((codec.value, series))
        binned_points = series.points()
        weights = [n for n in series.counts if n > 0] if args.weighted else None
        fit_points = points if args.raw_points else binned_points
        fit_weights = None if args.raw_points else weights

        fits: dict[str, dict] = {}
        if args.model in ("exp", "both"):
            if len(binned_points) < MIN_EXPONENTIAL_POINTS:
                raise CliError(
                    "EXPLAINED_TOO_FEW_BINS",
                    f"exponential fit for {codec.value} needs >= {MIN_EXPONENTIAL_POINTS} "
                    f"non-empty bins, got {len(binned_points)}",
                )
            try:
                fits["exponential"] = _fit_doc(fit_exponential(fit_points, weights=fit_weights))
            except ValueError as exc:
                raise CliError("FIT", f"exponential fit for {codec.value}: {exc}") from None
        if args.model in ("linear", "both"):
            try:
                fits["linear"] = _fit_doc(fit_linear(fit_points, weights=fit_weights))
            except ValueError as exc:
                raise CliError("FIT", f"linear fit for {codec.value}: {exc}") from None

        doc["codecs"][codec.value] = {
            "points": [[round_g6(x), round_g6(y)] for x, y in binned_points],
            "raw_point_count": len(points),
            "fits": fits,
        }

    output = Path(args.output)
    _write_json(output, doc)
    bins_path = Path(args.bins_output) if args.bins_output else output.with_suffix(".bins.csv")
    _write_bins_csv(bins_path, labelled_series)
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
    p_bins, j_bins = _bin_count(args.bins, "--bins"), _bin_count(args.j_bins, "--j-bins")
    cells = _bin_count(p_bins * j_bins, "--bins x --j-bins")
    groups = _read_samples(args.input, _codec_filter(args.codec), ("p_loss", "max_jitter_ms"))
    # Cells aggregate sorted values, so sample order does not matter.  The
    # per-codec arrays are let go once they are joined.
    samples = np.concatenate([*groups.values(), np.empty((0, 3))])
    del groups

    if args.j_range is not None:
        j_lo, j_hi = _parse_range(args.j_range, "--j-range")
    else:
        j_hi_data = float(samples[:, 1].max(initial=0.0))
        j_lo, j_hi = 0.0, j_hi_data if j_hi_data > 0 else 1.0
    try:
        grid = surface_grid(samples, p_bins=p_bins, p_range=(lo, hi), j_bins=j_bins, j_range=(j_lo, j_hi))
    except ValueError as exc:  # a range too narrow to split into distinct edges
        raise CliError("BAD_RANGE", str(exc)) from None
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
    fit.add_argument("--bins-output", help="Binned-series CSV path (default: <output>.bins.csv)")
    fit.add_argument("--model", choices=["exp", "linear", "both"], default="both")
    fit.add_argument("--codec", choices=codecs, default="all")
    fit.add_argument("--bins", type=int, default=10, help="Number of uniform loss bins")
    fit.add_argument("--range", default="0:0.2", help="Loss range LO:HI for binning")
    fit.add_argument("--weighted", action="store_true", help="Weight bins by sample count")
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
