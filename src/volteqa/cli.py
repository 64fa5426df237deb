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
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, TypeVar

from volteqa import __version__
from volteqa.analytics import (
    BinnedSeries,
    GridSpec,
    bin_series,
    fit_exponential,
    fit_linear,
    surface_grid,
)
from volteqa.emodel import (
    DEFAULT_PROFILES,
    LossCharacter,
    compute_r_factor,
    load_profiles,
)
from volteqa.ingest import (
    CDR_COLUMNS,
    Codec,
    FlowRecord,
    SchemaError,
    cdr_row,
    parse_cdr_csv,
    summarize_dataset,
    summary_as_dict,
    write_cdr_csv,
)
from volteqa.simulate import GENERATOR_NAME, load_sim_config, synthesize_dataset

SCORED_COLUMNS = CDR_COLUMNS + ("p_loss", "mos", "r_factor_computed")

MIN_BINS_FOR_EXPONENTIAL = 4

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


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise CliError("BAD_RANGE", f"{flag} must be LO:HI, got {text!r}")
    try:
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise CliError("BAD_RANGE", f"{flag} must be numeric LO:HI, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError("BAD_RANGE", f"{flag} needs finite bounds, got {text!r}")
    if not hi > lo:
        raise CliError("BAD_RANGE", f"{flag} needs HI > LO, got {text!r}")
    return lo, hi


def _bin_count(bins: int, flag: str) -> int:
    if bins < 1:
        raise CliError("BAD_BINS", f"{flag} must be >= 1, got {bins}")
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
    CSV, end the command with a CliError that names the file.
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
    with handle:
        try:
            yield handle
        except (UnicodeDecodeError, csv.Error) as exc:
            raise CliError("CONFIG" if kind == "CONFIG" else "SCHEMA", f"{path}: {exc}") from None


def _load_config(path: str, load: Callable[[str], T]) -> tuple[str, T]:
    """The text of a config file and what ``load`` makes of it."""
    with _open(path, "CONFIG") as handle:
        text = handle.read()
    try:
        return text, load(text)
    except (ValueError, configparser.Error) as exc:
        raise CliError("CONFIG", str(exc)) from None


def cdr_p_loss(record: FlowRecord) -> float:
    """Effective loss estimated from packet counts alone.

    CDR rows carry no per-packet timing, so excessively delayed packets
    cannot be told apart from on-time ones here; the estimate is the
    network loss relative to received packets, clamped to [0, 1].
    """
    if record.rx_packets == 0:
        return 1.0
    lost = max(0, record.tx_packets - record.rx_packets)
    # Dividing only when the ratio is below 1 keeps huge counts from overflowing.
    return 1.0 if lost >= record.rx_packets else lost / record.rx_packets


def cmd_score(args: argparse.Namespace) -> int:
    profiles = DEFAULT_PROFILES if args.config is None else _load_config(args.config, load_profiles)[1]
    wanted = _codec_filter(args.codec)
    with _open(args.input, "INPUT") as handle:
        try:
            records, rejects = parse_cdr_csv(handle)
        except SchemaError as exc:
            raise CliError("SCHEMA", str(exc)) from None

    if wanted is not None:
        records = [r for r in records if r.codec is wanted]

    output = Path(args.output)
    with _open(output, "OUTPUT") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SCORED_COLUMNS)
        for record in records:
            p_loss = cdr_p_loss(record)
            # Counts alone say nothing about burstiness: assume random loss.
            character = LossCharacter(ppl=100.0 * p_loss, burst_r=1.0)
            score = compute_r_factor(profiles[record.codec], character)
            writer.writerow(
                [*cdr_row(record), format_g6(p_loss), format_g6(score.mos), format_g6(score.r_factor)]
            )

    summary = summarize_dataset(records, rejects)
    summary_doc = summary_as_dict(summary)
    summary_doc["per_codec_shares"] = {
        k: round_g6(v) for k, v in summary_doc["per_codec_shares"].items()
    }
    summary_doc["rejected"]["rows"] = [
        {"line_no": r.line_no, "reason": r.reason.value, "detail": r.detail} for r in rejects
    ]
    summary_path = Path(args.summary) if args.summary else output.with_suffix(output.suffix + ".summary.json")
    _write_json(summary_path, summary_doc)
    return 0


def _write_json(path: Path, doc: dict) -> None:
    with _open(path, "OUTPUT") as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    def load(text: str):
        spec, profiles = load_sim_config(text)
        return (spec if args.seed is None else dataclasses.replace(spec, seed=args.seed)), profiles

    config_text, (spec, profiles) = _load_config(args.config, load)

    records, rejected = synthesize_dataset(spec, profiles)
    rounded = [
        dataclasses.replace(
            record,
            avg_jitter_ms=round_g6(record.avg_jitter_ms),
            max_jitter_ms=round_g6(record.max_jitter_ms),
            r_factor=None if record.r_factor is None else round_g6(record.r_factor),
        )
        for record in records
    ]
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
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    meta_path = Path(args.meta) if args.meta else output.with_suffix(output.suffix + ".meta.json")
    _write_json(meta_path, manifest)
    return 0


def _read_samples(
    path: str, wanted: Codec | None, columns: tuple[str, ...]
) -> dict[Codec, list[tuple[float, ...]]]:
    """Read a scored CSV as per-codec samples in file order: the named
    columns of each row, then its quality.

    Quality is the measured r_factor when present, otherwise the
    recomputed r_factor_computed.  Rows of codecs other than ``wanted``
    are left out.  Rows with an unknown codec or with an empty,
    non-numeric or non-finite cell are skipped, and one line on stderr
    counts them by reason.
    """
    groups: dict[Codec, list[tuple[float, ...]]] = {}
    skipped: Counter[str] = Counter()
    with _open(path, "INPUT") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        missing = {"codec", *columns} - set(fields)
        if missing:
            raise CliError(
                "SCHEMA", f"scored CSV is missing columns: {', '.join(sorted(missing))}"
            )
        quality_columns = [c for c in ("r_factor", "r_factor_computed") if c in fields]
        if not quality_columns:
            raise CliError("SCHEMA", "scored CSV needs an r_factor or r_factor_computed column")
        for row in reader:
            try:
                codec = Codec(row["codec"])
            except ValueError:
                skipped["unknown codec"] += 1
                continue
            if wanted is not None and codec is not wanted:
                continue
            quality = next(
                (c for c in quality_columns if (row[c] or "").strip()), quality_columns[-1]
            )
            try:
                sample = tuple(_finite_cell(row, c) for c in (*columns, quality))
            except ValueError as exc:
                skipped[str(exc)] += 1
                continue
            groups.setdefault(codec, []).append(sample)
    if skipped:
        reasons = ", ".join(f"{reason}={n}" for reason, n in sorted(skipped.items()))
        print(f"warning: {path}: skipped rows: {reasons}", file=sys.stderr)
    return {codec: groups[codec] for codec in Codec if codec in groups}


def _finite_cell(row: dict[str, str | None], column: str) -> float:
    text = (row[column] or "").strip()
    if not text:
        raise ValueError(f"{column} empty")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{column} not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{column} not finite")
    return value


def _write_bins_csv(path: Path, labelled: list[tuple[str, BinnedSeries]]) -> None:
    with _open(path, "OUTPUT") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["codec", "bin_index", "p_loss_lo", "p_loss_hi", "count",
             "p_loss_median", "r_mean", "r_std"]
        )
        for label, series in labelled:
            for index, b in enumerate(series.bins):
                writer.writerow(
                    [
                        label,
                        index,
                        format_g6(b.lo),
                        format_g6(b.hi),
                        b.count,
                        "" if b.median_x is None else format_g6(b.median_x),
                        "" if b.mean_y is None else format_g6(b.mean_y),
                        "" if b.std_y is None else format_g6(b.std_y),
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
        series = bin_series(points, bins=bins, lo=lo, hi=hi)
        labelled_series.append((codec.value, series))
        binned_points = series.points()
        weights = [b.count for b in series.bins if b.count > 0] if args.weighted else None
        fit_points = points if args.raw_points else binned_points
        fit_weights = None if args.raw_points else weights

        fits: dict[str, dict] = {}
        if args.model in ("exp", "both"):
            if len(binned_points) < MIN_BINS_FOR_EXPONENTIAL:
                raise CliError(
                    "EXPLAINED_TOO_FEW_BINS",
                    f"exponential fit for {codec.value} needs >= {MIN_BINS_FOR_EXPONENTIAL} "
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


def _fit_doc(fit) -> dict:
    doc = fit.as_dict()
    doc["params"] = {k: round_g6(v) for k, v in doc["params"].items()}
    doc["r_squared"] = round_g6(doc["r_squared"])
    doc["sse"] = round_g6(doc["sse"])
    return doc


def cmd_report(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range, "--range")
    p_bins, j_bins = _bin_count(args.bins, "--bins"), _bin_count(args.j_bins, "--j-bins")
    groups = _read_samples(args.input, _codec_filter(args.codec), ("p_loss", "max_jitter_ms"))
    # Cells aggregate sorted values, so sample order does not matter.
    samples = [sample for group in groups.values() for sample in group]

    if args.j_range is not None:
        j_lo, j_hi = _parse_range(args.j_range, "--j-range")
    else:
        j_hi_data = max((j for _, j, _ in samples), default=0.0)
        j_lo, j_hi = 0.0, j_hi_data if j_hi_data > 0 else 1.0
    try:
        spec = GridSpec.uniform(p_bins, (lo, hi), j_bins, (j_lo, j_hi))
    except ValueError as exc:  # a range too narrow to split into distinct edges
        raise CliError("BAD_RANGE", str(exc)) from None
    grid = surface_grid(samples, spec)

    with _open(args.output, "OUTPUT") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["p_loss_bin", "j_max_bin", "mean_r", "count"])
        p_edges, j_edges = spec.p_edges, spec.j_edges
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

    score = sub.add_parser("score", help="Score a CDR CSV: append p_loss, MOS, R-factor")
    score.add_argument("--input", required=True, help="CDR CSV to score")
    score.add_argument("--output", required=True, help="Scored CSV output path")
    score.add_argument("--summary", help="Summary JSON path (default: <output>.summary.json)")
    score.add_argument("--config", help="Codec profile config file")
    score.add_argument("--codec", choices=["AMR", "AMR-WB", "all"], default="all")
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
    fit.add_argument("--codec", choices=["AMR", "AMR-WB", "all"], default="all")
    fit.add_argument("--bins", type=int, default=10, help="Number of uniform loss bins")
    fit.add_argument("--range", default="0:0.2", help="Loss range LO:HI for binning")
    fit.add_argument("--weighted", action="store_true", help="Weight bins by sample count")
    fit.add_argument("--raw-points", action="store_true", help="Fit raw flows instead of bins")
    fit.set_defaults(handler=cmd_fit)

    report = sub.add_parser("report", help="Export a loss-by-jitter surface grid CSV")
    report.add_argument("--input", required=True, help="Scored CSV input path")
    report.add_argument("--output", required=True, help="Grid CSV output path")
    report.add_argument("--codec", choices=["AMR", "AMR-WB", "all"], default="all")
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
