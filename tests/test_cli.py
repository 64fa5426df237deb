"""End-to-end command-line tests: score, simulate, fit, report."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    AMR_CURVE_BURST_R,
    AMR_CURVE_PROFILE,
    BIN_MEDIANS,
    EXP_DECAY,
    WB_LINE_BURST_R,
    WB_LINE_PROFILE,
    assert_no_child_left,
    burst_sweep,
    exp_curve,
    line_curve,
    reference_parse_cdr_csv,
    reference_read_samples,
    recorded_worker,
    table_from_rows,
    within_a_minute,
    written_summary,
)
from volteqa import cli, ingest, simulate, worker
from volteqa.cli import CliError, main
from volteqa.ingest import CDR_COLUMNS, Codec, RejectedRow, RejectReason
from volteqa.simulate import load_sim_config

DATA = Path(__file__).parent / "data"

SCORED_HEADER = (
    "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,"
    "r_factor,p_loss,mos,r_factor_computed"
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def sim_config_text(
    flows: int,
    packets: int,
    seed: int,
    codec: Codec,
    loss_models,
    base_delay: float = 30.0,
    profiles: dict | None = None,
) -> str:
    lines = [
        "[sim]",
        f"flows = {flows}",
        f"packets_per_flow = {packets}",
        f"seed = {seed}",
        "ptime_ms = 20",
        f"codec_mix = {codec.value}:1.0",
        "loss_models = " + ", ".join(
            f"gilbert_elliott({m.p_good_to_bad!r}, {m.p_bad_to_good!r}, "
            f"{m.loss_good!r}, {m.loss_bad!r})"
            for m in loss_models
        ),
        "jitter_models = none",
        f"base_delay_ms = {base_delay}",
        "",
    ]
    for codec, p in (profiles or {}).items():
        lines += [
            f"[{codec.value}]",
            f"ie = {p.ie!r}",
            f"bpl = {p.bpl!r}",
            f"r0 = {p.r0!r}",
            f"is = {p.simultaneous!r}",
            f"advantage = {p.advantage!r}",
            f"r_max = {codec.r_max!r}",
            "",
        ]
    return "\n".join(lines)


# ----------------------------------------------------------------- score


def test_score_reproduces_golden_fixture(tmp_path):
    out_csv = tmp_path / "scored.csv"
    out_json = tmp_path / "summary.json"
    assert run("score", "--input", DATA / "cdr_golden.csv",
               "--output", out_csv, "--summary", out_json) == 0
    assert out_csv.read_bytes() == (DATA / "cdr_golden.scored.csv").read_bytes()
    assert out_json.read_bytes() == (DATA / "cdr_golden.summary.json").read_bytes()


def test_score_empty_cdr(tmp_path):
    source = tmp_path / "empty.csv"
    source.write_text("flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor\n", encoding="utf-8")
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 0
    assert out_csv.read_text(encoding="utf-8") == SCORED_HEADER + "\n"
    summary = json.loads((tmp_path / "scored.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["total_flows"] == 0
    assert summary["per_codec_shares"] == {}


def test_score_rejects_every_evs_row(tmp_path):
    source = tmp_path / "evs.csv"
    source.write_text(
        "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor\n"
        "e1,EVS,10,9,1.0,2.0,\n"
        "e2,EVS,20,19,1.0,2.0,\n",
        encoding="utf-8",
    )
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 0
    assert out_csv.read_text(encoding="utf-8") == SCORED_HEADER + "\n"
    summary = json.loads((tmp_path / "scored.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["total_flows"] == 0
    assert summary["rejected"]["total"] == 2
    assert summary["rejected"]["by_reason"] == {"UNSUPPORTED_CODEC": 2}
    assert [r["reason"] for r in summary["rejected"]["rows"]] == ["UNSUPPORTED_CODEC"] * 2


def test_score_schema_error_is_fatal(tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text("totally,wrong,header\n1,2,3\n", encoding="utf-8")
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 1
    assert "SCHEMA" in capsys.readouterr().err


def test_score_missing_input_is_fatal(tmp_path, capsys):
    assert run("score", "--input", tmp_path / "nope.csv", "--output", tmp_path / "o.csv") == 1
    assert "INPUT_NOT_FOUND" in capsys.readouterr().err


def test_score_quotes_a_flow_id_with_a_carriage_return(tmp_path, capsys):
    # An unquoted CR would end the row for fit's reader.
    source = tmp_path / "cr.csv"
    source.write_bytes((DATA / "cdr_golden.csv").read_bytes() + b'"a\rb",AMR,200,190,1.0,2.0,\n')
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 0
    assert [r["flow_id"] for r in read_rows(out_csv)] == ["uplink-001", "uplink-002", "uplink-003", "a\rb"]
    assert run("fit", "--input", out_csv, "--output", tmp_path / "fit.json",
               "--model", "linear", "--codec", "AMR") == 0
    assert "skipped rows" not in capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    count=st.sampled_from([0, 1, 40]),
    details=st.lists(st.one_of(st.text(), st.just('É"\\\x01')), min_size=40, max_size=40),
    first_line=st.integers(2, 10**12),
    codecs=st.lists(st.sampled_from(list(Codec)), max_size=5),
)
def test_summary_text_is_json_dumps(count, details, first_line, codecs):
    reasons = itertools.cycle(RejectReason)
    rejects = [RejectedRow(first_line + i, next(reasons), detail) for i, detail in enumerate(details[:count])]
    table = table_from_rows([(f"f{i}", codec, 10, 9, 1.0, 2.0, 50.0) for i, codec in enumerate(codecs)])
    written_summary(table.codec_counts(), rejects)


# Details that json.dumps must escape, or that it leaves as they are.
AWKWARD_DETAILS = ('say "hi"', "C:\\dir\\", "Übertragung ☎", "bell\x07", "two\nlines", "cr\r", "tab\t", "", "\u2028")


@pytest.mark.parametrize("count", (0, 1, ingest.CHUNK_ROWS, ingest.CHUNK_ROWS + 1))
def test_summary_rows_cross_a_write_block(count):
    # CHUNK_ROWS + 1 puts the last reject alone in a second write.
    reasons, details = itertools.cycle(RejectReason), itertools.cycle(AWKWARD_DETAILS)
    rejects = [RejectedRow(2 + 3 * i, next(reasons), f"{i}: {next(details)}") for i in range(count)]
    summary = written_summary({Codec.AMR: 7, Codec.AMR_WB: 3}, rejects)
    assert summary["per_codec_shares"] == {"AMR": 0.7, "AMR-WB": 0.3}
    assert [row["line_no"] for row in summary["rejected"]["rows"]] == list(range(2, 2 + 3 * count, 3))
    assert summary["rejected"]["total"] == sum(summary["rejected"]["by_reason"].values()) == count


def test_score_summary_is_json_dumps(tmp_path):
    source = tmp_path / "rejects.csv"
    source.write_text(
        (DATA / "cdr_golden.csv").read_text(encoding="utf-8") + 'e1,"É""\\\x01",10,9,1.0,2.0,\ne2,AMR,x,9,1.0,2.0,\n',
        encoding="utf-8",
    )
    assert run("score", "--input", source, "--output", tmp_path / "scored.csv") == 0
    text = (tmp_path / "scored.csv.summary.json").read_text(encoding="utf-8")
    summary = json.loads(text)
    assert summary["rejected"]["rows"] == [
        {"line_no": 5, "reason": "UNSUPPORTED_CODEC", "detail": "codec 'É\"\\\\\\x01'"},
        {"line_no": 6, "reason": "BAD_FIELD", "detail": "tx_packets: not an integer: 'x'"},
    ]
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_score_codec_filter(tmp_path):
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", DATA / "cdr_golden.csv",
               "--output", out_csv, "--codec", "AMR-WB") == 0
    rows = read_rows(out_csv)
    assert [r["codec"] for r in rows] == ["AMR-WB"]


def _cdr_lines(rows: int, start: int = 0) -> list[str]:
    """``rows`` valid CDR lines of both codecs, every field in its range."""
    return [
        f"f{i:07d},{'AMR-WB' if i % 3 == 0 else 'AMR'},{1000 + i % 97},{990 - i % 89},"
        f"{1 + i % 7 / 4},{3 + i % 11 / 2},{'' if i % 5 else 60 + i % 13}\n"
        for i in range(start, start + rows)
    ]


def _score_outputs(source: Path, out: Path, *flags, chunk: int = ingest.CHUNK_ROWS) -> tuple[bytes, bytes]:
    """The scored CSV and summary JSON of ``score`` read in blocks of ``chunk`` rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_ROWS", chunk)
        assert run("score", "--input", source, "--output", out, *flags) == 0
    return out.read_bytes(), out.with_suffix(".csv.summary.json").read_bytes()


# Rows that are blank, short, long or rejected, each between valid ones,
# so that blocks of 1, 2 and 7 rows start and end on each kind.
ODD_ROWS = [
    "\n", "short,AMR,10,9\n", "long,AMR,10,9,1.0,2.0,,x\n", "e1,EVS,10,9,1.0,2.0,\n",
    "n1,AMR,-1,9,1.0,2.0,\n", "j1,AMR-WB,10,9,5.0,2.0,\n", "\n", "\n", "b1,AMR,x,9,1.0,2.0,\n",
    "r1,AMR,10,9,1.0,2.0,101\n", "z1,AMR-WB,0,0,1.0,2.0,\n",
]


@pytest.mark.parametrize("flags", [(), ("--codec", "AMR")], ids=["all", "AMR"])
@pytest.mark.parametrize("kind", ["odd_rows", "quoted_mid_file"])
def test_score_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, kind, flags):
    if kind == "odd_rows":
        good = _cdr_lines(3 * len(ODD_ROWS))
        lines = [line for i, odd in enumerate(ODD_ROWS) for line in (*good[3 * i: 3 * i + 3], odd)]
    else:
        # The quote at row 3,100 hands the rest of the file to csv.reader.
        lines = _cdr_lines(3200)
        lines[3099] = '"q,1"' + lines[3099][len("f0003099"):]
    source = tmp_path / "cdr.csv"
    source.write_text(",".join(CDR_COLUMNS) + "\n" + "".join(lines), encoding="utf-8")
    reader_blocks = ingest._reader_blocks
    switches = []
    monkeypatch.setattr(ingest, "_reader_blocks", lambda *a: switches.append(1) or reader_blocks(*a))

    expected = _score_outputs(source, tmp_path / "default.csv", *flags)
    for chunk in (1, 2, 7, 1024):
        assert _score_outputs(source, tmp_path / f"chunk{chunk}.csv", *flags, chunk=chunk) == expected
    assert len(switches) == (5 if kind == "quoted_mid_file" else 0)
    # Reject line numbers are those of the per-row oracle.
    with source.open(encoding="utf-8", newline="") as handle:
        rows, rejects = reference_parse_cdr_csv(handle)
    summary = json.loads(expected[1])
    assert summary["rejected"]["rows"] == [
        {"line_no": r.line_no, "reason": r.reason.value, "detail": r.detail} for r in rejects
    ]
    wanted = [row for row in rows if not flags or row[1].value == flags[1]]
    assert summary["total_flows"] == len(wanted) == len(expected[0].splitlines()) - 1
    assert (kind == "odd_rows") == bool(rejects)


@pytest.mark.parametrize(
    "bad_row",
    [b"f\xff,AMR,10,9,1.0,2.0,\n", b"x" * 200_000 + b",AMR,10,9,1.0,2.0,\n"],
    ids=["non_utf8", "over_field_limit"],
)
def test_score_input_error_after_the_first_block_leaves_no_output(tmp_path, capsys, bad_row):
    source = tmp_path / "cdr.csv"
    good = "".join(_cdr_lines(5000)).encode()
    source.write_bytes(",".join(CDR_COLUMNS).encode() + b"\n" + good + bad_row + good)
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 1
    # The input's error, named by the input's path, not the output's.
    assert capsys.readouterr().err.startswith(f"error: SCHEMA: {source}: ")
    assert sorted(tmp_path.iterdir()) == [source]


def test_score_bad_header_fails_before_the_output_is_opened(tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text("totally,wrong,header\n1,2,3\n", encoding="utf-8")
    out_csv = tmp_path / "scored.csv"
    out_csv.write_text("kept\n", encoding="utf-8")
    assert run("score", "--input", source, "--output", out_csv) == 1
    assert capsys.readouterr().err.startswith("error: SCHEMA: unexpected header")
    assert out_csv.read_text(encoding="utf-8") == "kept\n"


def test_score_refuses_to_write_over_its_input(tmp_path, capsys):
    source = tmp_path / "cdr.csv"
    text = ",".join(CDR_COLUMNS) + "\n" + "".join(_cdr_lines(10))
    source.write_text(text, encoding="utf-8")
    assert run("score", "--input", source, "--output", source) == 1
    assert capsys.readouterr().err == f"error: OUTPUT_UNWRITABLE: cannot write {source}: it is the input file\n"
    assert source.read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "argv,written",
    [
        ("simulate --config c.ini --output c.ini", "c.ini: it is the config file"),
        ("simulate --config c.ini --output d.csv --meta d.csv", "d.csv: it is the output file"),
        ("score --input cdr.csv --output o.csv --summary cdr.csv", "cdr.csv: it is the input file"),
        ("score --input cdr.csv --output o.csv --summary o.csv", "o.csv: it is the output file"),
        ("score --input cdr.csv --output p.ini --config p.ini", "p.ini: it is the config file"),
        ("score --input cdr.csv --output o.csv --summary p.ini --config p.ini", "p.ini: it is the config file"),
        # A linear AMR fit of the golden scored file succeeds: only the overwrite can fail it.
        ("fit --model linear --codec AMR --input scored.csv --output scored.csv", "scored.csv: it is the input file"),
        ("fit --model linear --codec AMR --input scored.csv --output f.json --bins-output f.json",
         "f.json: it is the output file"),
        ("fit --model linear --codec AMR --input scored.csv --output f.json --bins-output scored.csv",
         "scored.csv: it is the input file"),
        ("report --input scored.csv --output scored.csv", "scored.csv: it is the input file"),
        # The same file by another name.
        ("score --input cdr.csv --output sub/../cdr.csv", "sub/../cdr.csv: it is the input file"),
    ],
)
def test_no_command_writes_over_another_of_its_files(tmp_path, capsys, argv, written):
    (tmp_path / "c.ini").write_text(SIM_CONFIG, encoding="utf-8")
    (tmp_path / "p.ini").write_text("[AMR]\nie = 0\n", encoding="utf-8")
    (tmp_path / "cdr.csv").write_bytes(Path(CDR).read_bytes())
    (tmp_path / "scored.csv").write_bytes(Path(SCORED).read_bytes())
    (tmp_path / "sub").mkdir()
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    # Each file named in tmp_path: the paths the message names are the ones given.
    assert main([str(tmp_path / arg) if "." in arg else arg for arg in argv.split()]) == 1
    assert capsys.readouterr().err == f"error: OUTPUT_UNWRITABLE: cannot write {tmp_path / written}\n"
    # No file is written, made or removed.
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


def _score_peak_bytes(tmp_path: Path, name: str, lines: list[str]) -> int:
    source = tmp_path / f"{name}.csv"
    source.write_text(",".join(CDR_COLUMNS) + "\n" + "".join(lines), encoding="utf-8")
    tracemalloc.start()
    try:
        assert run("score", "--input", source, "--output", tmp_path / f"{name}.scored.csv") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_memory_does_not_grow_with_the_row_count(tmp_path):
    # score holds one block at a time; only its rejects grow with the
    # file, and this file has none.
    small, large = (_score_peak_bytes(tmp_path, f"cdr{rows}", _cdr_lines(rows)) for rows in (4_000, 40_000))
    assert large <= 1.5 * small


def test_score_memory_grows_by_little_more_than_a_rejected_row_per_reject(tmp_path):
    # Each reject is held as its RejectedRow, about 120 B here, until the
    # summary is written straight from it; a per-row dict or JSON text
    # alongside it would add several hundred bytes more.
    def rejected(rows: int) -> list[str]:
        return [f"f{i:07d},EVS,1000,990,1.0,2.0,\n" for i in range(rows)]

    small, large = (_score_peak_bytes(tmp_path, f"evs{rows}", rejected(rows)) for rows in (2_000, 20_000))
    assert (large - small) / 18_000 < 300


# ------------------------------------------------------- score's worker


def _worker_score(monkeypatch, tmp_path: Path, source: Path, cpus: int, *flags) -> tuple[tuple, list[bool]]:
    """score on ``cpus`` CPUs, failing after a minute: its exit code, its
    stderr and the bytes of each file it leaves, and what each read from
    the worker gave."""
    out = tmp_path / f"cpus{cpus}"
    out.mkdir()
    delivered = recorded_worker(monkeypatch, cpus)
    err = io.StringIO()
    with within_a_minute("score"), contextlib.redirect_stderr(err):
        code = run("score", "--input", source, "--output", out / "scored.csv", *flags)
    return (code, err.getvalue().replace(str(out), "OUT"), {p.name: p.read_bytes() for p in out.iterdir()}), delivered


def _worker_lines(kind: str) -> list[str]:
    if kind == "rejects_and_blanks":  # 5,775 rows, six blocks
        good = _cdr_lines(5200)
        return [line for i in range(0, 5200, 100) for line in (*good[i : i + 100], *ODD_ROWS)]
    if kind == "quoted_in_block_1":  # the quote hands blocks 1 to 4 to csv.reader
        lines = _cdr_lines(4500)
        lines[1500] = '"q,1"' + lines[1500][len("f0001500"):]
        return lines
    return _cdr_lines(int(kind))


@pytest.mark.parametrize("codec", ["all", "AMR-WB"])
@pytest.mark.parametrize(
    "kind,blocks",
    [("rejects_and_blanks", 6), ("quoted_in_block_1", 5),
     (str(ingest.CHUNK_ROWS), 1), (str(ingest.CHUNK_ROWS + 1), 2)],
)
def test_score_worker_gives_the_outputs_of_one_process(tmp_path, monkeypatch, kind, blocks, codec):
    source, config = tmp_path / "cdr.csv", tmp_path / "profile.ini"
    source.write_text(",".join(CDR_COLUMNS) + "\n" + "".join(_worker_lines(kind)), encoding="utf-8")
    config.write_text("[AMR-WB]\nie = 7\nbpl = 12\n", encoding="utf-8")
    flags = ("--codec", codec) + (("--config", config) if codec != "all" else ())
    alone, delivered = _worker_score(monkeypatch, tmp_path, source, 1, *flags)
    assert delivered == []
    assert alone[0] == 0 and alone[1] == ""
    parent, score_block, scored_here = os.getpid(), cli._score_block, []

    def counted(*args):
        if os.getpid() == parent:
            scored_here.append(args[1])
        return score_block(*args)

    monkeypatch.setattr(cli, "_score_block", counted)
    shared, delivered = _worker_score(monkeypatch, tmp_path, source, 2, *flags)
    # Every odd-numbered block is the worker's, and the command scores the others.
    assert delivered == [True] * (blocks // 2)
    assert len(scored_here) == blocks - blocks // 2
    assert shared == alone
    assert_no_child_left()


@pytest.mark.parametrize("exit_at", [0, 2])
def test_blocks_a_score_worker_leaves_are_scored_by_the_command(tmp_path, monkeypatch, exit_at):
    source = tmp_path / "cdr.csv"
    source.write_text(",".join(CDR_COLUMNS) + "\n" + "".join(_worker_lines("rejects_and_blanks")), encoding="utf-8")
    alone, _ = _worker_score(monkeypatch, tmp_path, source, 1)
    parent, score_block, calls = os.getpid(), cli._score_block, itertools.count()

    def score_or_exit(*args):
        # Only in the worker, at its block exit_at: its first or third.
        if os.getpid() != parent and next(calls) == exit_at:
            os._exit(3)
        return score_block(*args)

    monkeypatch.setattr(cli, "_score_block", score_or_exit)
    (tmp_path / "cpus1").rename(tmp_path / "alone")
    shared, delivered = _worker_score(monkeypatch, tmp_path, source, 2)
    assert shared == alone
    assert delivered == [True] * exit_at + [False] * (3 - exit_at)
    assert_no_child_left()


def test_score_input_error_in_a_worker_block_is_the_commands(tmp_path, monkeypatch):
    # Row 1,500 is in block 1, the worker's.
    source = tmp_path / "cdr.csv"
    lines = [line.encode() for line in _cdr_lines(3500)]
    lines[1500] = b"f\xff" + lines[1500][2:]
    source.write_bytes(",".join(CDR_COLUMNS).encode() + b"\n" + b"".join(lines))
    alone, _ = _worker_score(monkeypatch, tmp_path, source, 1)
    shared, _ = _worker_score(monkeypatch, tmp_path, source, 2)
    assert shared == alone
    code, err, files = alone
    assert (code, files) == (1, {})
    assert err.startswith(f"error: SCHEMA: {source}: 'utf-8' codec can't decode byte 0xff")
    assert_no_child_left()


@pytest.mark.parametrize("kind", ["fifo", "one_block", "one_full_block"])
def test_score_forks_no_worker_for_a_pipe_or_one_block(tmp_path, monkeypatch, kind):
    source = tmp_path / "cdr.csv"
    rows = {"fifo": 3000, "one_block": ingest.CHUNK_ROWS - 1, "one_full_block": ingest.CHUNK_ROWS}[kind]
    source.write_text(",".join(CDR_COLUMNS) + "\n" + "".join(_worker_lines(str(rows))), encoding="utf-8")
    alone, _ = _worker_score(monkeypatch, tmp_path, source, 1)
    (tmp_path / "cpus1").rename(tmp_path / "alone")

    def no_fork():
        raise AssertionError("score forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if kind != "fifo":
        shared, delivered = _worker_score(monkeypatch, tmp_path, source, 2)
    else:
        fifo = tmp_path / "cdr.fifo"
        os.mkfifo(fifo)
        # A process, not a thread, writes the pipe: beside a second thread
        # no worker would be forked anyway.
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', source, fifo])
        try:
            shared, delivered = _worker_score(monkeypatch, tmp_path, fifo, 2)
        finally:
            assert writer.wait(timeout=60) == 0
    assert delivered == []
    assert shared == alone
    assert_no_child_left()


# ---------------------------------------------- fit and report's worker


def _scored_lines(rows: int) -> list[str]:
    """``rows`` scored lines of both codecs whose loss spans the fit range."""
    lines = []
    for i in range(rows):
        x = i % 41 / 200
        codec, r = ("AMR", 90 - 150 * x) if i % 3 else ("AMR-WB", 120 - 200 * x)
        r += i % 7 / 10
        lines.append(f"f{i:07d},{codec},100,{100 - i % 9},1.0,{1 + i % 13}.5,{r:.4f},{x!r},4.0,{r:.4f}\n")
    return lines


# fit, also on raw points and on one codec, and report, each with its outputs.
FIT_AND_REPORT = [
    ("fit", "--output", "fit.json"),
    ("fit", "--output", "raw.json", "--raw-points"),
    ("fit", "--output", "wb.json", "--codec", "AMR-WB"),
    ("report", "--output", "grid.csv"),
]


def _worker_fit_report(monkeypatch, tmp_path: Path, source: Path, cpus: int) -> tuple[list[tuple], list[bool]]:
    """Each of FIT_AND_REPORT on ``cpus`` CPUs, failing after a minute: its
    exit code, its stderr and the bytes of each file it leaves, and what
    each read from a worker gave."""
    out = tmp_path / f"cpus{cpus}"
    out.mkdir()
    delivered = recorded_worker(monkeypatch, cpus)
    results = []
    for command, flag, name, *flags in FIT_AND_REPORT:
        err = io.StringIO()
        with within_a_minute(command), contextlib.redirect_stderr(err):
            code = run(command, "--input", source, flag, out / name, *flags)
        results.append((code, err.getvalue().replace(str(out), "OUT")))
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    return [*results, files], delivered


def _block_input(kind: str) -> bytes:
    """A scored file of 3,000 rows, three blocks of which the worker reads
    block 1, with the feature ``kind`` in its header or in a block."""
    header = SCORED_HEADER + {
        "header_on_two_lines": ',"two\nlines"\n',
        # The stream ends a line at a lone CR, and csv.reader reads "x" as a
        # short row of its own.
        "cr_in_header": "\rx\n",
        "header_of_5000_lines": ',"' + "\n" * 5000 + '"\n',
    }.get(kind, "\n")
    lines = _scored_lines(3000)
    if kind == "quote_in_block_2":
        lines[2500] = '"q,1"' + lines[2500][len("f0002500"):]
    elif kind == "cr_in_block_2":
        lines[2500] = lines[2500].replace("\n", "\r\n")
    elif kind == "bad_cells":  # one in each block
        for row, column, cell in [(100, 1, "EVS"), (1500, 7, "abc"), (2300, 6, "150.0")]:
            cells = lines[row].split(",")
            cells[column] = cell
            lines[row] = ",".join(cells)
    # Lines put in among the rows of block 1.
    middle = {
        "blank_and_short_rows_in_block_1": ["\n", "f,AMR,100\n", "\n", "f,AMR-WB\n"] * 12,
        # A quoted field whose newlines span 400 lines: csv.reader reads
        # from block 1 to the end.
        "quote_across_lines_in_block_1": ['"q' + "\n" * 400 + '",AMR,100,99,1.0,2.5,80.0,0.1,4.0,80.0\n'],
    }.get(kind, [])
    text = header + "".join(lines[:1500] + middle + lines[1500:])
    if kind == "no_final_newline":
        text = text[:-1]
    data = text.encode()
    if kind == "non_utf8_in_block_2":
        data = data.replace(b"f0002700", b"f\xff002700")
    return data


BLOCK_KINDS = [
    "plain",
    "header_on_two_lines",
    "cr_in_header",
    "header_of_5000_lines",
    "blank_and_short_rows_in_block_1",
    "bad_cells",
    "no_final_newline",
    # csv.reader takes over in the worker's block, or in the one after it.
    "quote_across_lines_in_block_1",
    "quote_in_block_2",
    "cr_in_block_2",
    # The worker gives block 1; the command fails on block 2.
    "non_utf8_in_block_2",
]


@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_fit_and_report_workers_give_the_outputs_of_one_process(tmp_path, monkeypatch, kind):
    source = tmp_path / "scored.csv"
    source.write_bytes(_block_input(kind))
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 1)
    alone, delivered = _worker_fit_report(monkeypatch, tmp_path, source, 1)
    assert delivered == []
    assert [result[0] for result in alone[:-1]] == [1 if kind == "non_utf8_in_block_2" else 0] * 4
    parent, loadtxt_samples, read_here = os.getpid(), cli._loadtxt_samples, []

    def counted(*args):
        if os.getpid() == parent:
            read_here.append(args)
        return loadtxt_samples(*args)

    monkeypatch.setattr(cli, "_loadtxt_samples", counted)
    shared, delivered = _worker_fit_report(monkeypatch, tmp_path, source, 2)
    assert shared == alone
    # Block 1 is the worker's, once per command; the command reads blocks 0
    # and 2, or only block 0 before its input error.
    assert delivered == [True] * 4
    assert len(read_here) == (1 if kind == "non_utf8_in_block_2" else 2) * 4
    assert_no_child_left()
    if kind == "bad_cells":
        assert alone[3][1] == (
            f"warning: {source}: skipped rows: p_loss not a number=1, r_factor out of range=1, unknown codec=1\n"
        )
    if kind == "non_utf8_in_block_2":
        assert alone[-1] == {}
        assert alone[0][1].startswith(f"error: SCHEMA: {source}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("exit_at", [0, 2])
def test_blocks_a_fit_or_report_worker_leaves_are_read_by_the_command(tmp_path, monkeypatch, exit_at):
    source = tmp_path / "scored.csv"
    source.write_text(SCORED_HEADER + "\n" + "".join(_scored_lines(6000)), encoding="utf-8")  # six blocks
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 1)
    alone, _ = _worker_fit_report(monkeypatch, tmp_path, source, 1)
    parent, loadtxt_samples, calls = os.getpid(), cli._loadtxt_samples, itertools.count()

    def read_or_exit(*args):
        # Only in the worker, at its block exit_at: its first or third.
        if os.getpid() != parent and next(calls) == exit_at:
            os._exit(3)
        return loadtxt_samples(*args)

    monkeypatch.setattr(cli, "_loadtxt_samples", read_or_exit)
    shared, delivered = _worker_fit_report(monkeypatch, tmp_path, source, 2)
    assert shared == alone
    assert delivered == ([True] * exit_at + [False] * (3 - exit_at)) * 4
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["exit_before_send", "fork_fails"])
def test_fit_and_report_read_on_alone_without_a_worker_result(tmp_path, monkeypatch, failure):
    source = tmp_path / "scored.csv"
    source.write_bytes(_block_input("bad_cells"))
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 1)
    alone, _ = _worker_fit_report(monkeypatch, tmp_path, source, 1)

    def no_fork():
        raise BlockingIOError("no fork")

    if failure == "exit_before_send":
        monkeypatch.setattr(worker, "_write", lambda fd, result: os._exit(3))  # only a worker sends
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    shared, delivered = _worker_fit_report(monkeypatch, tmp_path, source, 2)
    assert shared == alone
    assert delivered == ([False] * 4 if failure == "exit_before_send" else [])
    assert_no_child_left()


def test_fit_reaps_its_worker_on_ctrl_c(tmp_path, monkeypatch):
    source = tmp_path / "scored.csv"
    source.write_bytes(_block_input("plain"))
    monkeypatch.setattr(cli, "_SPLIT_BYTES", 1)
    recorded_worker(monkeypatch, 2)
    parent, loadtxt_samples = os.getpid(), cli._loadtxt_samples

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return loadtxt_samples(*args)

    monkeypatch.setattr(cli, "_loadtxt_samples", interrupted)
    with within_a_minute("fit"), pytest.raises(KeyboardInterrupt):
        run("fit", "--input", source, "--output", tmp_path / "fit.json")
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scored.csv"]


@pytest.mark.parametrize("size", ["under", "at"])
def test_fit_and_report_fork_only_for_a_file_of_the_split_size(tmp_path, monkeypatch, size):
    target = cli._SPLIT_BYTES - 1 if size == "under" else cli._SPLIT_BYTES
    header = SCORED_HEADER + "\n"
    lines = _scored_lines(target // 50)
    # The lines that leave 200 bytes or more, then one padded to the size.
    rows = int(np.searchsorted(np.cumsum(list(map(len, lines))), target - len(header) - 200))
    text = header + "".join(lines[:rows])
    last = ",AMR,100,99,1.0,2.5,80.0,0.1,4.0,80.0\n"
    text += "f" * (target - len(text) - len(last)) + last
    source = tmp_path / "scored.csv"
    source.write_text(text, encoding="utf-8")
    assert source.stat().st_size == target
    alone, _ = _worker_fit_report(monkeypatch, tmp_path, source, 1)

    def no_fork():
        raise AssertionError("forked")

    if size == "under":
        monkeypatch.setattr(os, "fork", no_fork)
    shared, delivered = _worker_fit_report(monkeypatch, tmp_path, source, 2)
    assert shared == alone
    blocks = -(-(rows + 1) // ingest.CHUNK_ROWS)
    assert delivered == ([] if size == "under" else [True] * (blocks // 2) * 4)  # each odd-numbered block
    assert_no_child_left()


# -------------------------------------------------------------- simulate


def test_simulate_memory_does_not_grow_with_the_flow_count(tmp_path):
    # simulate replays, scores and writes one chunk of flows at a time;
    # only its rejects grow with the flow count, and this dataset has none.
    def peak(flows: int) -> int:
        config = tmp_path / f"sim{flows}.ini"
        config.write_text(f"[sim]\nflows = {flows}\npackets_per_flow = 40\nseed = 1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            assert run("simulate", "--config", config, "--output", tmp_path / f"sim{flows}.csv") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_000), peak(20_000)
    assert json.loads((tmp_path / "sim20000.csv.meta.json").read_text(encoding="utf-8"))["flows_rejected"] == 0
    assert large <= 1.5 * small


def test_simulate_is_byte_deterministic(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 25\npackets_per_flow = 40\nseed = 5\n"
        "loss_models = bernoulli(0.1)\njitter_models = gaussian(4)\nbase_delay_ms = 30\n",
        encoding="utf-8",
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--config", config, "--output", first) == 0
    assert run("simulate", "--config", config, "--output", second) == 0
    assert first.read_bytes() == second.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["generator"] == "numpy.random.PCG64"
    assert meta["seed"] == 5
    assert meta["flows_written"] == 25


def test_source_date_epoch_pins_the_meta_timestamp(tmp_path, monkeypatch, capsys):
    config = tmp_path / "sim.ini"
    config.write_text(SIM_CONFIG, encoding="utf-8")

    def meta(name: str) -> bytes:
        assert run("simulate", "--config", config, "--output", tmp_path / f"{name}.csv") == 0
        return (tmp_path / f"{name}.csv.meta.json").read_bytes()

    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    unpinned = json.loads(meta("now"))["timestamp"]
    assert datetime.fromisoformat(unpinned).tzinfo is not None and "." in unpinned
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    first = meta("a")
    assert json.loads(first)["timestamp"] == "2023-11-14T22:13:20+00:00"
    assert meta("b") == first
    # Unset, the meta differs only in its timestamp.
    assert json.loads(first) == dict(json.loads(meta("now")), timestamp="2023-11-14T22:13:20+00:00")
    for bad in ("-1", "1.5", "x", "\u0661", "9" * 30):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", bad)
        assert run("simulate", "--config", config, "--output", tmp_path / "bad.csv") == 1
        assert capsys.readouterr().err == (
            f"error: CONFIG: SOURCE_DATE_EPOCH must be whole seconds since 1970, got {bad!r}\n"
        )
        assert not (tmp_path / "bad.csv").exists()


def test_simulate_reproduces_golden_dataset(tmp_path):
    # Bursty and near-total loss under no, Gaussian and gamma jitter: the
    # dataset has late packets and flows rejected for too few packets.
    out = tmp_path / "sim.csv"
    assert run("simulate", "--config", DATA / "sim_golden.ini", "--output", out) == 0
    assert out.read_bytes() == (DATA / "sim_golden.csv").read_bytes()
    meta = json.loads((tmp_path / "sim.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["flows_written"] == 30
    assert meta["flows_rejected"] == 18
    rejected_ids = (4, 5, 9, 10, 11, 16, 21, 22, 23, 27, 29, 34, 35, 39, 40, 41, 45, 47)
    assert meta["rejected"] == [
        {"flow_id": f"flow-{i:06d}", "reason": "NOT_ENOUGH_PACKETS"} for i in rejected_ids
    ]


def test_simulate_reproduces_golden_dataset_across_chunks(monkeypatch, tmp_path):
    # Five chunks of 3-flow blocks, each chunk with rejects.  The floats
    # take every form a simulated dataset writes: integral (0.0, 20.0,
    # 129.0), below 1e-4 (gaussian(0.00001)) and rounded to 1e6 or more,
    # which leaves exponent form (gamma with a scale of 1e6).
    monkeypatch.setattr(simulate, "BLOCK_PACKETS", 3 * 30)
    monkeypatch.setattr(simulate, "CHUNK_ROWS", 7)
    chunks = []
    monkeypatch.setattr(cli, "write_cdr_csv", lambda table, handle: chunks.append(ingest.write_cdr_csv(table, handle)))
    out = tmp_path / "sim.csv"
    assert run("simulate", "--config", DATA / "sim_chunks_golden.ini", "--output", out) == 0
    assert out.read_bytes() == (DATA / "sim_chunks_golden.csv").read_bytes()
    assert len(chunks) == 5
    assert json.loads((tmp_path / "sim.csv.meta.json").read_text(encoding="utf-8"))["flows_rejected"] == 12


def test_simulate_seed_flag_overrides_config(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 10\npackets_per_flow = 30\nseed = 5\nloss_models = bernoulli(0.2)\n",
        encoding="utf-8",
    )
    base, overridden = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--config", config, "--output", base) == 0
    assert run("simulate", "--config", config, "--output", overridden, "--seed", 6) == 0
    assert base.read_bytes() != overridden.read_bytes()
    assert json.loads((tmp_path / "b.csv.meta.json").read_text(encoding="utf-8"))["seed"] == 6


def test_simulate_zero_flows(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text("[sim]\nflows = 0\npackets_per_flow = 10\nseed = 1\n", encoding="utf-8")
    out = tmp_path / "empty.csv"
    assert run("simulate", "--config", config, "--output", out) == 0
    header = "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor\n"
    assert out.read_text(encoding="utf-8") == header


@pytest.mark.parametrize("window", [2**63, 10**30], ids=["2**63", "10**30"])
def test_simulate_window_beyond_the_flow_is_the_flow_length(tmp_path, capsys, window):
    text = (
        "[sim]\nflows = 20\npackets_per_flow = 40\nseed = 3\nloss_models = bernoulli(0.1)\n"
        "jitter_models = gamma(2, 30)\nbase_delay_ms = 30\nwindow = {}\n"
    )
    for name, value in (("wide", window), ("whole", 40)):
        config = tmp_path / f"{name}.ini"
        config.write_text(text.format(value), encoding="utf-8")
        assert run("simulate", "--config", config, "--output", tmp_path / f"{name}.csv") == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_simulate_realized_mix_tracks_spec(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 10000\npackets_per_flow = 4\nseed = 8\n"
        "codec_mix = AMR:0.7, AMR-WB:0.3\nloss_models = bernoulli(0)\n",
        encoding="utf-8",
    )
    out = tmp_path / "mix.csv"
    assert run("simulate", "--config", config, "--output", out) == 0
    rows = read_rows(out)
    share = sum(1 for r in rows if r["codec"] == "AMR") / len(rows)
    assert abs(share - 0.7) <= 0.02


def test_simulate_invalid_key_names_it(tmp_path, capsys):
    config = tmp_path / "sim.ini"
    config.write_text("[sim]\nflows = 1\npackets_per_flow = 10\nseed = 1\nbogus_key = 3\n", encoding="utf-8")
    assert run("simulate", "--config", config, "--output", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert "CONFIG" in err and "bogus_key" in err


def test_simulated_dataset_scores_cleanly(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 40\npackets_per_flow = 50\nseed = 13\n"
        "loss_models = bernoulli(0.05)\njitter_models = gaussian(5)\nbase_delay_ms = 30\n",
        encoding="utf-8",
    )
    dataset = tmp_path / "dataset.csv"
    scored = tmp_path / "scored.csv"
    assert run("simulate", "--config", config, "--output", dataset) == 0
    assert run("score", "--input", dataset, "--output", scored) == 0
    summary = json.loads((tmp_path / "scored.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["rejected"]["total"] == 0
    assert summary["total_flows"] == 40


# ------------------------------------------------------------------- fit


def _pipeline_fit(tmp_path, codec, profile, burst_r, flows, packets, seed):
    config = tmp_path / "sim.ini"
    config.write_text(
        sim_config_text(
            flows=flows,
            packets=packets,
            seed=seed,
            codec=codec,
            loss_models=burst_sweep(burst_r),
            profiles={codec: profile},
        ),
        encoding="utf-8",
    )
    dataset = tmp_path / "dataset.csv"
    scored = tmp_path / "scored.csv"
    fit_json = tmp_path / "fit.json"
    assert run("simulate", "--config", config, "--output", dataset) == 0
    assert run("score", "--input", dataset, "--output", scored) == 0
    assert run("fit", "--input", scored, "--output", fit_json, "--model", "both") == 0
    doc = json.loads(fit_json.read_text(encoding="utf-8"))
    return doc["codecs"][codec.value]["fits"]


def test_fit_recovers_exponential_coefficients_through_pipeline(tmp_path):
    fits = _pipeline_fit(
        tmp_path, Codec.AMR, AMR_CURVE_PROFILE, AMR_CURVE_BURST_R,
        flows=4000, packets=400, seed=3,
    )
    params = fits["exponential"]["params"]
    assert params["offset"] == pytest.approx(17.953, rel=0.05)
    assert params["amplitude"] == pytest.approx(71.63, rel=0.05)
    assert params["decay"] == pytest.approx(0.12, rel=0.05)
    assert fits["exponential"]["r_squared"] > fits["linear"]["r_squared"]


def test_fit_recovers_linear_coefficients_through_pipeline(tmp_path):
    fits = _pipeline_fit(
        tmp_path, Codec.AMR_WB, WB_LINE_PROFILE, WB_LINE_BURST_R,
        flows=4000, packets=400, seed=2,
    )
    params = fits["linear"]["params"]
    assert params["intercept"] == pytest.approx(99.01, rel=0.05)
    assert params["slope"] == pytest.approx(-340.70, rel=0.05)
    assert fits["linear"]["r_squared"] >= 0.95


def _write_scored(path: Path, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SCORED_HEADER.split(","))
        for flow_id, codec, p_loss, r in rows:
            writer.writerow([flow_id, codec, 100, 99, "1.0", "2.0", r, p_loss, "", ""])


def test_fit_errors_when_loss_never_varies(tmp_path, capsys):
    scored = tmp_path / "scored.csv"
    _write_scored(scored, [(f"f{i}", "AMR", "0", "93.2") for i in range(50)])
    assert run("fit", "--input", scored, "--output", tmp_path / "fit.json") == 1
    assert capsys.readouterr().err == (
        "error: FIT: exponential fit for AMR: exponential fit needs >= 4 points, got 1\n"
    )


def test_fit_requires_p_loss_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("flow_id,codec,r_factor\nf,AMR,90\n", encoding="utf-8")
    assert run("fit", "--input", bad, "--output", tmp_path / "fit.json") == 1
    assert "SCHEMA" in capsys.readouterr().err


def test_fit_emits_bins_table_and_points(tmp_path):
    scored = tmp_path / "scored.csv"
    rows = []
    for i, x in enumerate(np.repeat(BIN_MEDIANS, 3)):
        rows.append((f"f{i}", "AMR-WB", repr(float(x)), repr(float(line_curve(x)))))
    _write_scored(scored, rows)
    fit_json = tmp_path / "fit.json"
    assert run("fit", "--input", scored, "--output", fit_json, "--model", "linear") == 0
    doc = json.loads(fit_json.read_text(encoding="utf-8"))
    wb = doc["codecs"]["AMR-WB"]
    assert len(wb["points"]) == 10
    assert wb["fits"]["linear"]["params"]["intercept"] == pytest.approx(99.01, rel=1e-4)
    bins_csv = (tmp_path / "fit.bins.csv").read_text(encoding="utf-8").splitlines()
    assert bins_csv[0] == "codec,bin_index,p_loss_lo,p_loss_hi,count,p_loss_median,r_mean,r_std"
    assert len(bins_csv) == 11
    counts = [int(line.split(",")[4]) for line in bins_csv[1:]]
    assert sum(counts) == 30


def test_fit_splits_codecs_automatically(tmp_path):
    scored = tmp_path / "scored.csv"
    rows = [(f"a{i}", "AMR", repr(float(x)), repr(float(90 - 100 * x)))
            for i, x in enumerate(np.repeat(BIN_MEDIANS, 2))]
    rows += [(f"b{i}", "AMR-WB", repr(float(x)), repr(float(120 - 50 * x)))
             for i, x in enumerate(np.repeat(BIN_MEDIANS, 2))]
    _write_scored(scored, rows)
    fit_json = tmp_path / "fit.json"
    assert run("fit", "--input", scored, "--output", fit_json, "--model", "linear") == 0
    doc = json.loads(fit_json.read_text(encoding="utf-8"))
    assert set(doc["codecs"]) == {"AMR", "AMR-WB"}
    assert run("fit", "--input", scored, "--output", fit_json,
               "--model", "linear", "--codec", "AMR") == 0
    doc = json.loads(fit_json.read_text(encoding="utf-8"))
    assert set(doc["codecs"]) == {"AMR"}


def test_fit_weighted_and_raw_flags(tmp_path):
    scored = tmp_path / "scored.csv"
    rows = [(f"f{i}", "AMR", repr(float(x)), repr(float(90 - 150 * x + (i % 3))))
            for i, x in enumerate(np.repeat(BIN_MEDIANS, 4))]
    _write_scored(scored, rows)
    for extra in ([], ["--raw-points"]):
        assert run("fit", "--input", scored, "--output", tmp_path / "fit.json",
                   "--model", "both", *extra) == 0


def test_fit_has_no_weighted_flag(tmp_path, capsys):
    # Bins are fitted plain; --raw-points is the fit that counts every call.
    with pytest.raises(SystemExit) as exit_info:
        run("fit", "--input", SCORED, "--output", tmp_path / "fit.json", "--weighted")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --weighted" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_raw_point_fits_leave_out_rows_beyond_the_range(tmp_path):
    # Rows outside --range, with R at the ends of AMR's scale, are counted
    # but not fitted; rows on either bound are fitted, as the bins count them.
    rows = [(f"f{i}", "AMR", repr(float(x)), repr(float(90 - 150 * x + (i % 3))))
            for i, x in enumerate([0.0, 0.2, *np.repeat(BIN_MEDIANS, 4)])]
    wild = [("w0", "AMR", "0.5", "0"), ("w1", "AMR", "0.2000001", "100"), ("w2", "AMR", "-0.01", "100")]
    docs = {}
    for name, table in (("in", rows), ("all", rows + wild)):
        _write_scored(tmp_path / f"{name}.csv", table)
        assert run("fit", "--input", tmp_path / f"{name}.csv", "--output", tmp_path / f"{name}.json",
                   "--raw-points") == 0
        docs[name] = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))["codecs"]["AMR"]
    assert docs["all"]["fits"] == docs["in"]["fits"]
    assert docs["all"]["points"] == docs["in"]["points"]
    assert (docs["in"]["raw_point_count"], docs["in"]["raw_points_out_of_range"]) == (len(rows), 0)
    assert (docs["all"]["raw_point_count"], docs["all"]["raw_points_out_of_range"]) == (len(rows) + 3, 3)
    # Binned fits report no such count.
    assert run("fit", "--input", tmp_path / "all.csv", "--output", tmp_path / "binned.json") == 0
    binned = json.loads((tmp_path / "binned.json").read_text(encoding="utf-8"))["codecs"]["AMR"]
    assert "raw_points_out_of_range" not in binned


def test_raw_point_fit_needs_points_not_bins(tmp_path, capsys):
    # Rows that fill 3 bins give a raw-point fit of every row in range, the
    # same as with 4 bins: each fit keeps its own rule on the points it
    # fits.  Their 3 bin points are too few for a binned exponential fit.
    xs = np.linspace(0.0, 0.2, 30)
    rows = [(f"f{i}", "AMR", repr(float(x)), repr(float(exp_curve(x) + i % 3))) for i, x in enumerate(xs)]
    _write_scored(tmp_path / "scored.csv", rows + [("w", "AMR", "0.5", "0")])
    in_range = np.array([[float(x), float(r)] for _, _, x, r in rows])
    expected = {"exponential": cli._fit_doc(cli.fit_exponential(in_range)),
                "linear": cli._fit_doc(cli.fit_linear(in_range))}
    for bins in (3, 4):
        out = tmp_path / f"fit{bins}.json"
        assert run("fit", "--input", tmp_path / "scored.csv", "--output", out, "--raw-points", "--bins", bins) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))["codecs"]["AMR"]
        assert len(doc["points"]) == bins
        assert (doc["raw_point_count"], doc["raw_points_out_of_range"]) == (len(rows) + 1, 1)
        assert doc["fits"] == expected
    assert run("fit", "--input", tmp_path / "scored.csv", "--output", tmp_path / "binned.json", "--bins", 3) == 1
    assert capsys.readouterr().err == (
        "error: FIT: exponential fit for AMR: exponential fit needs >= 4 points, got 3\n"
    )


# Run in a fresh interpreter: the modules that score, fit and report
# import beyond numpy's own, then a simulate run.
_IMPORTS_SCRIPT = """
import json, sys
import numpy
baseline = set(sys.modules)
from volteqa.cli import main
for argv in (
    ["score", "--input", sys.argv[1], "--output", "scored.csv"],
    ["fit", "--input", "scored.csv", "--output", "fit.json"],
    ["report", "--input", "scored.csv", "--output", "grid.csv"],
):
    assert main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - baseline)))
assert main(["simulate", "--config", sys.argv[2], "--output", "sim.csv"]) == 0
"""


def test_only_simulate_loads_numpy_random_and_openssl(tmp_path):
    # np.median's NaN check once imported numpy.ma into fit, and every
    # command imported hashlib.  numpy 1.24 imports its masked arrays and
    # random package itself: what numpy imports is the baseline.
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SCRIPT, DATA / "sim_golden.csv", DATA / "sim_golden.ini"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    assert {"numpy.ma", "numpy.random", "hashlib", "_hashlib"}.isdisjoint(json.loads(done.stdout))
    # The hashes that simulate imports hashlib for are those of before.
    meta = json.loads((tmp_path / "sim.csv.meta.json").read_text(encoding="utf-8"))
    spec = load_sim_config((DATA / "sim_golden.ini").read_text(encoding="utf-8"))[0]
    assert meta["spec_sha256"] == hashlib.sha256(repr(spec).encode()).hexdigest()
    assert meta["config_sha256"] == "e9ebf4ef8bbd1b1a5c60863d61dd06a6b6c23a9020253fa3c7e3c33d10ceafa9"


def _score_sim_golden(tmp_path: Path) -> Path:
    scored = tmp_path / "scored.csv"
    assert run("score", "--input", DATA / "sim_golden.csv", "--output", scored) == 0
    return scored


def test_fit_reproduces_golden_on_scored_sim_dataset(tmp_path):
    out = tmp_path / "fit.json"
    assert run("fit", "--input", _score_sim_golden(tmp_path), "--output", out, "--model", "both") == 0
    assert out.read_bytes() == (DATA / "sim_golden.fit.json").read_bytes()
    assert (tmp_path / "fit.bins.csv").read_bytes() == (DATA / "sim_golden.fit.bins.csv").read_bytes()


def test_raw_point_fit_reproduces_golden_on_scored_sim_dataset(tmp_path):
    # AMR fits the 14 of its 21 rows inside --range.  The bins count the
    # same rows as the binned fit's do, so the bins CSV is that golden.
    out = tmp_path / "fit.json"
    assert run("fit", "--input", _score_sim_golden(tmp_path), "--output", out, "--model", "both",
               "--raw-points") == 0
    assert out.read_bytes() == (DATA / "sim_golden.fit_raw.json").read_bytes()
    assert (tmp_path / "fit.bins.csv").read_bytes() == (DATA / "sim_golden.fit.bins.csv").read_bytes()


def test_every_traced_name_is_called_where_the_tracer_wraps_it(tmp_path, monkeypatch, capsys):
    # The benchmark's tracer wraps module and class attributes, such as
    # cli.fit_exponential: a caller that bound one of them at import would
    # drop out of the per-layer metrics unseen.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import Tracer, instrument

    class PairTracer(Tracer):
        """Names each span after its layer and the (owner, attribute) pair it wraps."""

        def __init__(self):
            super().__init__()
            self.wrapped: set[str] = set()

        def wrap(self, owner, attr, name, count=None):
            pair = f"{getattr(owner, '__name__', owner)}.{attr}"
            if getattr(owner, attr, None) is not None:
                self.wrapped.add(pair)
            super().wrap(owner, attr, f"{name} {pair}", count)

    tracer = PairTracer()
    instrument(tracer)
    try:
        sim, scored = tmp_path / "sim.csv", tmp_path / "scored.csv"
        assert run("simulate", "--config", DATA / "sim_golden.ini", "--output", sim) == 0
        assert run("score", "--input", sim, "--output", scored) == 0
        assert run("fit", "--input", scored, "--output", tmp_path / "fit.json") == 0
        assert run("fit", "--input", scored, "--output", tmp_path / "raw.json", "--raw-points") == 0
        assert run("report", "--input", scored, "--output", tmp_path / "grid.csv") == 0
    finally:
        tracer.unwrap_all()
    called = {span[0] for span in tracer.spans}
    assert {name.split()[1] for name in called} == tracer.wrapped
    assert len({name.split()[0] for name in called}) == 15
    untraced = [line for line in capsys.readouterr().err.splitlines() if "not traced" in line]
    assert untraced == [
        "trace: volteqa.simulate.compute_transit_jitter not found, not traced",
        "trace: volteqa.simulate.estimate_ploss not found, not traced",
    ]


def test_golden_fits_converge_and_never_lose_to_the_line(tmp_path):
    # The log-decay model of old ran both of these fits into the
    # 200-iteration cap, ending above the line's SSE for AMR (87.27 > 86.17).
    golden = json.loads((DATA / "sim_golden.fit.json").read_text(encoding="utf-8"))
    for codec in ("AMR", "AMR-WB"):
        fits = golden["codecs"][codec]["fits"]
        assert fits["exponential"]["converged"]
        assert fits["exponential"]["iterations"] <= 50
        assert fits["exponential"]["sse"] <= fits["linear"]["sse"]


def test_raw_point_fits_tell_the_curve_from_the_line(tmp_path):
    # CDRs whose R follows the target exponential (AMR) or the target line
    # (AMR-WB) of conftest over a loss of (tx - rx) / rx in [0, 0.2], with
    # noise of 2 R points; one seeded draw.
    rng = np.random.default_rng(1)
    rows = 4000
    wideband = rng.random(rows) < 0.3
    tx = rng.integers(1000, 3001, rows)
    rx = np.rint(tx / (1.0 + rng.uniform(0.0, 0.2, rows))).astype(np.int64)
    p_loss = (tx - rx) / rx
    r = np.where(wideband, line_curve(p_loss), exp_curve(p_loss)) + rng.normal(0.0, 2.0, rows)
    cdr = tmp_path / "cdr.csv"
    cdr.write_text(
        ",".join(CDR_COLUMNS) + "\n" + "".join(
            f"f{i},{'AMR-WB' if wb else 'AMR'},{t},{x},2.0,4.0,{q!r}\n"
            for i, (wb, t, x, q) in enumerate(zip(wideband.tolist(), tx.tolist(), rx.tolist(), r.tolist()))
        ),
        encoding="utf-8",
    )
    scored, fit_json = tmp_path / "scored.csv", tmp_path / "fit.json"
    assert run("score", "--input", cdr, "--output", scored) == 0
    assert run("fit", "--input", scored, "--output", fit_json, "--raw-points", "--model", "both") == 0
    fits = {codec: entry["fits"] for codec, entry in json.loads(fit_json.read_text(encoding="utf-8"))["codecs"].items()}
    for codec in ("AMR", "AMR-WB"):
        assert fits[codec]["exponential"]["converged"]
        assert fits[codec]["exponential"]["iterations"] <= 20
        assert fits[codec]["exponential"]["sse"] <= fits[codec]["linear"]["sse"]
    # One draw lands outside 2 standard errors 1 time in 20 (this one gives
    # AMR-WB k = -0.275 +- 0.110); test_analytics checks that calibration
    # over many draws, so here the bound is 3.
    amr, wb = fits["AMR"]["exponential"], fits["AMR-WB"]["exponential"]
    assert amr["params"]["k"] == pytest.approx(1.0 / EXP_DECAY, abs=3.0 * amr["k_se"])
    assert amr["k_se"] < 0.5
    assert abs(wb["params"]["k"]) <= 3.0 * wb["k_se"]


def _rewrite(source: Path, target: Path, how: str) -> Path:
    """A copy of a CSV with CR LF line ends, or with every flow id quoted."""
    lines = source.read_text(encoding="utf-8").splitlines()
    if how == "quoted_ids":
        lines[1:] = ['"' + line.replace(",", '",', 1) for line in lines[1:]]
    target.write_bytes(("\r\n" if how == "crlf" else "\n").join(lines + [""]).encode())
    return target


@pytest.mark.parametrize("how", ["crlf", "quoted_ids"])
def test_stages_reproduce_goldens_from_text_for_csv_reader(tmp_path, how):
    # Such text leaves the comma splitter for csv.reader; the outputs are
    # those of the plain text.
    source = _rewrite(DATA / "cdr_golden.csv", tmp_path / "cdr.csv", how)
    assert source.read_bytes() != (DATA / "cdr_golden.csv").read_bytes()
    assert run("score", "--input", source, "--output", tmp_path / "s.csv", "--summary", tmp_path / "s.json") == 0
    assert (tmp_path / "s.csv").read_bytes() == (DATA / "cdr_golden.scored.csv").read_bytes()
    assert (tmp_path / "s.json").read_bytes() == (DATA / "cdr_golden.summary.json").read_bytes()

    scored = _rewrite(_score_sim_golden(tmp_path), tmp_path / "sim_scored.csv", how)
    assert run("fit", "--input", scored, "--output", tmp_path / "fit.json", "--model", "both") == 0
    assert (tmp_path / "fit.json").read_bytes() == (DATA / "sim_golden.fit.json").read_bytes()
    assert (tmp_path / "fit.bins.csv").read_bytes() == (DATA / "sim_golden.fit.bins.csv").read_bytes()
    for extra, golden in (((), "sim_golden.report.csv"), (("--j-range", "0:20"), "sim_golden.report_j20.csv")):
        assert run("report", "--input", scored, "--output", tmp_path / "grid.csv", *extra) == 0
        assert (tmp_path / "grid.csv").read_bytes() == (DATA / golden).read_bytes()


# ---------------------------------------------------------------- report


def test_report_single_flow_single_cell(tmp_path):
    scored = tmp_path / "scored.csv"
    _write_scored(scored, [("f0", "AMR", "0.05", "80.0")])
    grid_csv = tmp_path / "grid.csv"
    assert run("report", "--input", scored, "--output", grid_csv) == 0
    rows = read_rows(grid_csv)
    assert len(rows) == 100  # 10 x 10 cells, empties included
    occupied = [r for r in rows if int(r["count"]) > 0]
    assert len(occupied) == 1
    assert occupied[0]["mean_r"] == "80"
    empty = [r for r in rows if int(r["count"]) == 0]
    assert all(r["mean_r"] == "" for r in empty)


def test_report_1x1_grid_is_global_mean(tmp_path):
    scored = tmp_path / "scored.csv"
    _write_scored(
        scored,
        [("f0", "AMR", "0.05", "80.0"), ("f1", "AMR", "0.15", "60.0"),
         ("f2", "AMR", "0.1", "70.0")],
    )
    grid_csv = tmp_path / "grid.csv"
    assert run("report", "--input", scored, "--output", grid_csv,
               "--bins", 1, "--j-bins", 1, "--j-range", "0:50") == 0
    rows = read_rows(grid_csv)
    assert len(rows) == 1
    assert rows[0]["count"] == "3"
    assert float(rows[0]["mean_r"]) == pytest.approx(70.0)


def test_report_wideband_dominates_narrowband_cellwise(tmp_path):
    sweeps = "bernoulli(0.02), bernoulli(0.08), bernoulli(0.15)"
    grids = {}
    for codec in (Codec.AMR, Codec.AMR_WB):
        config = tmp_path / f"sim_{codec.name}.ini"
        config.write_text(
            f"[sim]\nflows = 400\npackets_per_flow = 80\nseed = 17\n"
            f"codec_mix = {codec.value}:1.0\nloss_models = {sweeps}\n"
            f"jitter_models = gaussian(6)\nbase_delay_ms = 30\n",
            encoding="utf-8",
        )
        dataset = tmp_path / f"data_{codec.name}.csv"
        scored = tmp_path / f"scored_{codec.name}.csv"
        grid_csv = tmp_path / f"grid_{codec.name}.csv"
        assert run("simulate", "--config", config, "--output", dataset) == 0
        assert run("score", "--input", dataset, "--output", scored) == 0
        assert run("report", "--input", scored, "--output", grid_csv,
                   "--j-range", "0:60") == 0
        grids[codec] = {
            (r["p_loss_bin"], r["j_max_bin"]): r for r in read_rows(grid_csv)
        }
    compared = 0
    for key, amr_cell in grids[Codec.AMR].items():
        wb_cell = grids[Codec.AMR_WB][key]
        if int(amr_cell["count"]) > 0 and int(wb_cell["count"]) > 0:
            assert float(wb_cell["mean_r"]) >= float(amr_cell["mean_r"])
            compared += 1
    assert compared >= 3


@pytest.mark.parametrize(
    "extra,golden",
    [((), "sim_golden.report.csv"), (("--j-range", "0:20"), "sim_golden.report_j20.csv")],
)
def test_report_reproduces_golden_on_scored_sim_dataset(tmp_path, extra, golden):
    out = tmp_path / "grid.csv"
    assert run("report", "--input", _score_sim_golden(tmp_path), "--output", out, *extra) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


# ------------------------------------------------------- scored input


def _scored_rows():
    return [
        {
            "flow_id": f"f{i}",
            "codec": "AMR",
            "tx_packets": "100",
            "rx_packets": "99",
            "avg_jitter_ms": "1.0",
            "max_jitter_ms": repr(float(1 + i % 7)),
            "r_factor": repr(float(90 - 150 * x)),
            "p_loss": repr(float(x)),
            "mos": "",
            "r_factor_computed": "",
        }
        for i, x in enumerate(np.repeat(BIN_MEDIANS, 3))
    ]


def _write_rows(path: Path, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, SCORED_HEADER.split(","), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "command,column,value,reason",
    [
        ("fit", "p_loss", "", "p_loss empty"),
        ("fit", "p_loss", "abc", "p_loss not a number"),
        ("fit", "p_loss", "nan", "p_loss not finite"),
        ("fit", "r_factor", "abc", "r_factor not a number"),
        ("fit", "r_factor", "", "r_factor_computed empty"),
        ("fit", "codec", "EVS", "unknown codec"),
        ("report", "p_loss", "", "p_loss empty"),
        ("report", "p_loss", "nan", "p_loss not finite"),
        ("report", "max_jitter_ms", "abc", "max_jitter_ms not a number"),
        ("report", "max_jitter_ms", "inf", "max_jitter_ms not finite"),
        ("report", "r_factor", "-inf", "r_factor not finite"),
        ("fit", "r_factor", "-0.5", "r_factor out of range"),
        ("report", "r_factor", "100.5", "r_factor out of range"),
    ],
)
def test_malformed_scored_cell_is_a_counted_skip(tmp_path, capsys, command, column, value, reason):
    good = _scored_rows()
    bad = dict(good[0], flow_id="bad", **{column: value})
    _write_rows(tmp_path / "clean.csv", good)
    _write_rows(tmp_path / "dirty.csv", good[:5] + [bad] + good[5:])
    _write_rows(tmp_path / "broken.csv", [dict(row, **{column: value}) for row in good])
    suffixes = (".json", ".bins.csv") if command == "fit" else (".csv",)

    def outputs(stem):
        return [(tmp_path / f"out_{stem}").with_suffix(s).read_bytes() for s in suffixes]

    for stem in ("clean", "dirty", "broken"):
        out = (tmp_path / f"out_{stem}").with_suffix(suffixes[0])
        code = run(command, "--input", tmp_path / f"{stem}.csv", "--output", out)
        err = capsys.readouterr().err
        if stem == "dirty":
            assert code == 0
            assert f"skipped rows: {reason}=1\n" in err
        else:
            assert code in (0, 1)
    # The skipped row leaves no trace in the outputs.
    assert outputs("dirty") == outputs("clean")


def test_blank_cells_read_as_empty(tmp_path, capsys):
    # A blank measured quality falls back to the recomputed one, blank too.
    rows = [dict(row, r_factor=" ", r_factor_computed="  ") for row in _scored_rows()[:2]]
    _write_rows(tmp_path / "blank.csv", _scored_rows()[2:] + rows)
    assert run("fit", "--input", tmp_path / "blank.csv", "--output", tmp_path / "o.json") == 0
    assert "skipped rows: r_factor_computed empty=2\n" in capsys.readouterr().err


def test_quality_off_its_codec_scale_is_a_counted_skip(tmp_path, capsys):
    # score refuses R off the codec's scale, but a foreign or hand-made
    # scored file can hold it: fit and report skip and count such a row,
    # and no output holds a figure that overflowed.
    good = _scored_rows()
    huge = [dict(good[0], flow_id=f"h{i}", p_loss=repr(i * 0.005), r_factor=repr(1e200 + i * 2.5e198))
            for i in range(40)]
    # An AMR-WB row whose quality comes from r_factor_computed, just off 129.
    computed = dict(good[1], flow_id="wb", codec="AMR-WB", r_factor="", r_factor_computed="129.5")
    _write_rows(tmp_path / "clean.csv", good)
    _write_rows(tmp_path / "dirty.csv", good + huge + [computed])

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    docs = {}
    for stem in ("clean", "dirty"):
        assert run("fit", "--input", tmp_path / f"{stem}.csv", "--output", tmp_path / f"{stem}.json") == 0
        docs[stem] = json.loads((tmp_path / f"{stem}.json").read_text(encoding="utf-8"), parse_constant=refuse)
    assert capsys.readouterr().err == (
        f"warning: {tmp_path / 'dirty.csv'}: skipped rows: "
        "r_factor out of range=40, r_factor_computed out of range=1\n"
    )
    assert docs["dirty"] == docs["clean"]

    # Six R beyond half the largest float would overflow a cell's sum.
    wild = [dict(good[0], flow_id=f"w{i}", r_factor="1.5e308") for i in range(6)]
    wild.append(dict(good[0], flow_id="wb", codec="AMR-WB", r_factor="-40"))
    _write_rows(tmp_path / "wild.csv", good + wild)
    for stem in ("clean", "wild"):
        assert run("report", "--input", tmp_path / f"{stem}.csv", "--output", tmp_path / f"{stem}.grid.csv") == 0
    assert capsys.readouterr().err == f"warning: {tmp_path / 'wild.csv'}: skipped rows: r_factor out of range=7\n"
    means = [float(row["mean_r"]) for row in read_rows(tmp_path / "wild.grid.csv") if row["mean_r"]]
    assert means and all(0.0 <= mean <= Codec.AMR.r_max for mean in means)
    assert (tmp_path / "wild.grid.csv").read_bytes() == (tmp_path / "clean.grid.csv").read_bytes()


@pytest.mark.parametrize("path", ["split", "csv_reader"])
@pytest.mark.parametrize("chunk", (1, 2, 3, ingest.CHUNK_ROWS))
@pytest.mark.parametrize("command", ["fit", "report"])
def test_short_scored_row_counts_its_missing_cell_as_empty(tmp_path, capsys, command, chunk, path):
    _write_rows(tmp_path / "clean.csv", _scored_rows())
    lines = (tmp_path / "clean.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    if path == "csv_reader":  # a quoted field sends the whole file to csv.reader
        lines[1] = '"' + lines[1].replace(",", '",', 1)
    # The row ends after r_factor: its p_loss, mos and r_factor_computed are missing.
    short = "short," + ",".join(lines[2].split(",")[1:7]) + "\n"
    (tmp_path / "clean.csv").write_text("".join(lines), encoding="utf-8")
    (tmp_path / "dirty.csv").write_text("".join(lines[:6] + [short] + lines[6:]), encoding="utf-8")
    suffixes = (".json", ".bins.csv") if command == "fit" else (".csv",)
    outputs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_ROWS", chunk)
        if path == "split":
            patch.setattr(ingest, "_reader_blocks", None)  # calling it fails the test
        for stem in ("clean", "dirty"):
            out = tmp_path / f"out_{stem}{suffixes[0]}"
            assert run(command, "--input", tmp_path / f"{stem}.csv", "--output", out) == 0
            outputs[stem] = [out.with_suffix(s).read_bytes() for s in suffixes]
            assert capsys.readouterr().err == (
                f"warning: {tmp_path / 'dirty.csv'}: skipped rows: p_loss empty=1\n" if stem == "dirty" else ""
            )
    assert outputs["dirty"] == outputs["clean"]


SCORED_NAMES = ["codec", "p_loss", "max_jitter_ms", "r_factor", "r_factor_computed", "mos"]
# Finite numbers (the Unicode one is Arabic-Indic 12) three times as often
# as blank, padded, non-numeric and non-finite cells; codecs likewise.
# \x1c-\x1f are whitespace to strip() but not to float().
NUMBER_CELLS = st.sampled_from(
    ["0.05", " 0.1 ", "-0.0", "7", "1e-3", "1_000", "+5", "\u0661\u0662", "\x1c0.15\x1f", "80"] * 3
    + ["", "  ", "\x1d", "nan", "inf", "1e999", "abc"]
)
CODEC_CELLS = st.sampled_from(["AMR", "AMR-WB"] * 3 + ["EVS", "", " AMR"])
# Cells that numpy's C reader reads as they are: finite numbers with no
# padding, and codec texts, one of them unknown and one cut to a text
# that names no codec.
PLAIN_NUMBER_CELLS = st.sampled_from(["0.05", "-0.0", "7", "1e-3", "+5", "0.15", "80"])
PLAIN_CODEC_CELLS = st.sampled_from(["AMR", "AMR-WB"] * 3 + ["EVS", "AMR-WB-2"])


@st.composite
def scored_csv(draw, plain: bool = False) -> str:
    """A scored CSV: the header names in any order, some left out and some
    repeated; then blank, short, long and full rows.  Lines end in LF or
    CR LF, and cells are quoted where they must be or all of them.

    A ``plain`` file holds only plain cells in full and long rows, with LF
    line ends and no quotes."""
    names = draw(st.permutations(SCORED_NAMES))
    header = names[: draw(st.integers(3, len(names)))]
    header += draw(st.lists(st.sampled_from(SCORED_NAMES), max_size=2))
    codecs, numbers = (PLAIN_CODEC_CELLS, PLAIN_NUMBER_CELLS) if plain else (CODEC_CELLS, NUMBER_CELLS)
    full = st.tuples(*(codecs if name == "codec" else numbers for name in header)).map(list)
    short, long = full.map(lambda r: r[: len(r) // 2]), full.map(lambda r: r + ["x"])
    row = st.one_of(full, full, long) if plain else st.one_of(full, full, full, short, long, st.just([]))
    buffer = io.StringIO()
    csv.writer(
        buffer,
        lineterminator="\n" if plain else draw(st.sampled_from(["\n", "\n", "\r\n"])),
        quoting=csv.QUOTE_MINIMAL if plain else draw(
            st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
        ),
    ).writerows([header, *draw(st.lists(row, max_size=12))])
    return buffer.getvalue()


def _samples_or_error(read, path, wanted, columns):
    """What ``read`` returns, or the code and message of its CliError, and its stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            result = read(path, wanted, columns)
        except CliError as exc:
            result = (exc.code, str(exc))
    return result, err.getvalue()


def _assert_read_samples_match_oracle(path, wanted, columns, chunk: int, **patches) -> None:
    """``cli._read_samples`` in blocks of ``chunk`` rows, with the names of
    ``ingest`` in ``patches`` replaced, gives the samples, their order and
    the stderr of ``reference_read_samples``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_ROWS", chunk)
        for name, value in patches.items():
            patch.setattr(ingest, name, value)
        got, err = _samples_or_error(cli._read_samples, path, wanted, columns)
    expected, expected_err = _samples_or_error(reference_read_samples, path, wanted, columns)
    assert err == expected_err
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert list(got) == list(expected)
    for codec, samples in got.items():
        assert samples.dtype == np.float64 and samples.shape == (len(expected[codec]), len(columns) + 1)
        # repr tells -0.0 from 0.0.
        assert repr(samples.tolist()) == repr([list(sample) for sample in expected[codec]])


@pytest.mark.parametrize("chunk", (1, 2, 3, ingest.CHUNK_ROWS))
@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    plain=st.booleans(),
    data=st.data(),
    wanted=st.sampled_from([None, Codec.AMR, Codec.AMR_WB]),
    columns=st.sampled_from([("p_loss",), ("p_loss", "max_jitter_ms")]),
)
def test_read_samples_matches_per_row_oracle(chunk, plain, data, wanted, columns):
    text = data.draw(scored_csv(plain), label="text")
    # numpy's C reader reads every block of a plain file: splitting one fails the test.
    patches = {"_split_lines": None} if plain else {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scored.csv")
        Path(path).write_text(text, encoding="utf-8")
        _assert_read_samples_match_oracle(path, wanted, columns, chunk, **patches)


@pytest.mark.parametrize("chunk", (1, 2))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    plain=st.booleans(),
    data=st.data(),
    wanted=st.sampled_from([None, Codec.AMR, Codec.AMR_WB]),
    columns=st.sampled_from([("p_loss",), ("p_loss", "max_jitter_ms")]),
)
def test_read_samples_split_with_a_worker_matches_per_row_oracle(chunk, plain, data, wanted, columns):
    text = data.draw(scored_csv(plain), label="text")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # Every file is shared with a worker, on two CPUs.
        patch.setattr(cli, "_SPLIT_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = str(Path(tmp) / "scored.csv")
        Path(path).write_text(text, encoding="utf-8")
        with within_a_minute("_read_samples"):
            _assert_read_samples_match_oracle(path, wanted, columns, chunk)
    assert_no_child_left()


def _counting(calls: list, function):
    """``function``, which appends its arguments to ``calls`` first."""
    return lambda *args: calls.append(args) or function(*args)


CLEAN_SCORED_ROW = "f1,AMR,100,90,1.5,3.25,80.5,0.1,4.1,79.5"


def _scored_line(**cells: str) -> str:
    """The clean scored row with ``cells`` put in, as one line."""
    row = dict(zip(SCORED_HEADER.split(","), CLEAN_SCORED_ROW.split(","))) | cells
    return ",".join(row.values()) + "\n"


# One line of each kind that might throw numpy's C reader, and whether it
# refuses it, so that the block is split and read cell by cell.  Neither
# a long row nor a blank one is refused, nor is a codec cell that names no
# codec: the oracle skips it as an unknown codec.
BLOCK_TRIGGERS = [
    (_scored_line(r_factor=""), True),  # r_factor_computed stands in
    (_scored_line(p_loss="nan"), True),
    (_scored_line(r_factor="1e999"), True),
    ("f2,AMR,100,90\n", True),  # short
    (_scored_line().replace("\n", ",x\n"), False),  # long
    ("   \n", True),
    ("\n", False),
    (_scored_line(codec=" AMR"), False),
    (_scored_line(codec="AMR-WBX"), False),
    (_scored_line(p_loss="1_000"), True),
    (_scored_line(r_factor="\u0661\u0662"), True),  # Arabic-Indic 12, which float() reads
]


@pytest.mark.parametrize("wanted", [None, Codec.AMR])
@pytest.mark.parametrize("columns", [("p_loss",), ("p_loss", "max_jitter_ms")])
def test_read_samples_splits_only_the_blocks_the_c_reader_refuses(tmp_path, wanted, columns):
    # Blocks of two rows: a clean block, then a clean row and one trigger
    # in each, then a quoted cell, which hands the rest to csv.reader.
    clean = [_scored_line(), _scored_line(codec="AMR-WB", r_factor="110.25", p_loss="0.05")]
    lines = clean + [line for i, (trigger, _) in enumerate(BLOCK_TRIGGERS) for line in (clean[i % 2], trigger)]
    lines += ['"f3"' + _scored_line()[2:], *clean]
    path = tmp_path / "scored.csv"
    path.write_text(SCORED_HEADER + "\n" + "".join(lines), encoding="utf-8")
    split, read = [], []
    _assert_read_samples_match_oracle(
        str(path), wanted, columns, 2,
        _split_lines=_counting(split, ingest._split_lines),
        _reader_blocks=_counting(read, ingest._reader_blocks),
    )
    assert len(split) == sum(refused for _, refused in BLOCK_TRIGGERS)
    assert len(read) == 1


@pytest.mark.parametrize("chunk", [1, 2])
def test_a_block_of_blank_lines_raises_no_warning(tmp_path, chunk):
    # In blocks of 1 or 2 rows, the blank lines make blocks of their own.
    path = tmp_path / "scored.csv"
    path.write_text(SCORED_HEADER + "\n" + _scored_line() * 2 + "\n\n" + _scored_line(), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_read_samples_match_oracle(str(path), None, ("p_loss",), chunk)


@pytest.mark.parametrize("command", ["fit", "report"])
def test_fit_and_report_read_a_clean_scored_file_without_splitting_it(tmp_path, monkeypatch, command):
    calls = []
    monkeypatch.setattr(ingest, "_split_lines", _counting(calls, ingest._split_lines))
    scored = _score_sim_golden(tmp_path)
    assert calls  # score splits every block: it parses every cell
    calls.clear()
    out = tmp_path / ("fit.json" if command == "fit" else "grid.csv")
    assert run(command, "--input", scored, "--output", out) == 0
    assert calls == []
    assert out.read_bytes() == (DATA / f"sim_golden.{command}{out.suffix}").read_bytes()


# ------------------------------------------------------------ bad input


SIM_CONFIG = "[sim]\nflows = 3\npackets_per_flow = 10\nseed = 1\n"
CDR = str(DATA / "cdr_golden.csv")
SCORED = str(DATA / "cdr_golden.scored.csv")


def _bad_input_files(tmp_path: Path) -> None:
    (tmp_path / "sim.ini").write_text(SIM_CONFIG, encoding="utf-8")
    (tmp_path / "no_section.ini").write_text("flows = 3\n", encoding="utf-8")
    (tmp_path / "dup_sim.ini").write_text(SIM_CONFIG + "seed = 2\n", encoding="utf-8")
    (tmp_path / "dup_profile.ini").write_text("[AMR]\nie = 1\nie = 2\n", encoding="utf-8")
    (tmp_path / "nan_profile.ini").write_text("[AMR]\nbpl = nan\n", encoding="utf-8")
    (tmp_path / "nan_profile_sim.ini").write_text(SIM_CONFIG + "[AMR]\nbpl = nan\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("[sim]\nflows = 3\n# caf\u00e9\n".encode("latin-1"))
    (tmp_path / "dir").mkdir()
    # One field beyond the csv module's default 128 KiB field limit.
    (tmp_path / "huge_field.csv").write_text(f"{','.join(CDR_COLUMNS)}\n{'x' * 200_000},AMR\n", encoding="utf-8")
    (tmp_path / "huge_scored_field.csv").write_text(f"{SCORED_HEADER}\nf1,AMR\n{'x' * 200_000},AMR\n", encoding="utf-8")
    # The largest jitter is the smallest subnormal float: the default
    # jitter range 0:max is too narrow to split into distinct bin edges.
    (tmp_path / "tiny_jitter.csv").write_text(
        SCORED_HEADER + "\n" + "".join(f"f{i},AMR,100,99,0.0,5e-324,80,0.0{i},,\n" for i in range(3)),
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "argv,code",
    [
        ("simulate --config {tmp}/no_section.ini --output {tmp}/o.csv", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/no_section.ini", "CONFIG"),
        ("simulate --config {tmp}/dup_sim.ini --output {tmp}/o.csv", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/dup_profile.ini", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/nan_profile.ini", "CONFIG"),
        ("simulate --config {tmp}/nan_profile_sim.ini --output {tmp}/o.csv", "CONFIG"),
        ("simulate --config {tmp}/latin1.txt --output {tmp}/o.csv", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/latin1.txt", "CONFIG"),
        ("score --input {tmp}/latin1.txt --output {tmp}/o.csv", "SCHEMA"),
        ("fit --input {tmp}/latin1.txt --output {tmp}/o.json", "SCHEMA"),
        ("report --input {tmp}/latin1.txt --output {tmp}/o.csv", "SCHEMA"),
        ("score --input {tmp}/huge_field.csv --output {tmp}/o.csv", "SCHEMA"),
        ("fit --input {tmp}/huge_scored_field.csv --output {tmp}/o.json", "SCHEMA"),
        ("report --input {tmp}/huge_scored_field.csv --output {tmp}/o.csv", "SCHEMA"),
        ("simulate --config {tmp}/dir --output {tmp}/o.csv", "CONFIG_UNREADABLE"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/dir", "CONFIG_UNREADABLE"),
        ("score --input {tmp}/dir --output {tmp}/o.csv", "INPUT_UNREADABLE"),
        ("fit --input {tmp}/dir --output {tmp}/o.json", "INPUT_UNREADABLE"),
        ("report --input {tmp}/dir --output {tmp}/o.csv", "INPUT_UNREADABLE"),
        ("simulate --config {tmp}/nope.ini --output {tmp}/o.csv", "CONFIG_NOT_FOUND"),
        ("fit --input {tmp}/nope.csv --output {tmp}/o.json", "INPUT_NOT_FOUND"),
        ("simulate --config {tmp}/sim.ini --output {tmp}/missing/o.csv", "OUTPUT_UNWRITABLE"),
        ("score --input {cdr} --output {tmp}/missing/o.csv", "OUTPUT_UNWRITABLE"),
        ("score --input {cdr} --output {tmp}/o.csv --summary {tmp}/missing/s.json", "OUTPUT_UNWRITABLE"),
        ("fit --input {scored} --output {tmp}/missing/o.json --model linear --codec AMR", "OUTPUT_UNWRITABLE"),
        ("report --input {scored} --output {tmp}/missing/o.csv", "OUTPUT_UNWRITABLE"),
        ("fit --input {scored} --output {tmp}/o.json --bins 0", "BAD_BINS"),
        ("fit --input {scored} --output {tmp}/o.json --bins -3", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --bins 0", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --j-bins 0", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --j-bins -1", "BAD_BINS"),
        # Edges or cells of 0.8 EB and more cannot be allocated; beyond
        # about 2**60 bins numpy cannot even address them.
        ("fit --input {scored} --output {tmp}/o.json --bins 1000000000000000000", "BAD_BINS"),
        ("fit --input {scored} --output {tmp}/o.json --bins 10000000000000000000", "BAD_BINS"),
        ("fit --input {scored} --output {tmp}/o.json --bins 9223372036854775806", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --bins 1000000000000000000", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --j-bins 1000000000000000000", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --bins 100000000000000000 --j-bins 1", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --bins 1 --j-bins 100000000000000000", "BAD_BINS"),
        ("report --input {scored} --output {tmp}/o.csv --j-range 0:inf", "BAD_RANGE"),
        ("report --input {scored} --output {tmp}/o.csv --range=-inf:0.2", "BAD_RANGE"),
        # --j-range is checked before the input is read, as --range is.
        ("report --input {tmp}/nope.csv --output {tmp}/o.csv --j-range 5:1", "BAD_RANGE"),
        ("fit --input {scored} --output {tmp}/o.json --range 0:inf", "BAD_RANGE"),
        ("fit --input {scored} --output {tmp}/o.json --range 0:5e-324", "BAD_RANGE"),
        ("fit --input {scored} --output {tmp}/o.json --range 0:5e-324 --model linear", "BAD_RANGE"),
        ("report --input {tmp}/tiny_jitter.csv --output {tmp}/o.csv", "BAD_RANGE"),
        # Every argument is checked before the input is read, and a range
        # too narrow for its bins names its flag.
        ("fit --input {scored} --output {tmp}/o.json --range 0:5e-324", "BAD_RANGE: --range"),
        ("report --input {scored} --output {tmp}/o.csv --range 0:5e-324", "BAD_RANGE: --range"),
        ("report --input {scored} --output {tmp}/o.csv --j-range 0:5e-324", "BAD_RANGE: --j-range"),
        ("report --input {tmp}/tiny_jitter.csv --output {tmp}/o.csv", "BAD_RANGE: --j-range default"),
        ("fit --input {tmp}/nope.csv --output {tmp}/o.json --range 0:5e-324", "BAD_RANGE"),
        ("report --input {tmp}/latin1.txt --output {tmp}/o.csv --j-range 0:5e-324", "BAD_RANGE"),
        ("fit --input {tmp}/nope.csv --output {tmp}/nope.csv", "OUTPUT_UNWRITABLE"),
        ("fit --input {tmp}/latin1.txt --output {tmp}/o.json --bins-output {tmp}/latin1.txt", "OUTPUT_UNWRITABLE"),
        ("report --input {tmp}/nope.csv --output {tmp}/nope.csv", "OUTPUT_UNWRITABLE"),
        ("simulate --config {tmp}/sim.ini --output {tmp}/o.csv --seed -1", "CONFIG"),
    ],
)
def test_bad_input_is_a_coded_error(tmp_path, capsys, argv, code):
    _bad_input_files(tmp_path)
    args = argv.format(tmp=tmp_path, cdr=CDR, scored=SCORED).split()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}: ")
    assert "Traceback" not in err


def test_report_checks_j_bins_before_it_reads(tmp_path, capsys):
    # Edges too many to allocate end the command before the (missing) input
    # is read, also when the jitter range would come from the data.
    argv = ["report", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "o.csv"),
            "--j-bins", "100000000000000000"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: BAD_BINS: --j-bins: too many bins to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--input", CDR, "--output", "."],
        ["score", "--input", CDR, "--output", ""],
        ["fit", "--input", SCORED, "--output", "."],
        ["fit", "--input", SCORED, "--output", "/"],
        ["simulate", "--config", "sim.ini", "--output", "/"],
        ["report", "--input", SCORED, "--output", "."],
    ],
    ids=["score-dot", "score-empty", "fit-dot", "fit-root", "simulate-root", "report-dot"],
)
def test_an_output_with_no_file_name_is_a_coded_error(tmp_path, monkeypatch, capsys, argv):
    # "", "." and "/" name a directory, and no sidecar name can be made from them.
    (tmp_path / "sim.ini").write_text(SIM_CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: OUTPUT_UNWRITABLE: cannot write {Path(argv[-1])}: it names a directory\n"
    )
    assert sorted(tmp_path.iterdir()) == [tmp_path / "sim.ini"]


@pytest.mark.parametrize(
    "argv, failed",
    [
        ("score --input {cdr} --output {tmp}/o.csv --summary {tmp}/nodir/x.json", "nodir/x.json"),
        ("simulate --config {tmp}/sim.ini --output {tmp}/d.csv --meta {tmp}/nodir/m.json", "nodir/m.json"),
        ("fit --model linear --codec AMR --input {scored} --output {tmp}/fit.json --bins-output {tmp}/nodir/b.csv",
         "nodir/b.csv"),
    ],
    ids=["score", "simulate", "fit"],
)
def test_a_failed_output_leaves_none_of_the_commands_outputs(tmp_path, capsys, argv, failed):
    # Every output is opened before any is written, so the first is
    # removed with the rest when a later one cannot be opened.
    (tmp_path / "sim.ini").write_text(SIM_CONFIG, encoding="utf-8")
    assert main(argv.format(tmp=tmp_path, cdr=CDR, scored=SCORED).split()) == 1
    assert capsys.readouterr().err == (
        f"error: OUTPUT_UNWRITABLE: cannot write {tmp_path / failed}: No such file or directory\n"
    )
    assert sorted(tmp_path.iterdir()) == [tmp_path / "sim.ini"]


@pytest.mark.parametrize(
    "line",
    [
        "jitter_models = gaussian(nan)",
        "jitter_models = gamma(2, inf)",
        "loss_models = bernoulli(nan)",
        "ptime_ms = nan",
        "ptime_ms = 0",
        "ptime_ms = -20",
        "base_delay_ms = nan",
        "initial_delay_ms = inf",
        "safety_factor = nan",
        "codec_mix = AMR:nan",
        "codec_mix = AMR:1.5, AMR-WB:-0.5",
        "seed = -5",
        # The last send time, (packets_per_flow - 1) * ptime_ms, overflows.
        "ptime_ms = 1e308",
        # More packets than any array can hold: rejected before allocating.
        "packets_per_flow = " + "9" * 400,
        "packets_per_flow = 10000000000000000000",
        "packets_per_flow = 0",
        # Integer keys name themselves.
        "flows = 10.0",
        "packets_per_flow = 1e3",
        "seed = x1",
        "window = 2.5",
        # Model lists are comma-separated name or name(args) items, nothing else.
        "loss_models = bernoulli(0.1) 0.2",
        "loss_models = bernoulli(0.1) + 7",
        "loss_models = bernoulli(0.1); bernoulli(0.2)",
        "loss_models = bernoulli(0.1),",
        "jitter_models = gaussian(4) 12",
        "jitter_models = gaussian(4",
    ],
)
def test_bad_sim_config_value_is_rejected_at_load(tmp_path, capsys, line):
    key = line.split()[0]
    rows = [row for row in SIM_CONFIG.splitlines() if not row.startswith(key)]
    config = tmp_path / "sim.ini"
    config.write_text("\n".join(rows + [line]) + "\n", encoding="utf-8")
    assert run("simulate", "--config", config, "--output", tmp_path / "o.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG: ") and key in err
    assert not (tmp_path / "o.csv").exists()


def test_model_list_error_names_the_key_and_text(tmp_path, capsys):
    config = tmp_path / "sim.ini"
    config.write_text(SIM_CONFIG + "jitter_models = gaussian(4) 12\n", encoding="utf-8")
    assert run("simulate", "--config", config, "--output", tmp_path / "o.csv") == 1
    assert capsys.readouterr().err == (
        "error: CONFIG: jitter_models: not a comma-separated list of name or name(args): "
        "'gaussian(4) 12'\n"
    )


def test_huge_packets_per_flow_is_a_config_error(tmp_path, capsys):
    # 10**18 packets exceed any address space, so the first allocation
    # fails at once.
    config = tmp_path / "sim.ini"
    config.write_text("[sim]\nflows = 1\npackets_per_flow = 1000000000000000000\nseed = 1\n", encoding="utf-8")
    assert run("simulate", "--config", config, "--output", tmp_path / "o.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG: packets_per_flow") and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_integer_sim_key_error_names_the_key(tmp_path, capsys):
    config = tmp_path / "sim.ini"
    config.write_text(SIM_CONFIG.replace("flows = 3", "flows = 10.0"), encoding="utf-8")
    assert run("simulate", "--config", config, "--output", tmp_path / "o.csv") == 1
    assert capsys.readouterr().err == "error: CONFIG: flows: not an integer: '10.0'\n"


def _config_error(tmp_path, capsys, command: str, config: str) -> str:
    """The stderr of ``command`` (simulate or score) run with ``config``,
    which must fail."""
    path = tmp_path / "config.ini"
    path.write_text(config, encoding="utf-8")
    out = tmp_path / "o.csv"
    if command == "simulate":
        assert run("simulate", "--config", path, "--output", out) == 1
    else:
        assert run("score", "--input", CDR, "--output", out, "--config", path) == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("simulate", SIM_CONFIG + "loss_models = bernoulli(0.1), pareto(1)\n", "loss_models: unknown model 'pareto'"),
        ("simulate", SIM_CONFIG + "jitter_models = Uniform(1, 2)\n", "jitter_models: unknown model 'uniform'"),
        ("simulate", SIM_CONFIG + "loss_models = bernoulli(0.1, 0.2)\n",
         "loss_models: bernoulli takes exactly one probability"),
        ("simulate", SIM_CONFIG + "loss_models = gilbert_elliott(0.1, 0.2, 0)\n",
         "loss_models: gilbert_elliott takes (p_good_to_bad, p_bad_to_good, loss_good, loss_bad)"),
        ("simulate", SIM_CONFIG + "jitter_models = none(3)\n", "jitter_models: none takes no arguments"),
        ("simulate", SIM_CONFIG + "jitter_models = gaussian\n", "jitter_models: gaussian takes exactly one sigma"),
        ("simulate", SIM_CONFIG + "jitter_models = gamma(2)\n", "jitter_models: gamma takes (shape, scale_ms)"),
        ("score", "[AMR]\nbogus = 1\n", "unknown profile key 'bogus' in [AMR]"),
        ("simulate", SIM_CONFIG + "[AMR-WB]\nBogus = 1\n", "unknown profile key 'bogus' in [AMR-WB]"),
        ("score", "[AMR-WB]\nr_max = 100\n", "r_max for AMR-WB is fixed at 129.0, got 100.0"),
        ("simulate", SIM_CONFIG + "[AMR]\nr_max = 1e2\nr0 = 101\n", "r0 - is = 101.0 exceeds r_max = 100.0 for AMR"),
        ("score", "[AMR]\nie = high\n", "[AMR] ie: not a number: 'high'"),
        ("simulate", SIM_CONFIG + "[AMR]\nis = 1e999\n", "[AMR] is: not finite: '1e999'"),
        ("simulate", SIM_CONFIG + "safety_factor = -inf\n", "safety_factor: not finite: '-inf'"),
        ("simulate", SIM_CONFIG + "jitter_models = gamma(2, NaN)\n", "jitter_models: gamma(...): not finite: 'NaN'"),
        ("simulate", SIM_CONFIG + "codec_mix = AMR:1.0, AMR-WB:half\n", "codec_mix: not a number: 'half'"),
        # A misspelt section is no codec's and not the sim spec's.
        ("score", "[amr]\nie = 5\n", "unknown section [amr]"),
        ("score", "[AMR_WB]\nbpl = 5\n", "unknown section [AMR_WB]"),
        ("simulate", SIM_CONFIG + "[simm]\nflows = 4\n", "unknown section [simm]"),
    ],
)
def test_config_error_message(tmp_path, capsys, command, config, message):
    assert _config_error(tmp_path, capsys, command, config) == f"error: CONFIG: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        # Every argument between the parentheses is one, an empty one too.
        ("jitter_models = gamma(2,,3)", "jitter_models: gamma(...): not a number: ''"),
        ("jitter_models = gamma(2,3,)", "jitter_models: gamma(...): not a number: ''"),
        ("jitter_models = gaussian( , 4)", "jitter_models: gaussian(...): not a number: ''"),
        ("loss_models = bernoulli(,)", "loss_models: bernoulli(...): not a number: ''"),
        ("codec_mix = AMR:0.5, AMR:0.5", "codec_mix names a codec more than once: AMR, AMR"),
        # An empty item of the codec mix is an error, as it is in a model list.
        ("codec_mix = AMR:0.71,, AMR-WB:0.29",
         "codec_mix: not a comma-separated list of codec:fraction: 'AMR:0.71,, AMR-WB:0.29'"),
        ("codec_mix = AMR:0.71, AMR-WB:0.29,",
         "codec_mix: not a comma-separated list of codec:fraction: 'AMR:0.71, AMR-WB:0.29,'"),
    ],
)
def test_empty_model_argument_or_repeated_codec_is_a_config_error(tmp_path, capsys, line, message):
    err = _config_error(tmp_path, capsys, "simulate", SIM_CONFIG + line + "\n")
    assert err == f"error: CONFIG: {message}\n"


def test_score_config_may_share_a_file_with_a_sim_spec(tmp_path):
    # README: profiles and sim specs share one file format.
    outputs = []
    for name, text in (("profile", "[AMR]\nie = 5\n"), ("shared", SIM_CONFIG + "[AMR]\nie = 5\n")):
        config, out = tmp_path / f"{name}.ini", tmp_path / f"{name}.csv"
        config.write_text(text, encoding="utf-8")
        assert run("score", "--input", CDR, "--output", out, "--config", config) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != (DATA / "cdr_golden.scored.csv").read_bytes()


@pytest.mark.parametrize(
    "lines, reasons",
    [
        # Every delay overflows to infinity, so every arrival does.
        (["base_delay_ms = 1e308", "jitter_models = gamma(2,1e308)"], {"ARRIVAL_NOT_FINITE"}),
        # Finite delays near the largest float: the play-out delay sums overflow.
        (["jitter_models = gaussian(1e308)"], {"PLAYOUT_NOT_FINITE"}),
        # On a 1e307 ms grid the jitter sums overflow too.
        (["jitter_models = gaussian(1e308)", "ptime_ms = 1e307", "flows = 30", "seed = 78"],
         {"ARRIVAL_NOT_FINITE", "JITTER_NOT_FINITE", "PLAYOUT_NOT_FINITE"}),
    ],
)
def test_simulate_overflowing_flows_are_counted_rejects(tmp_path, capsys, lines, reasons):
    keys = {line.split()[0] for line in lines}
    rows = [row for row in SIM_CONFIG.splitlines() if row.split(" ")[0] not in keys]
    config = tmp_path / "sim.ini"
    config.write_text("\n".join(rows + lines) + "\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    assert run("simulate", "--config", config, "--output", out) == 0
    assert capsys.readouterr().err == ""
    meta = json.loads((tmp_path / "o.csv.meta.json").read_text(encoding="utf-8"))
    assert {r["reason"] for r in meta["rejected"]} == reasons
    assert meta["flows_written"] == len(read_rows(out)) == 0


def test_score_huge_packet_counts_do_not_overflow(tmp_path):
    source = tmp_path / "huge.csv"
    source.write_text(f"{','.join(CDR_COLUMNS)}\nf1,AMR,{10 ** 400},1,1.0,2.0,\n", encoding="utf-8")
    assert run("score", "--input", source, "--output", tmp_path / "o.csv") == 0
    assert read_rows(tmp_path / "o.csv")[0]["p_loss"] == "1"


@pytest.mark.parametrize("codec", ["all", "AMR-WB"])
def test_score_counts_beyond_int64_are_exact(tmp_path, codec):
    # 2**63 fits no int64; the exact loss is 808 / (2**63 - 808).
    source = tmp_path / "huge.csv"
    source.write_text(f"{','.join(CDR_COLUMNS)}\nf1,AMR-WB,{2 ** 63},{2 ** 63 - 808},1.0,2.0,\n", encoding="utf-8")
    assert run("score", "--input", source, "--output", tmp_path / "o.csv", "--codec", codec) == 0
    assert read_rows(tmp_path / "o.csv")[0]["p_loss"] == "8.76035e-17"


CLI_BYTES_PREFIX = {
    "score": ",".join(CDR_COLUMNS).encode() + b"\n",
    "fit": SCORED_HEADER.encode() + b"\n",
    "report": SCORED_HEADER.encode() + b"\n",
    "simulate": SIM_CONFIG.encode(),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(CLI_BYTES_PREFIX)),
    with_prefix=st.booleans(),
    payload=st.binary(max_size=120),
)
def test_arbitrary_input_bytes_exit_0_or_1(command, with_prefix, payload):
    # The bytes are the CDR input of score, the scored input of fit and
    # report, and the config of simulate; half of them follow a valid
    # header or config so the rows and keys after it are exercised.
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "input"
        source.write_bytes((CLI_BYTES_PREFIX[command] if with_prefix else b"") + payload)
        flag = "--config" if command == "simulate" else "--input"
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(command, flag, source, "--output", Path(tmp) / "out") in (0, 1)


# ------------------------------------------------------------------ misc


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "score" in capsys.readouterr().out
