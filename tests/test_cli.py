"""End-to-end command-line tests: score, simulate, fit, report."""

import contextlib
import csv
import io
import itertools
import json
import tempfile
import tracemalloc
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
    burst_sweep,
    exp_curve,
    line_curve,
    reference_parse_cdr_csv,
    reference_read_samples,
    table_from_rows,
)
from volteqa import cli, ingest
from volteqa.cli import CliError, main
from volteqa.ingest import CDR_COLUMNS, Codec, RejectedRow, RejectReason, summarize_dataset

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
    summary = summarize_dataset(table.codec_counts(), rejects)
    assert cli._summary_json(summary) == json.dumps(summary, indent=2, sort_keys=True) + "\n"


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


def _score_peak_bytes(tmp_path: Path, rows: int) -> int:
    source = tmp_path / f"cdr{rows}.csv"
    source.write_text(",".join(CDR_COLUMNS) + "\n" + "".join(_cdr_lines(rows)), encoding="utf-8")
    tracemalloc.start()
    try:
        assert run("score", "--input", source, "--output", tmp_path / f"scored{rows}.csv") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_memory_does_not_grow_with_the_row_count(tmp_path):
    # score holds one block at a time; only its rejects grow with the
    # file, and this file has none.
    assert _score_peak_bytes(tmp_path, 40_000) <= 1.5 * _score_peak_bytes(tmp_path, 4_000)


# -------------------------------------------------------------- simulate


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
    assert "EXPLAINED_TOO_FEW_BINS" in capsys.readouterr().err


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
    for extra in ([], ["--weighted"], ["--raw-points"]):
        assert run("fit", "--input", scored, "--output", tmp_path / "fit.json",
                   "--model", "both", *extra) == 0


def test_fit_warns_that_raw_points_ignore_weights(tmp_path, capsys):
    scored = tmp_path / "scored.csv"
    rows = [(f"f{i}", "AMR", repr(float(x)), repr(float(90 - 150 * x + (i % 3))))
            for i, x in enumerate(np.repeat(BIN_MEDIANS, 4))]
    _write_scored(scored, rows)
    outputs = {}
    for name, extra in (("raw", []), ("both", ["--weighted"])):
        out = tmp_path / name
        out.mkdir()
        assert run("fit", "--input", scored, "--output", out / "fit.json",
                   "--model", "both", "--raw-points", *extra) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("fit.json", "fit.bins.csv")]
        err = capsys.readouterr().err
        assert ("--weighted is ignored with --raw-points" in err) == (name == "both")
    assert outputs["both"] == outputs["raw"]
    assert run("fit", "--input", scored, "--output", tmp_path / "fit.json", "--weighted") == 0
    assert "ignored" not in capsys.readouterr().err


def _score_sim_golden(tmp_path: Path) -> Path:
    scored = tmp_path / "scored.csv"
    assert run("score", "--input", DATA / "sim_golden.csv", "--output", scored) == 0
    return scored


def test_fit_reproduces_golden_on_scored_sim_dataset(tmp_path):
    out = tmp_path / "fit.json"
    assert run("fit", "--input", _score_sim_golden(tmp_path), "--output", out, "--model", "both") == 0
    assert out.read_bytes() == (DATA / "sim_golden.fit.json").read_bytes()
    assert (tmp_path / "fit.bins.csv").read_bytes() == (DATA / "sim_golden.fit.bins.csv").read_bytes()


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


@st.composite
def scored_csv(draw) -> str:
    """A scored CSV: the header names in any order, some left out and some
    repeated; then blank, short, long and full rows.  Lines end in LF or
    CR LF, and cells are quoted where they must be or all of them."""
    names = draw(st.permutations(SCORED_NAMES))
    header = names[: draw(st.integers(3, len(names)))]
    header += draw(st.lists(st.sampled_from(SCORED_NAMES), max_size=2))
    full = st.tuples(*(CODEC_CELLS if name == "codec" else NUMBER_CELLS for name in header)).map(list)
    short, long = full.map(lambda r: r[: len(r) // 2]), full.map(lambda r: r + ["x"])
    row = st.one_of(full, full, full, short, long, st.just([]))
    buffer = io.StringIO()
    csv.writer(
        buffer,
        lineterminator=draw(st.sampled_from(["\n", "\n", "\r\n"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
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


@pytest.mark.parametrize("chunk", (1, 2, 3, ingest.CHUNK_ROWS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    text=scored_csv(),
    wanted=st.sampled_from([None, Codec.AMR, Codec.AMR_WB]),
    columns=st.sampled_from([("p_loss",), ("p_loss", "max_jitter_ms")]),
)
def test_read_samples_matches_per_row_oracle(chunk, text, wanted, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scored.csv")
        Path(path).write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_ROWS", chunk)
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
        ("fit --input {scored} --output {tmp}/o.json --range 0:inf", "BAD_RANGE"),
        ("fit --input {scored} --output {tmp}/o.json --range 0:5e-324", "BAD_RANGE"),
        ("fit --input {scored} --output {tmp}/o.json --range 0:5e-324 --model linear", "BAD_RANGE"),
        ("report --input {tmp}/tiny_jitter.csv --output {tmp}/o.csv", "BAD_RANGE"),
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
    ],
)
def test_empty_model_argument_or_repeated_codec_is_a_config_error(tmp_path, capsys, line, message):
    err = _config_error(tmp_path, capsys, "simulate", SIM_CONFIG + line + "\n")
    assert err == f"error: CONFIG: {message}\n"


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
