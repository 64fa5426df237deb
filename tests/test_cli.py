"""End-to-end command-line tests: score, simulate, fit, report."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    AMR_CURVE_BURST_R,
    AMR_CURVE_PROFILE,
    BIN_MEDIANS,
    WB_LINE_BURST_R,
    WB_LINE_PROFILE,
    burst_sweep,
    line_curve,
)
from volteqa.cli import main
from volteqa.ingest import CDR_COLUMNS, Codec

DATA = Path(__file__).parent / "data"

SCORED_HEADER = (
    "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,"
    "r_factor,p_loss,mos,r_factor_computed"
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
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
    source.write_text("flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor\n")
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 0
    assert out_csv.read_text() == SCORED_HEADER + "\n"
    summary = json.loads((tmp_path / "scored.csv.summary.json").read_text())
    assert summary["total_flows"] == 0
    assert summary["per_codec_shares"] == {}


def test_score_rejects_every_evs_row(tmp_path):
    source = tmp_path / "evs.csv"
    source.write_text(
        "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor\n"
        "e1,EVS,10,9,1.0,2.0,\n"
        "e2,EVS,20,19,1.0,2.0,\n"
    )
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 0
    assert out_csv.read_text() == SCORED_HEADER + "\n"
    summary = json.loads((tmp_path / "scored.csv.summary.json").read_text())
    assert summary["total_flows"] == 0
    assert summary["rejected"]["total"] == 2
    assert summary["rejected"]["by_reason"] == {"UNSUPPORTED_CODEC": 2}
    assert [r["reason"] for r in summary["rejected"]["rows"]] == ["UNSUPPORTED_CODEC"] * 2


def test_score_schema_error_is_fatal(tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text("totally,wrong,header\n1,2,3\n")
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", source, "--output", out_csv) == 1
    assert "SCHEMA" in capsys.readouterr().err


def test_score_missing_input_is_fatal(tmp_path, capsys):
    assert run("score", "--input", tmp_path / "nope.csv", "--output", tmp_path / "o.csv") == 1
    assert "INPUT_NOT_FOUND" in capsys.readouterr().err


def test_score_codec_filter(tmp_path):
    out_csv = tmp_path / "scored.csv"
    assert run("score", "--input", DATA / "cdr_golden.csv",
               "--output", out_csv, "--codec", "AMR-WB") == 0
    rows = read_rows(out_csv)
    assert [r["codec"] for r in rows] == ["AMR-WB"]


# -------------------------------------------------------------- simulate


def test_simulate_is_byte_deterministic(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 25\npackets_per_flow = 40\nseed = 5\n"
        "loss_models = bernoulli(0.1)\njitter_models = gaussian(4)\nbase_delay_ms = 30\n"
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--config", config, "--output", first) == 0
    assert run("simulate", "--config", config, "--output", second) == 0
    assert first.read_bytes() == second.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["generator"] == "numpy.random.PCG64"
    assert meta["seed"] == 5
    assert meta["flows_written"] == 25


def test_simulate_reproduces_golden_dataset(tmp_path):
    # Bursty and near-total loss under no, Gaussian and gamma jitter: the
    # dataset has late packets and flows rejected for too few packets.
    out = tmp_path / "sim.csv"
    assert run("simulate", "--config", DATA / "sim_golden.ini", "--output", out) == 0
    assert out.read_bytes() == (DATA / "sim_golden.csv").read_bytes()
    meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
    assert meta["flows_written"] == 30
    assert meta["flows_rejected"] == 18
    rejected_ids = (4, 5, 9, 10, 11, 16, 21, 22, 23, 27, 29, 34, 35, 39, 40, 41, 45, 47)
    assert meta["rejected"] == [
        {"flow_id": f"flow-{i:06d}", "reason": "NOT_ENOUGH_PACKETS"} for i in rejected_ids
    ]


def test_simulate_seed_flag_overrides_config(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 10\npackets_per_flow = 30\nseed = 5\nloss_models = bernoulli(0.2)\n"
    )
    base, overridden = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("simulate", "--config", config, "--output", base) == 0
    assert run("simulate", "--config", config, "--output", overridden, "--seed", 6) == 0
    assert base.read_bytes() != overridden.read_bytes()
    assert json.loads((tmp_path / "b.csv.meta.json").read_text())["seed"] == 6


def test_simulate_zero_flows(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text("[sim]\nflows = 0\npackets_per_flow = 10\nseed = 1\n")
    out = tmp_path / "empty.csv"
    assert run("simulate", "--config", config, "--output", out) == 0
    assert out.read_text() == "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor\n"


def test_simulate_realized_mix_tracks_spec(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 10000\npackets_per_flow = 4\nseed = 8\n"
        "codec_mix = AMR:0.7, AMR-WB:0.3\nloss_models = bernoulli(0)\n"
    )
    out = tmp_path / "mix.csv"
    assert run("simulate", "--config", config, "--output", out) == 0
    rows = read_rows(out)
    share = sum(1 for r in rows if r["codec"] == "AMR") / len(rows)
    assert abs(share - 0.7) <= 0.02


def test_simulate_invalid_key_names_it(tmp_path, capsys):
    config = tmp_path / "sim.ini"
    config.write_text("[sim]\nflows = 1\npackets_per_flow = 10\nseed = 1\nbogus_key = 3\n")
    assert run("simulate", "--config", config, "--output", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert "CONFIG" in err and "bogus_key" in err


def test_simulated_dataset_scores_cleanly(tmp_path):
    config = tmp_path / "sim.ini"
    config.write_text(
        "[sim]\nflows = 40\npackets_per_flow = 50\nseed = 13\n"
        "loss_models = bernoulli(0.05)\njitter_models = gaussian(5)\nbase_delay_ms = 30\n"
    )
    dataset = tmp_path / "dataset.csv"
    scored = tmp_path / "scored.csv"
    assert run("simulate", "--config", config, "--output", dataset) == 0
    assert run("score", "--input", dataset, "--output", scored) == 0
    summary = json.loads((tmp_path / "scored.csv.summary.json").read_text())
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
        )
    )
    dataset = tmp_path / "dataset.csv"
    scored = tmp_path / "scored.csv"
    fit_json = tmp_path / "fit.json"
    assert run("simulate", "--config", config, "--output", dataset) == 0
    assert run("score", "--input", dataset, "--output", scored) == 0
    assert run("fit", "--input", scored, "--output", fit_json, "--model", "both") == 0
    doc = json.loads(fit_json.read_text())
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
    with path.open("w", newline="") as handle:
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
    bad.write_text("flow_id,codec,r_factor\nf,AMR,90\n")
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
    doc = json.loads(fit_json.read_text())
    wb = doc["codecs"]["AMR-WB"]
    assert len(wb["points"]) == 10
    assert wb["fits"]["linear"]["params"]["intercept"] == pytest.approx(99.01, rel=1e-4)
    bins_csv = (tmp_path / "fit.bins.csv").read_text().splitlines()
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
    doc = json.loads(fit_json.read_text())
    assert set(doc["codecs"]) == {"AMR", "AMR-WB"}
    assert run("fit", "--input", scored, "--output", fit_json,
               "--model", "linear", "--codec", "AMR") == 0
    doc = json.loads(fit_json.read_text())
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
            f"jitter_models = gaussian(6)\nbase_delay_ms = 30\n"
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
    with path.open("w", newline="") as handle:
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


# ------------------------------------------------------------ bad input


SIM_CONFIG = "[sim]\nflows = 3\npackets_per_flow = 10\nseed = 1\n"
CDR = str(DATA / "cdr_golden.csv")
SCORED = str(DATA / "cdr_golden.scored.csv")


def _bad_input_files(tmp_path: Path) -> None:
    (tmp_path / "sim.ini").write_text(SIM_CONFIG)
    (tmp_path / "no_section.ini").write_text("flows = 3\n")
    (tmp_path / "dup_sim.ini").write_text(SIM_CONFIG + "seed = 2\n")
    (tmp_path / "dup_profile.ini").write_text("[AMR]\nie = 1\nie = 2\n")
    (tmp_path / "latin1.txt").write_bytes("[sim]\nflows = 3\n# caf\u00e9\n".encode("latin-1"))
    (tmp_path / "dir").mkdir()
    # One field beyond the csv module's default 128 KiB field limit.
    (tmp_path / "huge_field.csv").write_text(f"{','.join(CDR_COLUMNS)}\n{'x' * 200_000},AMR\n")
    # The largest jitter is the smallest subnormal float: the default
    # jitter range 0:max is too narrow to split into distinct bin edges.
    (tmp_path / "tiny_jitter.csv").write_text(
        SCORED_HEADER + "\n" + "".join(f"f{i},AMR,100,99,0.0,5e-324,80,0.0{i},,\n" for i in range(3))
    )


@pytest.mark.parametrize(
    "argv,code",
    [
        ("simulate --config {tmp}/no_section.ini --output {tmp}/o.csv", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/no_section.ini", "CONFIG"),
        ("simulate --config {tmp}/dup_sim.ini --output {tmp}/o.csv", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/dup_profile.ini", "CONFIG"),
        ("simulate --config {tmp}/latin1.txt --output {tmp}/o.csv", "CONFIG"),
        ("score --input {cdr} --output {tmp}/o.csv --config {tmp}/latin1.txt", "CONFIG"),
        ("score --input {tmp}/latin1.txt --output {tmp}/o.csv", "SCHEMA"),
        ("fit --input {tmp}/latin1.txt --output {tmp}/o.json", "SCHEMA"),
        ("report --input {tmp}/latin1.txt --output {tmp}/o.csv", "SCHEMA"),
        ("score --input {tmp}/huge_field.csv --output {tmp}/o.csv", "SCHEMA"),
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
        ("report --input {scored} --output {tmp}/o.csv --j-range 0:inf", "BAD_RANGE"),
        ("report --input {scored} --output {tmp}/o.csv --range=-inf:0.2", "BAD_RANGE"),
        ("fit --input {scored} --output {tmp}/o.json --range 0:inf", "BAD_RANGE"),
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
        "seed = -5",
    ],
)
def test_bad_sim_config_value_is_rejected_at_load(tmp_path, capsys, line):
    key = line.split()[0]
    rows = [row for row in SIM_CONFIG.splitlines() if not row.startswith(key)]
    config = tmp_path / "sim.ini"
    config.write_text("\n".join(rows + [line]) + "\n")
    assert run("simulate", "--config", config, "--output", tmp_path / "o.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG: ") and key in err
    assert not (tmp_path / "o.csv").exists()


def test_score_huge_packet_counts_do_not_overflow(tmp_path):
    source = tmp_path / "huge.csv"
    source.write_text(f"{','.join(CDR_COLUMNS)}\nf1,AMR,{10 ** 400},1,1.0,2.0,\n")
    assert run("score", "--input", source, "--output", tmp_path / "o.csv") == 0
    assert read_rows(tmp_path / "o.csv")[0]["p_loss"] == "1"


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
