"""The benchmark's three workloads and the seeded inputs each one is given.

Every workload is a chain of ``volteqa`` CLI stages.  The benchmark makes
all inputs from its ``--seed`` argument; the program sees only the
generated config or CDR file.  A workload's ``tiny`` inputs have the same
shape at a fraction of the size and serve as the warm-up before timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The simulate → score → fit → report chain on a generated sim config.
SIM_STAGES = ("simulate", "score", "fit", "report")
# The score → fit → report chain on a generated CDR file.
CDR_STAGES = ("score", "fit", "report")

# Loss range the fit and report stages bin over (the CLI default, 0:0.2).
LOSS_RANGE = (0.0, 0.2)

# Target curves of tests/conftest.py that the CDR generator draws R from.
EXP_OFFSET, EXP_AMPLITUDE, EXP_DECAY = 17.953, 71.63, 0.12
LIN_INTERCEPT, LIN_SLOPE = 99.01, -340.70

CDR_HEADER = "flow_id,codec,tx_packets,rx_packets,avg_jitter_ms,max_jitter_ms,r_factor"
R_MAX = {"AMR": 100.0, "AMR-WB": 129.0}
# One share of malformed rows per ingest RejectReason.
MALFORMED_SHARE = 0.01
# Share of valid rows whose loss lies in (0.2, 0.25], beyond the binned range.
BEYOND_RANGE_SHARE = 0.1
R_NOISE_SD = 2.0


def exp_curve(x):
    return EXP_OFFSET + EXP_AMPLITUDE * np.exp(-np.asarray(x, dtype=float) / EXP_DECAY)


def line_curve(x):
    return LIN_INTERCEPT + LIN_SLOPE * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Inputs:
    """A prepared input file plus what a correct run must report about it."""

    path: Path
    # simulate: the configured flow count.
    flows: int = 0
    # score: expected ingest rejects by RejectReason value.
    rejects: dict[str, int] = field(default_factory=dict)
    # fit: whether the fits must recover the CDR generator's curves.
    curves: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    size: int
    tiny_size: int
    config: str = ""

    def prepare(self, directory: Path, seed: int, tiny: bool = False) -> Inputs:
        size = self.tiny_size if tiny else self.size
        if self.stages == CDR_STAGES:
            path = directory / "cdr.csv"
            return Inputs(path, rejects=write_cdr_file(path, size, seed), curves=True)
        path = directory / "sim.ini"
        path.write_text(self.config.format(flows=size, seed=seed), encoding="utf-8")
        return Inputs(path, flows=size)

    def argv(self, stage: str, inputs: Inputs, out: Path) -> list[str]:
        scored = str(out / "scored.csv")
        if stage == "simulate":
            return ["simulate", "--config", str(inputs.path), "--output", str(out / "dataset.csv")]
        if stage == "score":
            source = inputs.path if self.stages == CDR_STAGES else out / "dataset.csv"
            return ["score", "--input", str(source), "--output", scored]
        if stage == "fit":
            extra = ["--model", "both", "--raw-points"] if self.stages == CDR_STAGES else []
            return ["fit", "--input", scored, "--output", str(out / "fit.json"), *extra]
        if stage == "report":
            return ["report", "--input", scored, "--output", str(out / "grid.csv")]
        raise ValueError(f"unknown stage {stage!r}")


LONG_BURSTY_CONFIG = """\
[sim]
flows = {flows}
packets_per_flow = 1000
seed = {seed}
loss_models = gilbert_elliott(0.01,0.3,0,1), gilbert_elliott(0.03,0.25,0,0.8), bernoulli(0.05)
jitter_models = gaussian(40), gamma(2,30)
base_delay_ms = 30
"""

# The sim config of README.md with the flow count, packet count and seed set here.
SHORT_FLOWS_CONFIG = """\
[sim]
flows = {flows}
packets_per_flow = 50
seed = {seed}
ptime_ms = 20
codec_mix = AMR:0.71, AMR-WB:0.29
loss_models = bernoulli(0.02), gilbert_elliott(0.05, 0.4, 0, 1)
jitter_models = none, gaussian(4), gamma(2, 3)
base_delay_ms = 30
initial_delay_ms = 50
window = 16
safety_factor = 3
"""

# Why each workload is in the benchmark (BENCHMARK.json says the same):
# long_bursty exercises the per-packet path, late packets included;
# short_flows has the same packet total but weighs per-flow overhead,
# with no late packet; cdr_analytics bypasses simulation and the JBE and
# loads ingest, E-Model scoring, CSV handling and the analytics.  Sizes
# keep a chain to a few seconds, so a 30-second run takes a median over
# about ten chains.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long_bursty",
            stages=SIM_STAGES,
            size=500,
            tiny_size=12,
            config=LONG_BURSTY_CONFIG,
        ),
        Workload(
            name="short_flows",
            stages=SIM_STAGES,
            size=10_000,
            tiny_size=200,
            config=SHORT_FLOWS_CONFIG,
        ),
        Workload(
            name="cdr_analytics",
            stages=CDR_STAGES,
            size=100_000,
            tiny_size=2_000,
        ),
    )
}


REASONS = (
    "BAD_FIELD",
    "UNSUPPORTED_CODEC",
    "NEGATIVE_COUNT",
    "EMPTY_FLOW",
    "INCONSISTENT_JITTER",
    "R_OUT_OF_RANGE",
)
# Rows formatted at a time, so the generator adds little to peak memory.
WRITE_CHUNK = 10_000


def write_cdr_file(path: Path, rows: int, seed: int) -> dict[str, int]:
    """Write ``rows`` seeded CDR rows and return the malformed count per reason.

    Valid rows split 71/29 between AMR and AMR-WB.  Their count-based loss
    (tx - rx) / rx covers all ten bins of [0, 0.2], with a share in
    (0.2, 0.25]; R follows the target exponential (AMR) or line (AMR-WB)
    plus Gaussian noise.  A share of rows at random positions is made
    malformed for each ingest RejectReason.  Rows are written with this
    module's own formatting, never the program's writer, so the input
    cannot change with the program.
    """
    rng = np.random.default_rng(seed)
    wideband = rng.random(rows) < 0.29
    tx = rng.integers(1000, 3001, rows)
    beyond = rng.random(rows) < BEYOND_RANGE_SHARE
    target = np.where(beyond, rng.uniform(0.2, 0.25, rows), rng.uniform(0.0, 0.2, rows))
    rx = np.rint(tx / (1.0 + target)).astype(np.int64)
    p_loss = (tx - rx) / rx
    r = np.where(wideband, line_curve(p_loss), exp_curve(p_loss)) + rng.normal(0.0, R_NOISE_SD, rows)
    r = np.clip(r, 0.0, np.where(wideband, R_MAX["AMR-WB"], R_MAX["AMR"]))
    avg_j = 1.0 + rng.gamma(2.0, 3.0, rows)
    max_j = avg_j * (1.0 + rng.exponential(1.0, rows))
    per_reason = int(rows * MALFORMED_SHARE)
    reason_of = np.full(rows, -1)
    reason_of[rng.permutation(rows)[: len(REASONS) * per_reason]] = np.repeat(
        np.arange(len(REASONS)), per_reason
    )

    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(CDR_HEADER + "\n")
        for lo in range(0, rows, WRITE_CHUNK):
            chunk = slice(lo, lo + WRITE_CHUNK)
            lines = []
            for i, wb, t, x, a, m, q, k in zip(
                range(lo, rows),
                wideband[chunk].tolist(),
                tx[chunk].tolist(),
                rx[chunk].tolist(),
                avg_j[chunk].tolist(),
                max_j[chunk].tolist(),
                r[chunk].tolist(),
                reason_of[chunk].tolist(),
            ):
                row = ["AMR-WB" if wb else "AMR", str(t), str(x), f"{a:.4f}", f"{m:.4f}", f"{q:.4f}"]
                if k >= 0:
                    _make_malformed(row, REASONS[k], i)
                lines.append(f"cdr-{i:07d}," + ",".join(row) + "\n")
            handle.write("".join(lines))
    return {reason: per_reason for reason in REASONS if per_reason}


def _make_malformed(row: list[str], reason: str, i: int) -> None:
    """Break exactly one ingest rule, keeping every other field valid."""
    if reason == "BAD_FIELD":
        variant = i % 3
        if variant == 0:
            row.pop()  # six fields
        elif variant == 1:
            row[1] += "x"  # tx_packets not an integer
        else:
            row[3] = "nan"  # avg_jitter_ms not finite
    elif reason == "UNSUPPORTED_CODEC":
        row[0] = "EVS"
    elif reason == "NEGATIVE_COUNT":
        row[2] = "-" + row[2]
    elif reason == "EMPTY_FLOW":
        row[1] = row[2] = "0"
    elif reason == "INCONSISTENT_JITTER":
        row[4] = f"{float(row[3]) - 0.5:.4f}"  # max below avg (avg >= 1)
    else:
        row[5] = f"{R_MAX[row[0]] + 10.0:.4f}"
