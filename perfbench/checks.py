"""Output checks for each CLI stage, made with the benchmark's own readers.

A failed check raises ``CheckFailed`` and counts as a failed stage.  The
checks assert properties any correct run has; they pin no output digest,
because correctness fixes are allowed to change the outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from perfbench.workloads import LOSS_RANGE, R_MAX, Inputs, exp_curve, line_curve

# Largest allowed distance, in R points, between a recovered curve and the
# generator's curve at the ten bin medians of [0, 0.2].  With 100k rows and
# R noise of sd 2 the fits land within about 0.1.
CURVE_TOLERANCE = 0.5
BIN_MEDIANS = [0.01 + 0.02 * k for k in range(10)]
# The model each codec's quality-versus-loss analysis uses, and the curve
# the CDR generator draws that codec's R from.
ANALYSED_MODEL = {"AMR": "exponential", "AMR-WB": "linear"}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_simulate(out: Path, inputs: Inputs) -> None:
    """Rows written plus rejected flows equal the configured flows."""
    meta = json.loads((out / "dataset.csv.meta.json").read_text(encoding="utf-8"))
    with (out / "dataset.csv").open(encoding="utf-8", newline="") as handle:
        rows = sum(1 for _ in csv.reader(handle)) - 1
    require(rows == meta["flows_written"], f"dataset has {rows} rows, meta says {meta['flows_written']}")
    require(
        rows + meta["flows_rejected"] == inputs.flows,
        f"{rows} written + {meta['flows_rejected']} rejected != {inputs.flows} configured flows",
    )


def check_score(out: Path, inputs: Inputs) -> list[float]:
    """Loss and R in range, summary totals and rejects as expected.

    Streams the scored rows and returns only their ``p_loss`` values, so the
    check adds little to the run's peak memory.
    """
    losses = []
    per_codec: Counter[str] = Counter()
    with (out / "scored.csv").open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        codec_at, loss_at, r_at = (header.index(c) for c in ("codec", "p_loss", "r_factor_computed"))
        for line_no, row in enumerate(reader, start=2):
            codec = row[codec_at]
            p_loss = float(row[loss_at])
            r = float(row[r_at])
            require(0.0 <= p_loss <= 1.0, f"scored line {line_no}: p_loss {p_loss} outside [0, 1]")
            require(0.0 <= r <= R_MAX[codec], f"scored line {line_no}: R {r} outside [0, {R_MAX[codec]}]")
            per_codec[codec] += 1
            losses.append(p_loss)
    summary = json.loads((out / "scored.csv.summary.json").read_text(encoding="utf-8"))
    require(summary["total_flows"] == len(losses), f"summary total {summary['total_flows']} != {len(losses)} rows")
    require(summary["per_codec_counts"] == dict(per_codec), f"summary codec counts {summary['per_codec_counts']}")
    rejected = summary["rejected"]
    require(
        rejected["by_reason"] == inputs.rejects,
        f"rejects by reason {rejected['by_reason']} != written {inputs.rejects}",
    )
    require(rejected["total"] == sum(inputs.rejects.values()), f"reject total {rejected['total']}")
    return losses


def check_fit(out: Path, inputs: Inputs) -> None:
    """Every fit is finite; on generated CDRs the analysed fits converge onto the target curves.

    Convergence is required only where the data follow the model by
    construction.  Simulated datasets with the default codec profiles give
    near-linear quality-versus-loss points, and an exponential fitted to
    them drifts toward its straight-line limit (amplitude and decay growing
    together) until the iteration cap leaves it unconverged.
    """
    doc = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    require(bool(doc["codecs"]), "fit produced no codecs")
    for codec, entry in doc["codecs"].items():
        require(bool(entry["fits"]), f"{codec}: no fits")
        for model, fit in entry["fits"].items():
            numbers = [*fit["params"].values(), fit["r_squared"], fit["sse"]]
            require(all(math.isfinite(v) for v in numbers), f"{codec} {model} fit is not finite: {fit}")
    if not inputs.curves:
        return
    for codec, model in ANALYSED_MODEL.items():
        require(doc["codecs"][codec]["fits"][model]["converged"], f"{codec} {model} fit did not converge")
    exp = doc["codecs"]["AMR"]["fits"]["exponential"]["params"]
    line = doc["codecs"]["AMR-WB"]["fits"]["linear"]["params"]
    for x in BIN_MEDIANS:
        got = exp["offset"] + exp["amplitude"] * math.exp(-x / exp["decay"])
        require(abs(got - float(exp_curve(x))) <= CURVE_TOLERANCE, f"AMR exponential off at x={x}: {exp}")
        got = line["intercept"] + line["slope"] * x
        require(abs(got - float(line_curve(x))) <= CURVE_TOLERANCE, f"AMR-WB line off at x={x}: {line}")


def check_report(out: Path, losses: list[float]) -> None:
    """Grid counts plus scored rows outside the loss range equal the scored rows."""
    with (out / "grid.csv").open(encoding="utf-8", newline="") as handle:
        in_grid = sum(int(row["count"]) for row in csv.DictReader(handle))
    lo, hi = LOSS_RANGE
    outside = sum(1 for p in losses if not lo <= p <= hi)
    require(in_grid + outside == len(losses), f"{in_grid} in grid + {outside} out of range != {len(losses)} rows")


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file; a meta sidecar is hashed without its timestamp."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".meta.json"):
            meta = json.loads(data)
            meta.pop("timestamp", None)
            data = json.dumps(meta, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


# Stage that writes each output file, for blaming a file that changed.
PRODUCER = {
    "dataset.csv": "simulate",
    "dataset.csv.meta.json": "simulate",
    "scored.csv": "score",
    "scored.csv.summary.json": "score",
    "fit.json": "fit",
    "fit.bins.csv": "fit",
    "grid.csv": "report",
}
