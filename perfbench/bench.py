"""Stage-chain runner, set-up and measurement loops of the benchmark.

Imported by ``run.py`` only after it has timed the program's own import,
so that import, not this module, is the first to load numpy.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import volteqa.cli

from perfbench import checks, reference, tracing
from perfbench.workloads import WORKLOADS

# Chains measured per run even when --seconds runs out sooner.
MIN_CHAINS = 3
MIN_TRACED_PAIRS = 2
# Times the workload inputs are prepared; setup_s counts their median.
PREPARE_REPEATS = 3

END_TO_END_UNITS = {
    "pipeline_flows_per_s": "flows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Bench:
    """Runs one workload's chain and keeps the stage tallies and reference outputs."""

    def __init__(self, workload, inputs, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.flows = 0
        self.reference: dict[str, str] | None = None

    def run_stage(self, stage: str, argv: list[str], tracer) -> int | None:
        try:
            if tracer is None:
                return volteqa.cli.main(argv)
            with tracer.span(f"cli.{stage}"):
                return volteqa.cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            return None

    def check(self, stage: str, out: Path, losses: list) -> None:
        if stage == "simulate":
            checks.check_simulate(out, self.inputs)
        elif stage == "score":
            losses[:] = checks.check_score(out, self.inputs)
            self.flows = len(losses)
        elif stage == "fit":
            checks.check_fit(out, self.inputs)
        else:
            checks.check_report(out, losses)

    def chain(self, tracer=None) -> float | None:
        """Run the stage chain once; return its wall time, or None if a stage failed.

        Outputs are fully checked until one chain passes; every later chain
        must then write byte-identical files.
        """
        out = Path(tempfile.mkdtemp(prefix="chain-", dir=self.workdir))
        # Collect the previous chain's garbage now rather than inside this chain's timing.
        gc.collect()
        wall = 0.0
        broken = False
        losses: list = []
        for stage in self.workload.stages:
            self.attempted += 1
            if broken:
                self.failed += 1
                continue
            argv = self.workload.argv(stage, self.inputs, out)
            start = time.perf_counter()
            code = self.run_stage(stage, argv, tracer)
            wall += time.perf_counter() - start
            if code == 0 and self.reference is None:
                try:
                    self.check(stage, out, losses)
                except checks.CheckFailed as exc:
                    print(f"check failed: {stage}: {exc}", file=sys.stderr)
                    code = None
            if code != 0:
                print(f"stage failed: {stage} (exit {code})", file=sys.stderr)
                broken = True
                self.failed += 1
        if not broken:
            digests = checks.output_digests(out)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = {
                    checks.PRODUCER.get(name, name)
                    for name in set(digests) | set(self.reference)
                    if digests.get(name) != self.reference.get(name)
                }
                print(f"outputs differ from the first chain: {sorted(changed)}", file=sys.stderr)
                self.failed += len(changed)
                broken = True
        shutil.rmtree(out)
        return None if broken else wall


def warm_up(workload, seed: int, workdir: Path) -> None:
    """Run the chain once on tiny inputs so lazy work is done before timing.

    Its outputs are not checked: a tiny input may leave too few loss bins
    for a fit, and the error that prints is of no interest here.
    """
    directory = Path(tempfile.mkdtemp(prefix="warmup-", dir=workdir))
    inputs = workload.prepare(directory, seed, tiny=True)
    with contextlib.redirect_stderr(io.StringIO()):
        for stage in workload.stages:
            volteqa.cli.main(workload.argv(stage, inputs, directory))
    shutil.rmtree(directory)


def prepare(workload, seed: int, workdir: Path):
    """Prepare the inputs PREPARE_REPEATS times; return the last and the median time."""
    times = []
    inputs = None
    for k in range(PREPARE_REPEATS):
        directory = workdir / f"inputs-{k}"
        directory.mkdir()
        start = time.perf_counter()
        inputs = workload.prepare(directory, seed)
        times.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(workdir / f"inputs-{k - 1}")
    return inputs, statistics.median(times)


def fits_before(deadline: float, walls: list[float]) -> bool:
    """Whether one more chain, as long as the median so far, ends by the deadline."""
    expected = statistics.median(walls) if walls else 0.0
    return time.perf_counter() + expected <= deadline


def measure_end_to_end(bench: Bench, seconds: float, setup_s: float, ref_s: float) -> tuple[dict, list[float]]:
    """Chains until the deadline; ``ref_s`` is the reference time taken just before.

    Each chain's wall time is scaled by the reference timed on either side
    of it (see ``reference``); throughput uses the median scaled time.
    """
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    scaled: list[float] = []
    chains = 0
    while chains < MIN_CHAINS or fits_before(deadline, walls):
        chains += 1
        wall = bench.chain()
        ref_after = reference.reference_s()
        if wall is not None:
            walls.append(wall)
            scaled.append(wall * reference.NOMINAL_S / ((ref_s + ref_after) / 2.0))
        ref_s = ref_after
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if walls:
        metrics = {"pipeline_flows_per_s": bench.flows / statistics.median(scaled), **metrics}
    return metrics, walls


def measure_layers(bench: Bench, seconds: float, trace_path: Path) -> tuple[dict, list[float], bool]:
    """Alternate untraced and traced chains; per-layer metrics are medians over traced ones."""
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    untraced: list[float] = []
    traced: list[float] = []
    per_chain: list[dict[str, float]] = []
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or fits_before(deadline, [u + t for u, t in zip(untraced, traced)]):
        pairs += 1
        wall = bench.chain()
        if wall is not None:
            untraced.append(wall)
        tracer.reset()
        tracing.instrument(tracer)
        try:
            wall = bench.chain(tracer)
        finally:
            tracer.unwrap_all()
        if wall is not None:
            traced.append(wall)
            per_chain.append(tracing.layer_metrics(tracer))
    tracer.write(trace_path)

    exact = {tuple(m[k] for k in tracing.EXACT_COUNTS) for m in per_chain}
    if len(exact) > 1:
        print(f"exact counts differ between chains: {sorted(exact)}", file=sys.stderr)
    metrics = tracing.median_metrics(per_chain) if per_chain else {}
    if untraced and traced:
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, traced, len(exact) <= 1


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float, work: Path) -> int:
    """Set up and measure one workload, print the report and the result line."""
    if workload_name not in WORKLOADS:
        print(f"error: unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]

    work.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        ref_before = reference.reference_s()
        start = time.perf_counter()
        warm_up(workload, seed, workdir)
        warm_s = time.perf_counter() - start
        inputs, prepare_s = prepare(workload, seed, workdir)
        ref_after = reference.reference_s()
        setup_s = (import_s + warm_s + prepare_s) * reference.NOMINAL_S / ((ref_before + ref_after) / 2.0)
        bench = Bench(workload, inputs, workdir)
        if trace:
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            metrics, walls, exact_ok = measure_layers(bench, seconds, work / f"trace-{workload.name}.json")
        else:
            units = END_TO_END_UNITS
            metrics, walls = measure_end_to_end(bench, seconds, setup_s, ref_after)
            exact_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {len(walls)} chains of {bench.flows} flows")
    print("chain walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    if walls and not trace:
        print(f"unscaled: {bench.flows / statistics.median(walls):.6g} flows/s over the median chain wall time")
    print(f"failed_stage_ratio: {bench.failed / bench.attempted:.6g} ratio ({bench.failed} of {bench.attempted} stage runs)")
    for name in units:
        if name in metrics:
            print(f"  {name:45s} {metrics[name]:.6g} {units[name]}")
    correct = bench.failed == 0 and exact_ok and metrics.keys() == units.keys()
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0
