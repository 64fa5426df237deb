"""Spans and counts recorded from outside the program.

The tracer replaces layer functions with timing wrappers on the names
their callers look up (module globals such as ``volteqa.simulate.run_jbe``,
or class attributes such as ``GilbertElliottLoss.sample``), so nothing
under ``src/`` changes.  Spans (name, start, end, parent) and counts are
kept in memory; the per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, start, end, self._stack[-1] if self._stack else -1)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Callable[[Counter, tuple, object], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``count(counts, args, result)`` runs after the span closes, to add
        counts taken from the call's arguments and result.  A name the
        program no longer has is skipped, so its metrics read 0 and the
        time moves to the caller's self time.
        """
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found, not traced", file=sys.stderr)
            return
        open_span, close_span, counts = self._open, self._close, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = open_span()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(sid, name, start)
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans, as ``[id, parent, name, start_s, end_s]`` rows, and the counts as JSON."""
        rows = [[sid, parent, name, start, end] for sid, (name, start, end, parent) in enumerate(self.spans)]
        doc = {"columns": ["id", "parent", "name", "start_s", "end_s"], "spans": rows, "counts": dict(self.counts)}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer on the names callers use."""
    import volteqa.cli as cli
    import volteqa.jitter_buffer as jb
    import volteqa.simulate as sim

    def count_flows_rejected(counts, args, result):
        counts["simulate.flows_rejected"] += len(result[1])

    def count_jbe(counts, args, result):
        counts["jitter_buffer.packets"] += args[0].tx_count
        counts["jitter_buffer.lost_packets"] += result.lost_count
        counts["jitter_buffer.late_packets"] += result.late_count
        counts["jitter_buffer.received_packets"] += result.received_count

    def count_parse(counts, args, result):
        records, rejects = result
        counts["ingest.rows"] += len(records) + len(rejects)
        counts["ingest.rows_rejected"] += len(rejects)

    def count_iterations(counts, args, result):
        counts["analytics.fit_exponential.iterations"] += result.iterations

    # simulate
    tracer.wrap(cli, "synthesize_dataset", "simulate.synthesize_dataset", count_flows_rejected)
    tracer.wrap(sim, "synthesize_timeline", "simulate.synthesize_timeline")
    for cls in (sim.BernoulliLoss, sim.GilbertElliottLoss):
        tracer.wrap(cls, "sample", "simulate.loss_sample")
    for cls in (sim.NoJitter, sim.GaussianJitter, sim.GammaJitter):
        tracer.wrap(cls, "delays", "simulate.jitter_delays")
    # jitter_buffer
    tracer.wrap(sim, "run_jbe", "jitter_buffer.run_jbe", count_jbe)
    tracer.wrap(jb.PacketTimeline, "__post_init__", "jitter_buffer.timeline_validate")
    tracer.wrap(sim, "compute_transit_jitter", "jitter_buffer.compute_transit_jitter")
    tracer.wrap(sim, "estimate_ploss", "jitter_buffer.estimate_ploss")
    # emodel
    tracer.wrap(sim, "compute_r_factor", "emodel.compute_r_factor")
    tracer.wrap(cli, "compute_r_factor", "emodel.compute_r_factor")
    tracer.wrap(sim, "burst_ratio", "emodel.burst_ratio")
    # ingest
    tracer.wrap(cli, "parse_cdr_csv", "ingest.parse_cdr_csv", count_parse)
    tracer.wrap(cli, "write_cdr_csv", "ingest.write_cdr_csv")
    tracer.wrap(cli, "summarize_dataset", "ingest.summarize_dataset")
    # analytics
    tracer.wrap(cli, "bin_series", "analytics.bin_series")
    tracer.wrap(cli, "surface_grid", "analytics.surface_grid")
    tracer.wrap(cli, "fit_exponential", "analytics.fit_exponential", count_iterations)
    tracer.wrap(cli, "fit_linear", "analytics.fit_linear")


# Per-layer metrics in output order: (name, unit, better).
PER_LAYER = (
    ("simulate.synthesize_timeline.self_s", "s", "lower"),
    ("simulate.loss_sample.self_s", "s", "lower"),
    ("simulate.jitter_delays.self_s", "s", "lower"),
    ("simulate.synthesize_dataset.self_s", "s", "lower"),
    ("simulate.flows_rejected", "count", "lower"),
    ("jitter_buffer.run_jbe.self_s", "s", "lower"),
    ("jitter_buffer.run_jbe.calls", "count", "lower"),
    ("jitter_buffer.run_jbe.packets_per_s", "1/s", "higher"),
    ("jitter_buffer.timeline_validate.self_s", "s", "lower"),
    ("jitter_buffer.compute_transit_jitter.self_s", "s", "lower"),
    ("jitter_buffer.estimate_ploss.self_s", "s", "lower"),
    ("jitter_buffer.lost_packets", "count", "lower"),
    ("jitter_buffer.late_packets", "count", "lower"),
    ("jitter_buffer.late_ratio", "ratio", "lower"),
    ("emodel.compute_r_factor.self_s", "s", "lower"),
    ("emodel.compute_r_factor.calls", "count", "lower"),
    ("emodel.burst_ratio.self_s", "s", "lower"),
    ("ingest.parse_cdr_csv.self_s", "s", "lower"),
    ("ingest.parse_cdr_csv.rows_per_s", "1/s", "higher"),
    ("ingest.rows_rejected", "count", "lower"),
    ("ingest.write_cdr_csv.self_s", "s", "lower"),
    ("ingest.summarize_dataset.self_s", "s", "lower"),
    ("analytics.bin_series.self_s", "s", "lower"),
    ("analytics.surface_grid.self_s", "s", "lower"),
    ("analytics.fit_exponential.self_s", "s", "lower"),
    ("analytics.fit_exponential.iterations", "count", "lower"),
    ("analytics.fit_linear.self_s", "s", "lower"),
    ("cli.simulate.s", "s", "lower"),
    ("cli.score.s", "s", "lower"),
    ("cli.fit.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.simulate.self_s", "s", "lower"),
    ("cli.score.self_s", "s", "lower"),
    ("cli.fit.self_s", "s", "lower"),
    ("cli.report.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "simulate.flows_rejected",
    "jitter_buffer.run_jbe.calls",
    "jitter_buffer.lost_packets",
    "jitter_buffer.late_packets",
    "emodel.compute_r_factor.calls",
    "ingest.rows_rejected",
    "analytics.fit_exponential.iterations",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced chain, except ``trace.overhead_ratio``.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for sid, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_s[sid]
        calls[name] += 1

    counts = tracer.counts
    metrics: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "self_s":
            metrics[metric] = own[layer]
        elif stat == "s":
            metrics[metric] = total[layer]
        elif stat == "calls":
            metrics[metric] = calls[layer]
    jbe_s = total["jitter_buffer.run_jbe"]
    parse_s = total["ingest.parse_cdr_csv"]
    received = counts["jitter_buffer.received_packets"]
    metrics.update(
        {
            "simulate.flows_rejected": counts["simulate.flows_rejected"],
            "jitter_buffer.run_jbe.packets_per_s": counts["jitter_buffer.packets"] / jbe_s if jbe_s else 0.0,
            "jitter_buffer.lost_packets": counts["jitter_buffer.lost_packets"],
            "jitter_buffer.late_packets": counts["jitter_buffer.late_packets"],
            "jitter_buffer.late_ratio": counts["jitter_buffer.late_packets"] / received if received else 0.0,
            "ingest.parse_cdr_csv.rows_per_s": counts["ingest.rows"] / parse_s if parse_s else 0.0,
            "ingest.rows_rejected": counts["ingest.rows_rejected"],
            "analytics.fit_exponential.iterations": counts["analytics.fit_exponential.iterations"],
        }
    )
    return metrics


def median_metrics(per_chain: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over chains; counts take the lower median and stay whole."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        key: (statistics.median_low if units[key] == "count" else statistics.median)(m[key] for m in per_chain)
        for key in per_chain[0]
    }
