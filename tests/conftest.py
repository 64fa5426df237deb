"""Shared test helpers: timeline builders, calibrated sim setups, and the
scalar oracles of the array code."""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
import sys
from collections import Counter
from typing import IO, Mapping, Sequence

import numpy as np

from volteqa.analytics import BinnedSeries, SurfaceGrid, uniform_edges
from volteqa.cli import CliError, format_g6, summarize_dataset
from volteqa.emodel import DEFAULT_PROFILES, CodecProfile
from volteqa.ingest import (
    CDR_COLUMNS,
    Bandwidth,
    CdrTable,
    Codec,
    RejectedRow,
    RejectReason,
    SchemaError,
    cdr_blocks,
    parse_cdr_csv,
    parse_float,
    parse_int,
    write_cdr_csv,
)
from volteqa.jitter_buffer import JbeConfig, JbeResult, PacketTimeline
from volteqa.simulate import (
    GaussianJitter,
    GilbertElliottLoss,
    NoJitter,
    RejectedFlow,
    SimSpec,
    synthesize_dataset,
)

# Exponential decay targeted by the narrowband quality-versus-loss analysis.
EXP_OFFSET = 17.953
EXP_AMPLITUDE = 71.63
EXP_DECAY = 0.12

# Straight line targeted by the wideband analysis.
LIN_INTERCEPT = 99.01
LIN_SLOPE = -340.70

# x grid used for fit-recovery checks: the medians of 10 uniform bins on [0, 0.2].
BIN_MEDIANS = np.arange(0.01, 0.20, 0.02)

# Profiles calibrated (by nested grid search over the impairment-curve shape)
# so that the simulated pipeline's binned quality-versus-loss points track
# the target exponential / linear curves.  The burst ratio is the knob that
# lets the loss impairment exceed its random-loss range, hence the paired
# Gilbert-Elliott burstiness targets below.
AMR_CURVE_BURST_R = 106.55367954 / 95.0
AMR_CURVE_PROFILE = CodecProfile(
    codec=Codec.AMR,
    ie=0.0,
    bpl=15.83480451 / AMR_CURVE_BURST_R,
    r0=90.47605821,
)

WB_LINE_BURST_R = 248.4126752 / 129.0
WB_LINE_PROFILE = CodecProfile(
    codec=Codec.AMR_WB,
    ie=0.0,
    bpl=52.12287801 / WB_LINE_BURST_R,
    r0=103.11908275,
)


def exp_curve(x):
    return EXP_OFFSET + EXP_AMPLITUDE * np.exp(-np.asarray(x, dtype=float) / EXP_DECAY)


def line_curve(x):
    return LIN_INTERCEPT + LIN_SLOPE * np.asarray(x, dtype=float)


def burst_sweep(burst_r: float, targets=BIN_MEDIANS) -> list[GilbertElliottLoss]:
    """Loss models whose post-buffer loss fractions land near the given
    targets with the given expected burst ratio.

    The effective loss uses received packets as denominator, so the network
    rate for target x is x / (1 + x); mean burst length burst_r / (1 - p)
    yields the requested observed-to-random run-length ratio.
    """
    models = []
    for x in targets:
        p_net = float(x) / (1.0 + float(x))
        models.append(
            GilbertElliottLoss(
                p_good_to_bad=p_net / burst_r,
                p_bad_to_good=(1.0 - p_net) / burst_r,
            )
        )
    return models


def make_timeline(arrivals, ptime_ms: float = 20.0) -> PacketTimeline:
    """Timeline of one flow from its arrivals, None marking a lost packet;
    packet k is sent at k*ptime."""
    return PacketTimeline(
        ptime_ms=ptime_ms, arrival_ms=[math.nan if arrival is None else arrival for arrival in arrivals]
    )


def timeline_from_delays(delays, ptime_ms: float = 20.0) -> PacketTimeline:
    """Timeline with packet k sent at k*ptime; delays[k] is the network delay
    in ms or None for a lost packet."""
    return make_timeline(
        [None if delay is None else k * ptime_ms + delay for k, delay in enumerate(delays)], ptime_ms
    )


def jbe_figures(result: JbeResult, flow: int = 0) -> dict:
    """One flow of a ``run_jbe`` result as plain Python values, comparable
    with ``==`` to :func:`reference_run_jbe`; a lost packet's play-out
    instant is None, and so are the jitter figures of a flow with fewer
    than two received packets."""
    playout = result.playout_ms[:, flow].tolist()
    effective_lost = result.effective_lost[:, flow].tolist()

    def optional(value: float) -> float | None:
        return None if math.isnan(value) else value

    return {
        "playout_ms": tuple(optional(t) for t in playout),
        "late": tuple(e and not math.isnan(t) for t, e in zip(playout, effective_lost)),
        "effective_lost": tuple(effective_lost),
        "lost_count": int(result.lost_counts[flow]),
        "late_count": int(result.late_counts[flow]),
        "received_count": int(result.received_counts[flow]),
        "p_loss": float(result.p_loss[flow]),
        "avg_jitter_ms": optional(float(result.avg_jitter_ms[flow])),
        "max_jitter_ms": optional(float(result.max_jitter_ms[flow])),
        "mean_playout_delay_ms": float(result.mean_playout_delay_ms[flow]),
    }


def reference_run_jbe(timeline: PacketTimeline, config: JbeConfig = JbeConfig(), flow: int = 0) -> dict:
    """Scalar oracle for ``run_jbe`` on one flow of a timeline: its
    per-packet loop, kept as a plain copy.

    Returns the same values as :func:`jbe_figures` of a ``run_jbe`` result.
    """
    lost_count = 0
    late_count = 0
    playout: list[float | None] = []
    late_flags: list[bool] = []
    playout_delays: list[float] = []
    jitter_samples: list[float] = []
    anchor = None
    prev_received = None
    last_held_playout = -math.inf

    for send, arrival in zip(timeline.send_ms.tolist(), timeline.arrival_ms[:, flow].tolist()):
        if math.isnan(arrival):
            lost_count += 1
            playout.append(None)
            late_flags.append(False)
            continue
        if anchor is None:
            anchor = (send, arrival)
        # The window sum by its definition: the last ``window`` samples,
        # added oldest first.
        window_len = min(len(jitter_samples), config.window)
        window_sum = 0.0
        for sample in jitter_samples[len(jitter_samples) - window_len :]:
            window_sum += sample
        headroom = config.safety_factor * (window_sum / window_len) if window_len else 0.0
        scheduled = anchor[1] + config.initial_delay_ms + (send - anchor[0]) + headroom
        scheduled = max(scheduled, last_held_playout)
        late = arrival > scheduled
        if late:
            late_count += 1
            playout_time = arrival
        else:
            playout_time = scheduled
            last_held_playout = scheduled
        playout.append(playout_time)
        late_flags.append(late)
        playout_delays.append(playout_time - send)
        if prev_received is not None:
            jitter_samples.append(abs((arrival - prev_received[1]) - (send - prev_received[0])))
        prev_received = (send, arrival)

    received_count = len(playout_delays)
    # Add left to right like sum() on Python <= 3.11; 3.12's sum() of floats
    # is compensated.
    jitter_total = 0.0
    for sample in jitter_samples:
        jitter_total += sample
    delay_total = 0.0
    for delay in playout_delays:
        delay_total += delay
    return {
        "playout_ms": tuple(playout),
        "late": tuple(late_flags),
        "effective_lost": tuple(t is None or late for t, late in zip(playout, late_flags)),
        "lost_count": lost_count,
        "late_count": late_count,
        "received_count": received_count,
        "p_loss": reference_effective_loss(lost_count, late_count, received_count),
        "avg_jitter_ms": jitter_total / len(jitter_samples) if jitter_samples else None,
        "max_jitter_ms": max(jitter_samples) if jitter_samples else None,
        "mean_playout_delay_ms": delay_total / received_count if received_count else 0.0,
    }


def reference_effective_loss(lost: int, late: int, received: int) -> float:
    """Scalar oracle for ``effective_loss``: (lost + late) / received,
    clamped to [0, 1], and 1.0 with nothing received."""
    missing = lost + late
    return 1.0 if missing >= received else missing / received


def reference_ge_sample(model: GilbertElliottLoss, n: int, rng: np.random.Generator) -> np.ndarray:
    """Scalar oracle for ``GilbertElliottLoss.sample``: its per-packet loop,
    kept as a plain copy, drawing from ``rng`` in the same order."""
    transitions = rng.random(n)
    emissions = rng.random(n)
    bad = rng.random() < model.stationary_bad_probability()
    lost = np.empty(n, dtype=bool)
    for i in range(n):
        rate = model.loss_bad if bad else model.loss_good
        lost[i] = emissions[i] < rate
        if bad:
            if transitions[i] < model.p_bad_to_good:
                bad = False
        elif transitions[i] < model.p_good_to_bad:
            bad = True
    return lost


def reference_arrivals(lost, delays, ptime_ms: float) -> list[float | None]:
    """Scalar oracle for the FIFO arrivals of ``synthesize_timeline``, given
    its loss flags and network delays; None marks a lost packet."""
    arrivals: list[float | None] = []
    last_arrival = -math.inf
    for k in range(len(lost)):
        send = k * ptime_ms
        if lost[k]:
            arrivals.append(None)
            continue
        arrival = max(send + delays[k], last_arrival, send)
        last_arrival = arrival
        arrivals.append(arrival)
    return arrivals


def reference_burst_ratio(loss_flags) -> float:
    """Scalar oracle for ``burst_ratio``: its per-flag loop, kept as a plain copy."""
    total = len(loss_flags)
    if total == 0:
        raise ValueError("need at least one loss flag")
    lost = sum(1 for flag in loss_flags if flag)
    if lost == 0 or lost == total:
        return 1.0
    runs = 0
    previous = False
    for flag in loss_flags:
        if flag and not previous:
            runs += 1
        previous = flag
    mean_run = lost / runs
    p = lost / total
    expected_run = 1.0 / (1.0 - p)
    return max(1.0, mean_run / expected_run)


def reference_compute_r_factor(
    profile: CodecProfile, ppl: float, burst_r: float = 1.0, one_way_delay_ms: float = 0.0
) -> tuple[float, float]:
    """Scalar oracle for ``compute_r_factor``: the per-flow E-Model, kept as
    a plain copy.  Returns the clamped R-factor and its MOS."""
    if not 0.0 <= ppl <= 100.0 or burst_r < 1.0 or one_way_delay_ms < 0:
        raise ValueError("ppl, burst_r or delay out of range")
    if one_way_delay_ms <= 100.0:
        delay = 0.0
    else:
        delay = 0.024 * (one_way_delay_ms - 100.0)
        if one_way_delay_ms > 177.3:
            delay += 0.11 * (one_way_delay_ms - 177.3)
    term = ppl / (ppl / burst_r + profile.bpl)
    term = min(term, math.nextafter(1.0, 0.0))
    ceiling = 95.0 if profile.codec.bandwidth is Bandwidth.NARROWBAND else 129.0
    equipment = profile.ie + (ceiling - profile.ie) * term
    raw = profile.r0 - profile.simultaneous - delay - equipment + profile.advantage
    r_factor = min(max(raw, 0.0), profile.codec.r_max)
    scaled = r_factor if profile.codec.bandwidth is Bandwidth.NARROWBAND else r_factor * 100.0 / 129.0
    if scaled <= 0.0:
        mos = 1.0
    elif scaled >= 100.0:
        mos = 4.5
    else:
        mos = max(1.0, 1.0 + 0.035 * scaled + scaled * (scaled - 60.0) * (100.0 - scaled) * 7e-6)
    return r_factor, mos


def reference_delays(model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Scalar oracle for one flow's ``delays``: the per-flow draws, kept as
    a plain copy."""
    if isinstance(model, NoJitter):
        return np.full(n, model.base_delay_ms)
    if isinstance(model, GaussianJitter):
        return np.maximum(0.0, model.base_delay_ms + rng.normal(0.0, model.sigma_ms, n))
    return model.base_delay_ms + rng.gamma(model.shape, model.scale_ms, n)


def reference_pick_codec(mix, u: float) -> int:
    """Scalar oracle for ``pick_codecs``: its per-flow loop, kept as a
    plain copy.  The index into ``mix`` of the codec drawn by ``u``."""
    cumulative = 0.0
    for index, (_, fraction) in enumerate(mix):
        cumulative += fraction
        if u < cumulative:
            return index
    return len(mix) - 1


def reference_synthesize_dataset(spec: SimSpec, profiles) -> tuple[list[tuple], list[RejectedFlow]]:
    """Oracle for ``synthesize_dataset``: the flow-by-flow path it replaced,
    built from the scalar oracles of each step.  Accepted flows are plain
    rows in CDR column order."""
    rows: list[tuple] = []
    rejected: list[RejectedFlow] = []
    cells = spec.sweep_cells()
    children = np.random.SeedSequence(spec.seed).spawn(spec.flows)
    packets = spec.packets_per_flow
    for i in range(spec.flows):
        flow_id = f"flow-{i:06d}"
        rng = np.random.default_rng(children[i])
        codec = spec.codec_mix[reference_pick_codec(spec.codec_mix, rng.random())][0]
        loss_model, jitter_model = cells[i % len(cells)]
        if isinstance(loss_model, GilbertElliottLoss):
            lost = reference_ge_sample(loss_model, packets, rng)
        else:
            lost = rng.random(packets) < loss_model.p
        with np.errstate(over="ignore"):
            delays = reference_delays(jitter_model, packets, rng)
        arrivals = reference_arrivals(lost, delays.tolist(), spec.ptime_ms)
        if any(a is not None and math.isinf(a) for a in arrivals):
            rejected.append(RejectedFlow(flow_id, "ARRIVAL_NOT_FINITE"))
            continue
        timeline = make_timeline(arrivals, spec.ptime_ms)
        figures = reference_run_jbe(timeline, spec.jbe)
        jitter = (figures["avg_jitter_ms"], figures["max_jitter_ms"])
        if figures["received_count"] < 2:
            rejected.append(RejectedFlow(flow_id, "NOT_ENOUGH_PACKETS"))
        elif not all(math.isfinite(v) for v in jitter):
            rejected.append(RejectedFlow(flow_id, "JITTER_NOT_FINITE"))
        elif not math.isfinite(figures["mean_playout_delay_ms"]):
            rejected.append(RejectedFlow(flow_id, "PLAYOUT_NOT_FINITE"))
        else:
            r_factor, _ = reference_compute_r_factor(
                profiles[codec],
                100.0 * figures["p_loss"],
                reference_burst_ratio(figures["effective_lost"]),
                figures["mean_playout_delay_ms"],
            )
            rows.append((flow_id, codec, packets, figures["received_count"], *jitter, r_factor))
    return rows, rejected


def reference_saturation_shape(x: float, k: float) -> tuple[float, float]:
    """Decimal oracle for ``analytics.saturation_shape``: the closed forms
    g = (1 - e^(-kx)) / k and dg/dk = (x e^(-kx) - g) / k, at a precision
    that leaves 40 digits after the cancellation of both differences; at
    k = 0 the limits x and -x**2 / 2."""
    X, K = decimal.Decimal(x), decimal.Decimal(k)
    if K == 0:
        return float(X), float(-X * X / 2)
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + 2 * max(0, -(K * X).adjusted())
        e = (-K * X).exp()
        g = (1 - e) / K
        return float(g), float((X * e - g) / K)


def reference_bin_index(edges: np.ndarray, x: float) -> int | None:
    """Scalar oracle for the bin rule of ``bin_series`` and ``surface_grid``:
    the half-open bin [e_k, e_{k+1}) holding x, the last bin closed at the
    top; None when x is out of range or NaN."""
    if not edges[0] <= x <= edges[-1]:
        return None
    idx = int(np.searchsorted(edges, x, side="right")) - 1
    return len(edges) - 2 if idx == len(edges) - 1 else idx


def reference_bin_series(points, *, bins: int = 10, lo: float = 0.0, hi: float = 0.2) -> BinnedSeries:
    """Scalar oracle for ``bin_series``: its per-point loop, kept as a plain
    copy, with each bin's sorted values aggregated on their own."""
    edges = uniform_edges(bins, lo, hi)
    xs: list[list[float]] = [[] for _ in range(bins)]
    ys: list[list[float]] = [[] for _ in range(bins)]
    out_of_range = 0
    for x, y in points:
        idx = reference_bin_index(edges, x)
        if idx is None:
            out_of_range += 1
            continue
        xs[idx].append(x)
        ys[idx].append(y)
    return BinnedSeries(
        edges=tuple(float(e) for e in edges),
        counts=tuple(len(xs[k]) for k in range(bins)),
        median_x=tuple(float(np.median(xs[k])) if xs[k] else None for k in range(bins)),
        mean_y=tuple(float(np.mean(np.sort(ys[k]))) if ys[k] else None for k in range(bins)),
        std_y=tuple(float(np.std(np.sort(ys[k]))) if ys[k] else None for k in range(bins)),
        out_of_range=out_of_range,
    )


def reference_surface_grid(samples, *, p_bins, p_range, j_bins, j_range) -> SurfaceGrid:
    """Scalar oracle for ``surface_grid``: its per-sample loop, kept as a
    plain copy."""
    p_edges = uniform_edges(p_bins, *p_range)
    j_edges = uniform_edges(j_bins, *j_range)
    n_p, n_j = len(p_edges) - 1, len(j_edges) - 1
    cells: list[list[list[float]]] = [[[] for _ in range(n_j)] for _ in range(n_p)]
    out_of_range = 0
    for p, j, r in samples:
        pi = reference_bin_index(p_edges, p)
        ji = reference_bin_index(j_edges, j)
        if pi is None or ji is None:
            out_of_range += 1
            continue
        cells[pi][ji].append(r)
    means = tuple(
        tuple(
            float(np.mean(np.sort(cells[i][k]))) if cells[i][k] else None
            for k in range(n_j)
        )
        for i in range(n_p)
    )
    counts = tuple(tuple(len(cells[i][k]) for k in range(n_j)) for i in range(n_p))
    return SurfaceGrid(
        p_edges=tuple(float(e) for e in p_edges),
        j_edges=tuple(float(e) for e in j_edges),
        mean_r=means,
        counts=counts,
        out_of_range=out_of_range,
    )


def table_from_rows(rows) -> CdrTable:
    """The table of rows given in CDR column order, None for an absent
    r_factor; counts beyond int64 make object columns of Python ints."""
    flow_id, codec, tx, rx, *floats = zip(*rows) if rows else [()] * len(CDR_COLUMNS)

    def counts(values) -> np.ndarray:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)

    objects = [np.array(column, dtype=object) for column in (flow_id, codec)]
    # As float64, an absent r_factor (None) becomes NaN.
    return CdrTable(*objects, counts(tx), counts(rx), *(np.array(c, dtype=float) for c in floats))


def joined_tables(tables: Sequence[CdrTable]) -> CdrTable:
    """The rows of the tables in turn as one table, a count column of
    Python ints if any table's is."""
    tables = [table_from_rows([]), *tables]
    return CdrTable(*(np.concatenate([getattr(t, name) for t in tables]) for name in CDR_COLUMNS))


def parse_cdr_stream(stream: IO[str]) -> tuple[CdrTable, list[RejectedRow]]:
    """A whole CDR CSV parsed block by block: one table of the accepted
    rows of every block, and every reject."""
    tables, rejects = [], []
    for first_line, block in cdr_blocks(stream):
        table, block_rejects = parse_cdr_csv(block, first_line)
        tables.append(table)
        rejects += block_rejects
    return joined_tables(tables), rejects


def written_cdr(table: CdrTable) -> io.StringIO:
    """The table as a CDR file, read from its start: the header, then the
    rows ``write_cdr_csv`` writes."""
    stream = io.StringIO()
    stream.write(",".join(CDR_COLUMNS) + "\n")
    write_cdr_csv(table, stream)
    stream.seek(0)
    return stream


def synthesized(spec: SimSpec, profiles=DEFAULT_PROFILES) -> tuple[CdrTable, list[RejectedFlow]]:
    """The chunks ``synthesize_dataset`` writes, joined into one table,
    and its rejects; the table holds as many rows as it reports written."""
    chunks: list[CdrTable] = []
    written, rejected = synthesize_dataset(spec, profiles, chunks.append)
    table = joined_tables(chunks)
    assert len(table) == written
    return table, rejected


def table_rows(table: CdrTable) -> list[tuple]:
    """The table's rows as tuples in column order, None for an absent r_factor."""
    r_factor = [None if r != r else r for r in table.r_factor.tolist()]
    return list(zip(*(getattr(table, name).tolist() for name in CDR_COLUMNS[:-1]), r_factor))


def reference_summary(counts: Mapping[Codec, int], rejects: Sequence[RejectedRow]) -> dict:
    """The summary document of ``cli.summarize_dataset``, built as a dict."""
    total = sum(counts.values())
    reasons = Counter(row.reason for row in rejects)
    present = [codec for codec in Codec if counts.get(codec)]
    return {
        "total_flows": total,
        "per_codec_counts": {codec.value: counts[codec] for codec in present},
        "per_codec_shares": {codec.value: float(format_g6(counts[codec] / total)) for codec in present},
        "rejected": {
            "total": len(rejects),
            "by_reason": {r.value: reasons[r] for r in RejectReason if reasons[r]},
            "rows": [{"line_no": r.line_no, "reason": r.reason.value, "detail": r.detail} for r in rejects],
        },
    }


def written_summary(counts: Mapping[Codec, int], rejects: Sequence[RejectedRow]) -> dict:
    """The document ``cli.summarize_dataset`` writes, parsed, once its text
    is checked to be json.dumps's layout of it and to equal the oracle's."""
    stream = io.StringIO()
    summarize_dataset(counts, rejects, stream)
    text = stream.getvalue()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert doc == reference_summary(counts, rejects)
    return doc


def reference_validate_record(
    codec: Codec, tx_packets: int, rx_packets: int, avg_jitter_ms: float, max_jitter_ms: float,
    r_factor: float | None,
) -> RejectReason | None:
    """Scalar oracle for the acceptance rules of ``parse_cdr_csv``: the
    first rule a parsed row violates, or None if the row is good."""
    if tx_packets < 0 or rx_packets < 0:
        return RejectReason.NEGATIVE_COUNT
    if tx_packets == 0 and rx_packets == 0:
        return RejectReason.EMPTY_FLOW
    if avg_jitter_ms < 0 or max_jitter_ms < avg_jitter_ms:
        return RejectReason.INCONSISTENT_JITTER
    if r_factor is not None and not 0.0 <= r_factor <= codec.r_max:
        return RejectReason.R_OUT_OF_RANGE
    return None


def reference_parse_cdr_csv(stream: IO[str]) -> tuple[list[tuple], list[RejectedRow]]:
    """Scalar oracle for ``parse_cdr_csv``: its per-row loop, kept as a
    plain copy.  Accepted rows are plain tuples in CDR column order, None
    for an absent r_factor."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty input: expected header " + ",".join(CDR_COLUMNS)) from None
    if tuple(header) != CDR_COLUMNS:
        raise SchemaError(
            f"unexpected header {','.join(header)!r}; expected {','.join(CDR_COLUMNS)!r}"
        )

    rows: list[tuple] = []
    rejects: list[RejectedRow] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue

        def reject(reason: RejectReason, detail: str) -> None:
            rejects.append(RejectedRow(line_no, reason, detail))

        if len(row) != len(CDR_COLUMNS):
            reject(RejectReason.BAD_FIELD, f"expected {len(CDR_COLUMNS)} fields, got {len(row)}")
            continue
        flow_id, codec_text, tx, rx, avg_j, max_j, r_text = row
        try:
            codec = Codec(codec_text)
        except ValueError:
            reject(RejectReason.UNSUPPORTED_CODEC, f"codec {codec_text!r}")
            continue
        try:
            values = (
                codec,
                parse_int(tx, "tx_packets"),
                parse_int(rx, "rx_packets"),
                parse_float(avg_j, "avg_jitter_ms"),
                parse_float(max_j, "max_jitter_ms"),
                None if r_text == "" else parse_float(r_text, "r_factor"),
            )
        except ValueError as exc:
            reject(RejectReason.BAD_FIELD, str(exc))
            continue
        reason = reference_validate_record(*values)
        if reason is not None:
            reject(reason, reason.value)
            continue
        rows.append((flow_id, *values))
    return rows, rejects


def reference_cdr_lines(table: CdrTable, *scores: np.ndarray) -> str:
    """Scalar oracle for ``ingest.cdr_lines``: a ``csv.writer`` row per
    table row, floats by ``repr``, an absent r_factor as an empty field and
    each score by ``format_g6``.  The writer ends its rows with CR LF, which
    makes it quote a CR in a field as well as a LF on every Python; each
    row's own CR LF then becomes LF."""
    lines = []
    for (flow_id, codec, tx, rx, avg_j, max_j, r), *values in zip(table_rows(table), *(s.tolist() for s in scores)):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow([
            flow_id, codec.value, tx, rx, repr(avg_j), repr(max_j), "" if r is None else repr(r),
            *map(format_g6, values),
        ])
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def reference_read_samples(
    path: str, wanted: Codec | None, columns: tuple[str, ...]
) -> dict[Codec, list[tuple[float, ...]]]:
    """Scalar oracle for ``cli._read_samples``: its per-row DictReader loop,
    kept as a plain copy.  Samples are tuples; the stderr line is the same."""
    groups: dict[Codec, list[tuple[float, ...]]] = {}
    skipped: Counter[str] = Counter()
    with open(path, encoding="utf-8", newline="") as handle:
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
            if not 0.0 <= sample[-1] <= codec.r_max:
                skipped[f"{quality} out of range"] += 1
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
