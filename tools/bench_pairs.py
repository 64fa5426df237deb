#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs and record the runs.

    python3 tools/bench_pairs.py BASE HEAD --workload W --seed N --seconds S --pairs P

Extracts a ``git archive`` of each revision of this checkout's repository
into a temporary directory, then runs ``perfbench/run.py --workload W
--seed N --seconds S --trace 0`` from each tree, P pairs of one run each,
under ``PYTHONDONTWRITEBYTECODE=1`` so that neither tree is timed with
cached bytecode.  The order alternates by pair (BASE first, then HEAD
first) so that a drift of the host weighs on both sides alike.

Appends one entry to ``BENCH_<workload>.json`` at the root of the
checkout (or to ``--output``), a JSON list of entries.  An entry holds
both revisions and their commits, the workload, seed, seconds and pairs,
the host (CPU count, Python and numpy versions), every run's end-to-end
metrics, and per metric of ``BENCHMARK.json``'s ``end_to_end`` list: each
side's median and quartiles, HEAD's change of the median, BASE's quartile
spread as a share of its median beside the metric's bound, and in how
many pairs HEAD was the better.  A run that fails or ends not
``correct`` stops the tool before anything is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, encoding="utf-8").stdout.strip()


def extract(commit: str, tree: Path) -> None:
    """Write the files of ``commit`` under ``tree``."""
    tree.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise subprocess.CalledProcessError(archive.returncode, ["git", "archive", commit])


def bench_run(tree: Path, args: argparse.Namespace) -> dict:
    """The result line of one ``perfbench/run.py`` run from ``tree``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [
        sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, encoding="utf-8")
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"error: {tree.name}: perfbench/run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {tree.name}: run not correct: {lines[-1]}\n{done.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Each end-to-end metric's quartiles per side, change and wins."""
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run[name] for run in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        base = stats["base"]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **stats,
            "change": stats["head"]["median"] / base["median"] - 1 if base["median"] else None,
            "base_spread": (base["q3"] - base["q1"]) / base["median"] if base["median"] else None,
            "bound": metric["bound"],
            "head_wins": sum((h > b) if higher else (h < b) for b, h in zip(values["base"], values["head"])),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="Revision measured as the base")
    parser.add_argument("head", help="Revision measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--output", type=Path, help="Record to append to (default: BENCH_<workload>.json at the root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    revisions = {side: getattr(args, side) for side in SIDES}
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in revisions.items()}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            extract(commits[side], trees[side])
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                runs[side].append(bench_run(trees[side], args))
                print(f"pair {pair + 1}/{args.pairs} {side}: {json.dumps(runs[side][-1])}", file=sys.stderr)

    entry = {
        **{side: {"revision": revisions[side], "commit": commits[side]} for side in SIDES},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "host": {
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "runs": runs,
        "summary": summarize(runs, metrics),
    }
    output = args.output or ROOT / f"BENCH_{args.workload}.json"
    record = json.loads(output.read_text(encoding="utf-8")) if output.exists() else []
    record.append(entry)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, row in entry["summary"].items():
        print(
            f"{name}: {row['base']['median']:.6g} -> {row['head']['median']:.6g} {row['unit']}"
            f" (head better in {row['head_wins']} of {args.pairs})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
