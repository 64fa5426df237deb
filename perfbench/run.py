#!/usr/bin/env python3
"""Benchmark the volteqa pipeline on one workload.

    python3 perfbench/run.py --workload long_bursty --seed 1 --seconds 30 --trace 0

Runs the workload's CLI stage chain in-process through
``volteqa.cli.main(argv)`` again and again for ``--seconds`` (at least
three times), checking every output, and prints as its last stdout line
one JSON object: ``correct``, ``attempted`` and ``failed`` stage runs, and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` traced and untraced chains alternate and the metrics
are the per-layer ones, derived from spans recorded by wrappers the
benchmark installs around each layer's functions.  Must be run from a
checkout holding ``src/volteqa``; scratch files go under
``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "volteqa"
    if not (source / "cli.py").is_file():
        print(f"error: no volteqa sources under {source.parent}", file=sys.stderr)
        return 2
    # One process and no extra threads: the measured host has two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(source.parent), str(ROOT)]

    # The program's import is part of set-up; nothing else is imported yet.
    start = time.perf_counter()
    import volteqa.cli

    import_s = time.perf_counter() - start
    if Path(volteqa.cli.__file__).resolve().parent != source:
        print(f"error: volteqa imported from {volteqa.cli.__file__}", file=sys.stderr)
        return 2

    from perfbench.bench import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace), import_s, HERE / ".work")


if __name__ == "__main__":
    sys.exit(main())
