#!/usr/bin/env python3
"""Write every output of the benchmark's workload chains for one source tree.

    python3 tools/pipeline_outputs.py TREE OUT --seed N

Imports ``volteqa`` from ``TREE/src`` and runs each workload chain of
``perfbench.workloads`` (this checkout's, so that every tree gets the same
inputs) through ``volteqa.cli.main`` with ``SOURCE_DATE_EPOCH=0``.  Each
workload gets its own directory under ``OUT`` holding its input, every
output file, and each stage's exit code and stderr as ``STAGE.exit`` and
``STAGE.stderr``.  Stages run from inside that directory with relative
paths, so no absolute path reaches an output or a message, and the trees
of two runs compare with ``diff -r``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="Source tree whose src/volteqa is run")
    parser.add_argument("out", type=Path, help="Directory to write the outputs under")
    parser.add_argument("--seed", type=int, default=1, help="Seed of the workload inputs")
    args = parser.parse_args(argv)
    source = (args.tree / "src").resolve()
    if not (source / "volteqa" / "cli.py").is_file():
        parser.error(f"no volteqa sources under {source}")
    sys.path[:0] = [str(source), str(ROOT)]
    import volteqa.cli

    if Path(volteqa.cli.__file__).resolve().parent != source / "volteqa":
        parser.error(f"volteqa imported from {volteqa.cli.__file__}")
    from perfbench.workloads import WORKLOADS

    os.environ["SOURCE_DATE_EPOCH"] = "0"
    here = Path.cwd()
    for name, workload in WORKLOADS.items():
        directory = args.out.resolve() / name
        directory.mkdir(parents=True, exist_ok=True)
        os.chdir(directory)
        try:
            inputs = workload.prepare(Path("."), args.seed)
            for stage in workload.stages:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code = str(volteqa.cli.main(workload.argv(stage, inputs, Path("."))))
                    except (Exception, SystemExit) as exc:  # recorded, as a stage's failure
                        code = "exception"
                        err.write("".join(traceback.format_exception_only(exc)))
                Path(f"{stage}.exit").write_text(code + "\n", encoding="utf-8")
                Path(f"{stage}.stderr").write_text(err.getvalue(), encoding="utf-8")
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
