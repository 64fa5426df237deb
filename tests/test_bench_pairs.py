"""tools/bench_pairs.py: one short pair of one tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pairs_appends_one_entry_per_call(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    record = tmp_path / "BENCH_long_bursty.json"
    argv = [
        sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "HEAD", "HEAD", "--workload", "long_bursty",
        "--seed", "1", "--seconds", "0.1", "--pairs", "1", "--output", str(record),
    ]
    record.write_text("[]\n", encoding="utf-8")
    done = subprocess.run(argv, capture_output=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    [entry] = json.loads(record.read_text(encoding="utf-8"))
    assert entry["base"]["commit"] == entry["head"]["commit"]
    assert (entry["workload"], entry["seed"], entry["seconds"], entry["pairs"]) == ("long_bursty", 1, 0.1, 1)
    assert set(entry["host"]) == {"cpus", "python", "numpy"}
    names = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    for side in ("base", "head"):
        [run] = entry["runs"][side]
        assert sorted(run) == sorted(names)
    for name in names:
        row = entry["summary"][name]
        assert row["base"]["median"] == entry["runs"]["base"][0][name]
        assert row["head"]["q1"] == row["head"]["median"] == row["head"]["q3"] == entry["runs"]["head"][0][name]
        assert row["head_wins"] in (0, 1)
