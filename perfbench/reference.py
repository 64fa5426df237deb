"""A fixed reference computation that tracks how fast the host runs right now.

The measured machine is shared: for minutes at a time the same code runs up
to a third slower or faster, so wall times of one run cannot be compared
with another's.  The benchmark times this reference between chains and
scales each chain's wall time by ``NOMINAL_S / reference time``: work the
host slows down slows the reference alike and cancels out, while a change
to the program moves only the chain.  The reference uses no volteqa code,
so no change to the program can move it.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Typical reference time on the machine the bounds were set on (2 vCPU
# Intel Xeon, Python 3.11, numpy 2.4): scaled times read as seconds there.
NOMINAL_S = 0.22


@dataclass(frozen=True)
class _Row:
    index: int
    value: float
    label: str


def _arithmetic() -> float:
    """Float arithmetic and dict stores in a Python loop."""
    acc = 0.0
    total = 0.0
    table = {}
    for i in range(150_000):
        x = (i * 0.37) % 11.0
        acc = max(acc * 0.999 + x, 0.0)
        table[i & 1023] = (i, x)
        total += abs(x - acc)
    return total


def _objects() -> float:
    """Small numpy draws, frozen dataclass instances and CSV round trips.

    Rows go through the CSV buffer a thousand at a time, so the reference
    adds little to the run's peak memory.
    """
    rng = np.random.default_rng(5)
    total = 0.0
    for chunk in range(20):
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for i in range(chunk * 1000, (chunk + 1) * 1000):
            row = _Row(i, float(rng.random(8).sum()), f"id-{i:06d}")
            writer.writerow([row.index, repr(row.value), row.label])
        buffer.seek(0)
        total += sum(float(value) + int(index) for index, value, _ in csv.reader(buffer))
    return total


def reference_s() -> float:
    """Median of three timings of the reference computation, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _arithmetic()
        _objects()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
