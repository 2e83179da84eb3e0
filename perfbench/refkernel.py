"""The fixed pure-Python reference kernel that every query time is divided by.

The shared 2-core x86 VM this benchmark was built on switches between speed
regimes about 1.7x apart, on time scales from seconds to tens of minutes
(NOTES.md).  Wall time and CPU time drift together, so neither repeats; a
query's time divided by the time of this kernel, run just before and just
after it, repeats far better.  The kernel does the kind of work the solver does (`Fraction`
arithmetic, int and dict work, small sets) and imports nothing from
worstvote, so a change to the program cannot change the kernel's work.
"""

from __future__ import annotations

import itertools
import multiprocessing
import statistics
import time
from fractions import Fraction

REPEATS = 3  # one reading is the median of this many kernel runs
# The kernel's result; a different value means the kernel's work changed.
CHECKSUM = (Fraction(23, 63), 33883428976, 33000)


def kernel() -> tuple[Fraction, int, int]:
    """Deterministic work from a linear congruential stream, in three parts
    of roughly 1:2:1 time: a bounded-denominator `Fraction` accumulator, an
    int and dict histogram, and sets built from 3-element combinations.

    The mix was chosen on that machine by timing candidate parts beside
    protocol, scan and maximality queries for 200 s and keeping the mix
    whose ratio to the queries varied least; no single part did as well."""
    x = 12345
    acc = Fraction(0)
    for _ in range(90):
        for j in range(1, 10):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += Fraction(x % 97 + 1, j + 1)
            acc -= acc.numerator // acc.denominator
    table: dict[int, int] = {}
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 255] = table.get(x & 255, 0) ^ (x >> 3)
    sizes = 0
    for i in range(40):
        for combo in itertools.combinations(range(12), 3):
            sizes += len(set(combo) | {i % 12})
    return acc, sum(table.values()), sizes


def timed_kernel() -> float:
    """Seconds one kernel run takes now: the median of REPEATS runs.  Runs
    only between queries, when no worker process is alive, so nothing else
    of the benchmark shares the CPU."""
    if multiprocessing.active_children():
        raise RuntimeError("reference kernel started while worker processes are alive")
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = kernel()
        times.append(time.perf_counter() - started)
        if result != CHECKSUM:
            raise RuntimeError(f"reference kernel returned {result}, expected {CHECKSUM}")
    return statistics.median(times)
