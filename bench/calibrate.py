"""A fixed slice of pure-Python work that gauges the host's speed.

The reference machine's speed drifts by up to 1.4x over minutes (see
NOTES.md), and that drift moves every kcalc timing with it.  The worker times
this kernel every ``EVERY_S`` seconds between queries, outside the timed
calls.  run.py scales the times of each round by ``REFERENCE_MS`` over the
median kernel time of that round, so that a figure reads as milliseconds on
the reference machine at its usual speed.

The kernel does the kinds of work kcalc does: Fraction sums, big-integer
remainders and gcds, and short-lived small objects in a dict.  It imports nothing from kcalc and
runs with the cyclic garbage collector paused, so its time does not depend
on what kcalc keeps alive in the process: a change to kcalc never changes it.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Median kernel time on the reference machine (2-vCPU KVM guest, Intel Xeon
# at 2.1 GHz, Python 3.11.7).
REFERENCE_MS = 5.9
# Sampling period; at about 6 ms a sample, the kernel takes 3% of a run.
EVERY_S = 0.2


class _Cell:
    __slots__ = ("key", "links")

    def __init__(self, key, links) -> None:
        self.key, self.links = key, links


def kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, 3 ** (i % 6))
    big = 10 ** 300
    wide = sum(math.gcd(big + i, 3 ** 600 + 7 * i) for i in range(40))
    m = (1 << 89) - 1
    hits = sum(1 for p in range(3, 14000, 2) if m % p == 0)
    cells = 0
    for _ in range(10):  # small batches, so that the kernel adds little to peak RSS
        index = {(i, i >> 2): _Cell((i, i >> 2), (i % 7, i % 11)) for i in range(500)}
        cells += sum(len(cell.links) for cell in index.values())
    return acc.numerator % 97 + wide + hits + cells


def measure_ms() -> float:
    """Time of one kernel call, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()
