"""Machine-speed reference for calibrated timings.

On a shared machine the speed of one core drifts: the same pure-Python loop
runs at 7 ms in one second and 13 ms in the next.  Raw wall times of two runs of
identical code can then differ by 30% or more, far beyond any useful
regression bound.  The benchmark therefore times a fixed reference kernel
between operations and reports each time scaled to the kernel's nominal
time:

    calibrated = raw * NOMINAL_S / median reference time around the operation

The kernel does the kind of work pms does (sparse products of Fraction
coefficients keyed by exponent tuples) but uses no pms code, so no change to
the program can move it.  Raw times are kept beside the calibrated ones in
the detailed results.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# An operation is calibrated by the median of the reference runs that start
# within this many seconds of it; speed phases on a shared machine last seconds.
WINDOW_S = 0.25

# The kernel's time on a fast core of a 2-core x86-64 container with CPython
# 3.11.7, where the bounds in BENCHMARK.json were set.
NOMINAL_S = 0.002

_TERMS = {
    (i, j): Fraction(i + 2 * j + 1, j + 5)
    for i in range(-2, 3)
    for j in range(-2, 3)
}


def _kernel() -> dict:
    acc: dict = {}
    for (a0, a1), ca in _TERMS.items():
        for (b0, b1), cb in _TERMS.items():
            key = (a0 + b0, a1 + b1)
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(references: list[float]) -> float:
    """Factor turning a raw time into a calibrated one (median reference)."""
    return NOMINAL_S / statistics.median(references)
