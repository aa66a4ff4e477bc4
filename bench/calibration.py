"""Calibration kernel that puts timings on a shared machine on one scale.

On a machine shared with other tenants the speed of the same code drifts
by tens of percent from one second to the next, in every process and on
every core alike.  The benchmark therefore times a fixed piece of work, a
loop of ``Fraction`` arithmetic and tuple comparisons like the package's
own inner loops, right before and right after each timed operation, and
rescales the operation's time by how slow that kernel ran just then:

    reported = measured * NOMINAL_S / median(kernel times around it)

Reported times are thus in seconds of a machine on which the kernel takes
NOMINAL_S, and a change to ordcone moves them while a change in machine
load mostly does not.  The raw wall-clock figures are printed alongside.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Kernel time on an idle run of a 2-vCPU x86-64 VM with CPython 3.11.
NOMINAL_S = 0.0022
SAMPLES_PER_SIDE = 3


def kernel() -> Fraction:
    total = Fraction(0)
    best: tuple = ()
    for i in range(1, 300):
        triple = (Fraction(i % 7 + 1, i % 5 + 1), Fraction(i % 3 + 1, 4), Fraction(i, 9))
        total += triple[0] * triple[1] - triple[2]
        if triple > best:
            best = triple
    return total


def sample(count: int = SAMPLES_PER_SIDE) -> list[float]:
    """Seconds taken by each of ``count`` kernel runs."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def scale(before: list[float], after: list[float]) -> float:
    """Factor that converts a time measured between the samples to nominal."""
    return NOMINAL_S / statistics.median(before + after)
