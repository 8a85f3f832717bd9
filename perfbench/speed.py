"""The host-speed reference: a fixed loop timed next to the work.

On a shared virtual machine a CPU's speed swings by up to ±25% over a
second or two, as other tenants come and go, and each CPU swings on its
own.  The benchmark times a fixed pure-Python loop on the CPU that does
the work, right next to the work, and scales what it measures to a
nominal host on which that loop takes ``REFERENCE_S``.

The loop is integer arithmetic on a few local names: it touches no memory
of its own beyond the first-level cache, so its timing follows the CPU's
speed and not what the program left in the caches.  A program that grows
its memory footprint cannot slow the loop down and so cannot hide its own
slowdown in the scaling.  In 40-s runs of the flow workloads on a 2-CPU
VM, the coefficient of variation of the medians of tenths of the run was
5-10% for batch times unscaled and 3-4% scaled by this loop.  Loops that
probe a large dict tracked the program no better (4-6% when timed cold)
or worse (10-13% on a second, warmed pass), and a cold probe is slowed by
whatever the program evicted.

A scaled time is ``raw × REFERENCE_S / reference``; a scaled rate is
``raw × reference / REFERENCE_S``.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

__all__ = ["REFERENCE_S", "reference_seconds", "reference_median", "pinned"]

#: The reference loop's time on the nominal host.
REFERENCE_S = 0.0012
_ROUNDS = 20_000


def reference_seconds() -> float:
    """Time one run of the loop on this CPU."""
    started = time.perf_counter()
    total = 0
    for i in range(_ROUNDS):
        total += i * i
    return time.perf_counter() - started


def reference_median() -> float:
    """The median of three timings of the loop on this CPU, for a scale
    taken once in a while, where one preempted run must not set it."""
    return statistics.median(reference_seconds() for _ in range(3))


@contextmanager
def pinned(cpu: int):
    """Run this process on ``cpu`` only, for the ``with`` block."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)
