"""Helpers shared by the workloads: percentiles, resource usage, results."""

from __future__ import annotations

import gc
import math
import resource
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from speed import REFERENCE_S, reference_median

__all__ = ["Result", "percentile", "cpu_seconds", "peak_rss_mb", "current_rss_mb",
           "timed_build", "median_setup"]


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a name from ``BENCHMARK.json`` to its value.
    ``report`` holds the human-readable lines printed above the JSON line,
    as ``(name, value, unit)``; the end-to-end lines use the names the
    workload's own domain uses (``dns_qps``, ``flows_per_s``, ...).
    ``wrong`` counts outputs that failed a correctness check; they are
    also counted in ``failed``.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size; ``ru_maxrss`` is in KiB on Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """This process's resident set size now (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def timed_build(build: Callable[[], object], clock: Callable[[], float]
                ) -> tuple[object, float, float]:
    """Run ``build`` once; returns what it built, its time, and its time
    scaled to the nominal host of :mod:`speed` by the reference loop timed
    just before and just after it."""
    before = reference_median()
    started = clock()
    built = build()
    seconds = clock() - started
    return built, seconds, seconds * REFERENCE_S / statistics.mean([before, reference_median()])


def median_setup(build: Callable[[], object], repeats: int, clock: Callable[[], float],
                 discard: Callable[[object], None] = lambda built: None
                 ) -> tuple[object, list[float], list[float]]:
    """Build ``repeats`` times and keep the last; returns it and every
    build time, raw and scaled (see :func:`timed_build`).  Each earlier
    build is discarded and collected before the next starts, so only one
    is alive at a time."""
    raw, scaled = [], []
    built = None
    for _ in range(repeats):
        if built is not None:
            discard(built)
            built = None
            gc.collect()
        built, seconds, nominal = timed_build(build, clock)
        raw.append(seconds)
        scaled.append(nominal)
    return built, raw, scaled
