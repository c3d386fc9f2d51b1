"""Host-speed probes that take the host's own speed changes out of timings.

Benchmark hosts are often shared VMs.  On the 2-vCPU x86_64 VM the
reference numbers come from, every vCPU runs 1.3-1.8x slower for seconds
to minutes at a time: a fixed loop slows on both vCPUs at once, in CPU
time as much as in wall time.  A timing made across such a period
measures the host, not the program.

:class:`HostSpeed` runs a fixed pure-Python loop, the *probe*, between
steps of the measured work, at most every ``PERIOD_S`` seconds.  The
probe belongs to the benchmark and never changes with the program.  Each
stretch of time between two probes is divided by the host's
slowness over it: the mean of the two probe times, relative to
``REFERENCE_PROBE_S``.  The result reads as seconds on the reference
host in its fast periods.  Time spent probing counts nowhere.  The
probe loop fits in the first-level cache and the workloads do not, so
it catches most of a slowdown but not all of it.

The stretches are timed in process CPU time by default.  It runs at the
host's slowed speed like wall time, but leaves out the time the
hypervisor gives this vCPU to other guests (steal): such gaps hit a few
long steps and move tail percentiles, and the probe, which keeps the
fastest of its runs, cannot see them.

This only works while the program runs on one thread: a thread of the
program running during a probe would slow the probe and flatter the
program.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

#: Seconds one probe takes on the reference host (x86_64 VM, 2 vCPUs,
#: Python 3.11) in its fast periods.  It only scales normalized values.
REFERENCE_PROBE_S = 1.5e-3
#: Clock of the measured work: process CPU time (see above).
CLOCK = time.process_time
#: Least time between two probes; each probe costs about 3 probe
#: loops (~5 ms), so the probes take about 1% of a run.
PERIOD_S = 0.5


def probe_seconds() -> float:
    """Fastest of three runs of the probe loop: the fastest, because a
    preempted run only adds time."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Probes the host while a measurement runs, and normalizes its times.

    Construction probes once and opens the first stretch; :meth:`tick`
    probes and opens a new stretch when ``PERIOD_S`` has passed;
    :meth:`close` ends the current one.  Samples taken while stretch
    ``i`` is open are normalized by that stretch's slowness.
    """

    def __init__(self, clock: Callable[[], float] = CLOCK) -> None:
        self.clock = clock
        #: (seconds, slowness) of each closed stretch; slowness 1.0 is
        #: the reference host.
        self.stretches: List[Tuple[float, float]] = []
        #: Seconds spent in probes after the first one.
        self.probe_s = 0.0
        self._slowness = probe_seconds() / REFERENCE_PROBE_S
        self._start = clock()

    @property
    def stretch(self) -> int:
        """Index of the open stretch."""
        return len(self.stretches)

    def tick(self) -> None:
        now = self.clock()
        if now - self._start >= PERIOD_S:
            self.close(now)

    def close(self, now: Optional[float] = None) -> None:
        """End the open stretch at ``now``, probe, and open the next one."""
        now = self.clock() if now is None else now
        slowness = probe_seconds() / REFERENCE_PROBE_S
        start = self.clock()
        self.probe_s += start - now
        self.stretches.append((now - self._start, (self._slowness + slowness) / 2))
        self._slowness, self._start = slowness, start

    @property
    def measured_s(self) -> float:
        """Seconds of the closed stretches (probes excluded)."""
        return sum(seconds for seconds, _ in self.stretches)

    @property
    def normalized_s(self) -> float:
        return sum(seconds / slow for seconds, slow in self.stretches)

    def normalize(self, samples: List[Tuple[float, int]]) -> List[float]:
        """``(value, stretch)`` samples, each divided by its stretch's slowness."""
        return [value / self.stretches[i][1] for value, i in samples]
