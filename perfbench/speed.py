"""The host's momentary speed, measured by a fixed reference kernel.

The benchmark runs on shared hosts whose speed swings by up to 2x, in
stretches from under a second to many minutes, for the library and for a
pure-Python loop alike.  So a run times a fixed kernel before every job
and, from a timer signal, every ``INTERVAL_S`` while a job runs, and
scales every time it reports by ``REF_KERNEL_S`` over the kernel times
taken during it: the result reads as seconds on a host where the kernel
takes ``REF_KERNEL_S``.  The kernel does not call hampack, so a change to
the library moves the scaled times as it moves the raw ones.

The time the timer's kernel takes is kept out of every measurement: all
readings come from ``Speed.clock``, which stops while the kernel runs.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# sets the unit only: a round figure within the kernel's range of 0.6-1.3
# ms on a 2-vCPU Intel Xeon VM (2.0 GHz nominal) with Python 3.11.7, the
# machine behind the baseline in METRICS.md
REF_KERNEL_S = 0.0008
# kernel runs per sample taken between jobs
REPEATS = 3
# the timer's period while a job runs, and how far before and after a
# job its samples may lie: the host's speed changes within a second, so
# a job is scaled by the samples taken during it and right beside it
INTERVAL_S = 0.1
PAD_S = 0.05

_KEYS = [(k * 2654435761) & 0x3FF for k in range(256)]


def kernel() -> int:
    """A fixed pure-Python workload of the library's kind: bit operations
    on ints, set and dict lookups, small tuples and a sort."""
    present = set(_KEYS)
    counts: dict[int, int] = {}
    for k in _KEYS:
        for b in range(10):
            o = k ^ (1 << b)
            if o in present:
                counts[o] = counts.get(o, 0) + 1
    profile = sorted((v, k) for k, v in counts.items())
    words = {tuple((k >> i) & 3 for i in range(0, 10, 2)) for k in _KEYS}
    return len(profile) + len(words)


class Speed:
    """Kernel samples of one pass, by the ``clock`` reading they were taken at."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._stolen = 0.0  # seconds the timer's kernel has taken
        self._busy = False
        self._previous_handler = None

    def clock(self) -> float:
        """perf_counter without the time spent in the timer's kernel."""
        return perf_counter() - self._stolen

    def sample(self, repeats: int = REPEATS) -> None:
        """Time the kernel ``repeats`` times with the collector off."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                t0 = perf_counter()
                kernel()
                t1 = perf_counter()
                self.times.append((t0 + t1) / 2 - self._stolen)
                self.kernel_s.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        start = perf_counter()
        self.sample(1)
        self._stolen += perf_counter() - start

    def __enter__(self) -> Speed:
        """Sample every INTERVAL_S until the block ends."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def factor(self, start: float, end: float) -> float:
        """REF_KERNEL_S over the kernel time, averaged as a speed over the
        samples within PAD_S of [start, end]."""
        lo = bisect_left(self.times, start - PAD_S)
        hi = bisect_right(self.times, end + PAD_S)
        return statistics.fmean(REF_KERNEL_S / k for k in self.kernel_s[lo:hi])

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
