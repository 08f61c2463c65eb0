"""Continuous CPU-speed sampling, so that times taken on a noisy host compare.

The benchmark's host is a shared virtual machine whose virtual CPUs switch
between a fast and a slow state (about 1.6x apart) every few seconds, as
other tenants load the host.  Over a 20-second run the mix of states differs
from one run to the next, so raw times spread by 15-30% between runs of
identical code.

:class:`SpeedSampler` runs a fixed ~0.5 ms probe loop from a ``SIGALRM``
handler every 40 ms, on the main thread, while the benchmark works.  The
probe's mean time over an interval says how fast the CPU ran during it.  A
:class:`Stopwatch` reports an operation's time together with the factor
``REFERENCE_PROBE_S / mean probe time`` over that operation, which takes the
time to the reference speed.  The probes' own time is excluded from every
measurement: :meth:`SpeedSampler.clock` is a ``perf_counter`` that stops
while a probe runs.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Seconds one probe takes on the reference machine (its fast state).
REFERENCE_PROBE_S = 5.0e-4


class SpeedSampler:
    """Samples the speed of the CPU running the main thread, via SIGALRM."""

    def __init__(self, interval: float = 0.04, loops: int = 6000) -> None:
        self.interval = interval
        self.loops = loops
        self.samples: List[float] = []
        #: Seconds spent inside probes; :meth:`clock` subtracts it.
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(self.loops):
            total += i * i % 7
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def clock(self) -> float:
        """A ``perf_counter`` that excludes the time spent in probes."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """Factor taking times measured since ``mark`` to the reference speed.

        An interval too short to hold a few probes takes the most recent ones.
        """
        window = self.samples[since:]
        if len(window) < 3:
            window = self.samples[-10:]
        return REFERENCE_PROBE_S / statistics.fmean(window) if window else 1.0


class Stopwatch:
    """Times one operation: raw seconds and its reference-speed factor."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler
        self.mark = sampler.mark()
        self.start = sampler.clock()

    def elapsed(self) -> float:
        return self.sampler.clock() - self.start

    def read(self) -> Tuple[float, float]:
        return self.elapsed(), self.sampler.scale(self.mark)


#: The process's sampler (a signal handler is process-wide).
SAMPLER = SpeedSampler()


def stopwatch() -> Stopwatch:
    """Start timing one operation against the process's sampler."""
    return Stopwatch(SAMPLER)
