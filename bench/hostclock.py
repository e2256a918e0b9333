"""Host-normalized timing: CPU time rescaled by an in-process canary.

Wall clock on a small shared host does not repeat: neighbours take turns
on the cores and the speed of a core moves with what runs beside it.
:class:`HostClock` corrects for both:

* it counts the process's own CPU time (``time.process_time``), which
  leaves out every stretch the process waited for a core;
* a ``SIGALRM`` timer fires every :data:`TICK_S` seconds and runs a fixed
  pure-Python loop (the canary), timed in thread CPU time.  The CPU time
  of each interval between two samples is weighted by the canary rate at
  its end, so ``host_s = sum(interval_cpu * rate) / REF_RATE`` reads in
  seconds of the reference host even when the core's speed changes in the
  middle of an operation.

The canary imports nothing from the simulator, allocates nothing (the
loop variable stays in CPython's small-int cache and ``itertools.repeat``
yields one shared object) and runs with the collector off, so no change to
the program under test can move it.  It has to sample *during* the work,
and often: a canary taken from an idle process reads up to 1.8x slower,
because the core clocks down while the process sleeps, and on a busy host
the speed changes within a second.  Canary CPU time is left out of every
interval.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time
from contextlib import contextmanager
from typing import Iterator, List

#: Seconds between canary samples.
TICK_S = 0.1
#: Loop iterations per canary sample (about 0.8 ms on the reference host,
#: under 1% of the run).
CANARY_ITERATIONS = 40_000
#: Canary rate of the reference host, in loop iterations per CPU second.
#: ``host_s`` values read in seconds of that host.  Pinned: changing it
#: rescales every recorded baseline.
REF_RATE = 50_000_000.0


def canary_rate() -> float:
    """Runs the canary loop once; returns its iterations per CPU second."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = 0
        start = time.thread_time()
        for _ in itertools.repeat(None, CANARY_ITERATIONS):
            x = (x + 7) & 255
        return CANARY_ITERATIONS / (time.thread_time() - start)
    finally:
        if was_enabled:
            gc.enable()


class Region:
    """One timed region: its CPU seconds and host-normalized seconds."""

    seconds = 0.0
    host_s = 0.0


class HostClock:
    """Samples the host's speed and times regions in CPU seconds.

    Use as a context manager around a whole run, and :meth:`region`
    around each piece to time::

        with HostClock() as clock:
            with clock.region() as timed:
                work()
        print(timed.seconds, timed.host_s)

    A clock owns ``SIGALRM`` while it runs, so one runs at a time.
    """

    def __init__(self) -> None:
        #: Canary rates in iterations per CPU second, one per sample.
        self.rates: List[float] = []
        self._cpu_s = 0.0
        self._host_s = 0.0
        self._mark = 0.0
        self._sampling = False
        self._previous_handler = None

    def __enter__(self) -> "HostClock":
        self.rates.append(canary_rate())
        self._mark = time.process_time()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    @contextmanager
    def region(self) -> Iterator[Region]:
        """Times the block; a sample at each end aligns it with the
        canary's intervals."""
        region = Region()
        self._sample()
        cpu_before, host_before = self._cpu_s, self._host_s
        try:
            yield region
        finally:
            self._sample()
            region.seconds = self._cpu_s - cpu_before
            region.host_s = self._host_s - host_before

    def host_s(self, cpu_s: float) -> float:
        """``cpu_s`` spent outside the clock, at the run's mean speed."""
        return cpu_s * self._host_s / self._cpu_s if self._cpu_s else 0.0

    def rate(self) -> float:
        """The run's CPU-weighted mean canary rate."""
        return self._host_s / self._cpu_s * REF_RATE if self._cpu_s else 0.0

    def _tick(self, _signum, _frame) -> None:
        # A tick that lands inside an explicit sample is dropped: the
        # sample in progress already covers its interval.
        if not self._sampling:
            self._sample()

    def _sample(self) -> None:
        self._sampling = True
        try:
            interval = time.process_time() - self._mark
            rate = canary_rate()
            self.rates.append(rate)
            self._cpu_s += interval
            self._host_s += interval * rate / REF_RATE
            self._mark = time.process_time()
        finally:
            self._sampling = False
