"""Ambient observation scope: one tracer per system, one shared registry.

Experiments build :class:`~repro.runtime.system.System` objects deep
inside paradigm and profiler code, so observability cannot be threaded
as an explicit argument without touching every harness.  Instead, an
:class:`Observation` installs itself as the *ambient* scope
(:func:`capture`); any ``System`` constructed while it is active
receives a fresh :class:`~repro.sim.trace.Tracer` (each system has its
own simulation clock, so each gets its own timeline) and the shared
:class:`~repro.obs.metrics.MetricsRegistry`.

The scope is a :mod:`contextvars` variable, so worker processes and
threads each see their own observation (or none).  :func:`suppress`
masks the ambient scope — the profiler uses it so that configuration
sweeps (hundreds of throwaway systems) do not flood the trace, keeping
observed runs identical at any sweep job count (pool workers never see
the parent's scope).

Sweep telemetry is a separate, explicit opt-in: ``capture(sweeps=True)``
(or ``Session(sweeps=True)``).  The *simulated* candidate runs stay
suppressed either way — that contract is what keeps sweep results
byte-identical and cheap — but with ``sweeps`` enabled the profiler
additionally streams its own telemetry into the observation: per-worker
activity lanes (``sweep.worker{N}`` channels on the ambient tracer), a
typed :class:`~repro.obs.decisions.DecisionLog` mirrored on the
``decision`` channel, and batch/queue-wait/candidate-runtime histograms
in the shared registry.  With ``sweeps`` off (the default), a capture
around ``Profiler.profile`` sees exactly what it always saw: the
post-hoc per-candidate summary on the ``profiler`` channel and nothing
else.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.chrome_trace import export_chrome_trace
from repro.obs.decisions import DecisionLog
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import Tracer


class Observation:
    """A capture in progress: labelled per-system tracers + metrics.

    ``sweeps=True`` opts into profiler sweep telemetry (worker lanes,
    decision log, sweep histograms); see the module docstring for the
    exact contract.  ``epoch`` anchors every wall-clock lane (worker
    spans, decision instants) so the exported document starts near 0.
    """

    def __init__(self, sweeps: bool = False) -> None:
        self.sweeps = sweeps
        self.epoch = time.time()
        self.metrics = MetricsRegistry()
        # Off-clock lanes (e.g. the profiler's per-candidate sweep
        # timings) that belong to the capture, not to any one system.
        self.ambient_tracer = Tracer()
        self.traces: List[Tuple[str, Tracer]] = [
            ("capture", self.ambient_tracer)]
        self.decisions = DecisionLog(tracer=self.ambient_tracer,
                                     epoch=self.epoch)

    def new_tracer(self, label: str) -> Tracer:
        """A fresh tracer registered under ``label`` (one per system)."""
        tracer = Tracer()
        self.adopt_tracer(label, tracer)
        return tracer

    def adopt_tracer(self, label: str, tracer: Tracer) -> None:
        """Register an externally created tracer into this capture."""
        self.traces.append((f"run{len(self.traces)}:{label}", tracer))

    def chrome_trace(self) -> Dict:
        """Everything captured so far as one Chrome-trace document."""
        return export_chrome_trace(self.traces)

    def export(self) -> Dict:
        """Picklable summary: Chrome document, metrics, decision log."""
        return {
            "trace": self.chrome_trace(),
            "metrics": self.metrics.snapshot(),
            "decisions": self.decisions.export(),
        }


_ACTIVE: contextvars.ContextVar[Optional[Observation]] = \
    contextvars.ContextVar("repro_observation", default=None)


def active() -> Optional[Observation]:
    """The ambient observation, if a :func:`capture` scope is active."""
    return _ACTIVE.get()


@contextmanager
def capture(sweeps: bool = False) -> Iterator[Observation]:
    """Observe every system built inside the scope.

    ::

        with capture() as obs:
            fig9_overlap.run()
        write_chrome_trace("trace.json", obs.chrome_trace())

    ``sweeps=True`` additionally captures profiler sweep telemetry
    (worker lanes, decision log, sweep histograms)::

        with capture(sweeps=True) as obs:
            Profiler(platform, search="exhaustive").profile(builder)
        assert obs.decisions.count("measure")
    """
    with observing(Observation(sweeps=sweeps)) as observation:
        yield observation


@contextmanager
def observing(observation: Observation) -> Iterator[Observation]:
    """Install an *existing* observation as the ambient scope.

    :func:`capture` creates a fresh :class:`Observation` per scope; a
    :class:`repro.api.Session` instead owns one observation for its whole
    lifetime and re-installs it around every entry point, so traces and
    metrics from successive runs accumulate in one place.
    """
    token = _ACTIVE.set(observation)
    try:
        yield observation
    finally:
        _ACTIVE.reset(token)


@contextmanager
def suppress() -> Iterator[None]:
    """Mask the ambient observation (systems inside are unobserved)."""
    token = _ACTIVE.set(None)
    try:
        yield
    finally:
        _ACTIVE.reset(token)
