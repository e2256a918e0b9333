"""Typed decision log for profiler/autotuner sweeps.

PROACT's headline mechanism is the profiler *choosing* — which
configurations to measure, which to prune on their infinite-bandwidth
floors, when the incumbent moved — yet those choices used to vanish
inside the sweep.  A :class:`DecisionLog` records
each one as a typed :class:`DecisionEvent`, queryable from the owning
:class:`~repro.obs.capture.Observation` and mirrored as instant events
on the ``decision`` channel of its ambient tracer, so the same stream
shows up as its own lane in the exported Chrome-trace document.

Event kinds (:data:`DECISION_KINDS`):

``floors``
    One search wave's infinite-bandwidth floor runs finished (payload:
    count, min/max floor).
``measure``
    One candidate was fully measured (payload: config label, runtime).
``prune``
    One candidate was skipped because its lower bound strictly exceeded
    the incumbent (payload: config label, the deciding value as
    ``bound`` (analytic) or ``floor``, and the incumbent).
``incumbent``
    The best measured runtime improved (payload: config label, runtime).
``certify``
    One best-first wave of candidates whose floors could still win was
    measured (payload: how many it measured).

For any complete sweep, every grid candidate ends in exactly one of
``measure`` or ``prune``, so ``count("measure") + count("prune")``
equals the grid size — the invariant the telemetry benchmark asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.trace import Tracer

#: The recognized decision-event kinds, in rough sweep order.
DECISION_KINDS: Tuple[str, ...] = (
    "floors", "measure", "prune", "incumbent", "certify",
)

#: Chrome-trace channel (and hence Perfetto lane) decision events use.
DECISION_CHANNEL = "decision"


@dataclass(frozen=True)
class DecisionEvent:
    """One recorded sweep decision."""

    seq: int
    wall: float  #: Seconds since the log's epoch (wall clock, not sim).
    kind: str
    config: Optional[str] = None  #: Candidate label, when about one.
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (travels on pickled experiment results)."""
        entry: Dict[str, Any] = {"seq": self.seq,
                                 "wall": round(self.wall, 6),
                                 "kind": self.kind}
        if self.config is not None:
            entry["config"] = self.config
        if self.payload:
            entry["payload"] = dict(self.payload)
        return entry


class DecisionLog:
    """Append-only log of sweep decisions, mirrored into a tracer.

    ``tracer`` is typically the observation's ambient tracer; every
    logged event is also recorded there as an instant on
    :data:`DECISION_CHANNEL` (a no-op when tracing is disabled, so the
    typed log still works for metrics-only captures).  ``clock`` exists
    for tests that need deterministic timestamps.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 epoch: Optional[float] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self._tracer = tracer
        self._clock = clock
        self.epoch = clock() if epoch is None else epoch
        self._events: List[DecisionEvent] = []
        self._counts: Dict[str, int] = {}

    def log(self, kind: str, config: Optional[str] = None,
            **payload: Any) -> DecisionEvent:
        """Record one decision; returns the typed event."""
        if kind not in DECISION_KINDS:
            raise ValueError(
                f"unknown decision kind {kind!r}; "
                f"expected one of {DECISION_KINDS}")
        event = DecisionEvent(seq=len(self._events),
                              wall=self._clock() - self.epoch,
                              kind=kind, config=config, payload=payload)
        self._events.append(event)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if self._tracer is not None:
            args = dict(payload)
            if config is not None:
                args["config"] = config
            self._tracer.record(event.wall, DECISION_CHANNEL,
                                kind if config is None
                                else f"{kind} {config}",
                                payload=args)
        return event

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[DecisionEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        return self._counts.get(kind, 0)

    def select(self, kind: str) -> List[DecisionEvent]:
        """All events of one kind, in log order."""
        return [event for event in self._events if event.kind == kind]

    def final_incumbent(self) -> Optional[DecisionEvent]:
        """The last ``incumbent`` update — the sweep's chosen config."""
        incumbents = self.select("incumbent")
        return incumbents[-1] if incumbents else None

    def summary(self) -> Dict[str, Any]:
        """Compact JSON-ready overview: per-kind counts + the winner."""
        summary: Dict[str, Any] = {
            "events": len(self._events),
            "counts": {kind: self._counts[kind]
                       for kind in DECISION_KINDS if kind in self._counts},
        }
        winner = self.final_incumbent()
        if winner is not None:
            summary["best_config"] = winner.config
            summary["best_runtime"] = winner.payload.get("runtime")
        return summary

    def export(self) -> List[Dict[str, Any]]:
        """Every event as a JSON-ready dict (picklable across workers)."""
        return [event.to_dict() for event in self._events]
