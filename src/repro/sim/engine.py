"""The discrete-event simulation engine.

:class:`Engine` owns the simulation clock and the event heap.  Everything in
the simulator — GPUs, interconnect links, transfer agents, workload kernels —
is expressed as generator-based processes scheduled by one engine instance.

Typical use::

    engine = Engine()

    def worker(engine):
        yield engine.timeout(1.5)
        return "done"

    proc = engine.process(worker(engine))
    engine.run()
    assert proc.value == "done"

Hot-path engineering
--------------------

The engine is the inner loop of every sweep the profiler runs, so it is
written for constant-factor speed without changing a single simulated
result:

* **Callable heap entries** — the engine's own waits (a link serving a
  quantum, a route's delivery latency, a fluid wakeup, a process's
  start, bounce and :meth:`_sleep`) put a plain callable on the heap
  instead of an :class:`~repro.sim.events.Event`.  An entry
  ``(time, priority, seq, fn)`` runs ``fn()`` under the same ordering
  key, sequence numbering and ``events_fired`` count an event would
  have, so only the event object and its callback list are saved.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Tuple, Union)

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import (
    PRIORITY_NORMAL,
    AllOf,
    Event,
    Timeout,
    _Sleep,
)
from repro.sim.process import Process
from repro.sim.trace import NULL_TRACER, Tracer

_HeapEntry = Tuple[float, int, int, Union[Event, Callable[[], None]]]


class Engine:
    """Discrete-event simulation engine with a heap-based event queue.

    The engine owns the simulation's observability hooks: an optional
    :class:`~repro.sim.trace.Tracer` and a metrics registry, both no-ops
    by default, that every component holding an engine reference can
    publish into (``engine.tracer`` / ``engine.metrics``).  Scheduling
    itself is always counted (two integer increments); nothing is traced
    per event.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Any = None,
                 sanitizer: Any = None) -> None:
        if metrics is None:
            from repro.obs.metrics import NULL_METRICS
            metrics = NULL_METRICS
        if sanitizer is None:
            from repro.validate.sanitizer import NULL_SANITIZER
            sanitizer = NULL_SANITIZER
        self._now = 0.0
        self._heap: List[_HeapEntry] = []
        self._sequence = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.sanitizer = sanitizer
        self.events_scheduled = 0
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def _sleep(self, delay: float) -> _Sleep:
        """A wait for engine-internal process code: ``yield engine._sleep(d)``.

        The process resumes ``delay`` seconds later with ``None``, as
        after a :meth:`timeout`, but no event exists to wait on: the
        process schedules its own wake-up.  Yield it directly; public
        code should use :meth:`timeout`.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        return _Sleep(delay)

    def _call(self, delay: float, fn: Callable[[], None],
              priority: int = PRIORITY_NORMAL) -> None:
        """Run ``fn()`` ``delay`` (>= 0) seconds from now, as one heap entry."""
        _heappush(self._heap, (self._now + delay, priority, self._sequence, fn))
        self._sequence += 1
        self.events_scheduled += 1

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Create an event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Place a triggered event on the heap ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        _heappush(
            self._heap, (self._now + delay, priority, self._sequence, event))
        self._sequence += 1
        self.events_scheduled += 1

    def _attach_time(self, exc: BaseException) -> BaseException:
        """Stamp the current simulation time onto a surfacing error.

        Any exception escaping the engine — a process raising mid-phase,
        a sanitizer violation inside a milestone callback, a deadlock —
        gains a ``sim_time`` attribute (and an explanatory note on
        Python >= 3.11) so the failure pinpoints *when* in simulated
        time things broke, not just where in the code.
        """
        if getattr(exc, "sim_time", None) is None:
            try:
                exc.sim_time = self._now
                if hasattr(exc, "add_note"):
                    exc.add_note(
                        f"raised at simulation time t={self._now:.9g}s")
            except Exception:  # noqa: BLE001 - immutable exception types
                pass
        return exc

    def step(self) -> None:
        """Process the single next heap entry: an event or a callable."""
        heap = self._heap
        if not heap:
            raise self._attach_time(
                DeadlockError(f"no scheduled events remain "
                              f"(t={self._now:.9g}s)"))
        when, _priority, _seq, item = _heappop(heap)
        if when < self._now:
            raise self._attach_time(SimulationError(
                "event heap corrupted: time went backwards"))
        self._now = when
        self.events_fired += 1
        try:
            if not isinstance(item, Event):
                item()
                return
            callbacks = item.callbacks
            item._processed = True
            item.callbacks = None
            if callbacks:
                for callback in callbacks:
                    callback(item)
            else:
                ok = item._ok
                if ok is None:
                    raise SimulationError("event has not been triggered yet")
                if not ok and not item._defused:
                    # An unhandled failure with nobody waiting must not
                    # pass silently.
                    raise item._value
        except BaseException as exc:
            self._attach_time(exc)
            raise

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the heap is empty), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed, returning its value).
        """
        step = self.step
        if until is None:
            heap = self._heap
            while heap:
                step()
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"until={deadline} is in the past (now={self._now})")
        heap = self._heap
        while heap and heap[0][0] <= deadline:
            step()
        self._now = deadline
        return None

    def _run_until_event(self, event: Event) -> Any:
        step = self.step
        heap = self._heap
        while not event._processed:
            if not heap:
                raise self._attach_time(DeadlockError(
                    f"event queue drained before {event!r} was processed "
                    f"(t={self._now:.9g}s)"))
            step()
        if not event.ok:
            raise self._attach_time(event.value)
        return event.value
