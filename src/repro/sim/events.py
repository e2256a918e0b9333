"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
moves through three states: *pending* (created, not yet triggered),
*triggered* (given a value or an exception and scheduled on the engine's
event heap), and *processed* (its callbacks have run).

The design follows the classic generator-driven simulation style: a process
``yield``\\ s events; the engine resumes the process when the event fires.
"""

from __future__ import annotations

import typing
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Scheduling priorities: lower value runs earlier at the same timestamp.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence that can be waited on by processes."""

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False
        # Set once a waiter has consumed this event's failure, so the engine
        # does not also raise it as unhandled.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value (or failure)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception).  Only valid once triggered."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(ok=True, value=value, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(ok=False, value=exception, priority=priority)
        return self

    def _fire_now(self, value: Any = None) -> None:
        """Succeed with ``value`` and run the callbacks at once, inside
        the heap entry that is running, instead of in an entry of its
        own.  For engine-internal relays of another event's firing."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def _trigger(self, ok: bool, value: Any, priority: int) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = ok
        self._value = value
        self._triggered = True
        self.engine.schedule(self, delay=0.0, priority=priority)

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        engine.schedule(self, delay=delay, priority=PRIORITY_NORMAL)


class _Sleep(float):
    """A process's request to wait this many seconds (``Engine._sleep``).

    Not an event: :class:`~repro.sim.process.Process` schedules its own
    wake-up as a callable heap entry when one is yielded, so the wait
    costs no :class:`Event` and no callback list.
    """

    __slots__ = ()


class AllOf(Event):
    """Fires when every constituent event has fired.

    The value is a dict mapping each constituent event to its value.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        for event in self._events:
            if event.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
        self._remaining = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._on_event(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({event: event._value for event in self._events})
