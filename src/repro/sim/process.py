"""Generator-driven simulation processes.

A :class:`Process` wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Each time a yielded event fires, the engine resumes the generator
with the event's value (or throws the event's exception into it).  When the
generator returns, the process — itself an event — succeeds with the return
value, so other processes can wait on it.

A process's start, the bounce when a yielded event has already fired,
and the wake-up after a ``yield engine._sleep(d)`` are callable heap
entries (``Engine._call``) that run :meth:`Process._resume` directly,
with no event in between.  Start and bounce are urgent: they run ahead
of normal-priority entries due at the same instant.
"""

from __future__ import annotations

import typing
from functools import partial
from typing import Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_URGENT, Event, _Sleep

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class _Wake:
    """The trigger of a start or a sleep's end: resume with ``None``."""

    _ok = True
    _value = None


_WAKE = _Wake()


class Process(Event):
    """An event representing a running generator-based activity."""

    __slots__ = ("_generator", "name")

    def __init__(self, engine: "Engine", generator: Generator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Process start is itself an ordered simulation step.
        engine._call(0.0, self._resume, PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def _resume(self, trigger: Event = _WAKE) -> None:
        engine = self.engine
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                trigger._defused = True
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        if target.__class__ is _Sleep:
            engine._call(target, self._resume)
            return
        if not isinstance(target, Event):
            # Throw the error back into the generator so the traceback
            # points at the offending yield.
            error = Event(engine)
            error.callbacks.append(self._resume)
            error.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"),
                priority=PRIORITY_URGENT)
            return
        if target.engine is not engine:
            raise SimulationError("process yielded an event from another engine")
        if target._processed:
            # Already fired: resume immediately (same timestamp).
            engine._call(0.0, partial(self._resume, target), PRIORITY_URGENT)
            return
        target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "running"
        return f"<Process {self.name!r} {state}>"
