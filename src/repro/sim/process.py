"""Generator-driven simulation processes.

A :class:`Process` wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Each time a yielded event fires, the engine resumes the generator
with the event's value (or throws the event's exception into it).  When the
generator returns, the process — itself an event — succeeds with the return
value, so other processes can wait on it.

The bookkeeping events that drive a process (its start kick-off and the
bounce used when a yielded event already fired) go through
``engine._resume_event``, which recycles them from a pool: they are strictly
single-consumer and invisible outside this module.
"""

from __future__ import annotations

import typing
from typing import Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


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
        # Kick off the process via an immediately-triggered initialization
        # event so that process start is itself an ordered simulation event.
        engine._resume_event(self._resume, True, None, False)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def _resume(self, trigger: Event) -> None:
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
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")
            # Throw the error back into the generator so the traceback
            # points at the offending yield.
            engine._resume_event(self._resume, False, error, True)
            return
        if target.engine is not engine:
            raise SimulationError("process yielded an event from another engine")
        if target._processed:
            # Already fired: resume immediately (same timestamp).
            ok = target._ok
            engine._resume_event(self._resume, ok, target._value, not ok)
            return
        target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "running"
        return f"<Process {self.name!r} {state}>"
