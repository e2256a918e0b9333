"""Shared-resource primitive built on the event engine.

:class:`Resource` is a counted semaphore with FIFO queuing.  In the
simulator it serves the devices' DMA engines (``Device.memcpy_peer``);
callback-driven code such as the CDP launch queue and the polling
agent's dispatcher keeps a plain FIFO instead.
"""

from __future__ import annotations

import typing
from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.engine)
        self.resource = resource


class Resource:
    """A counted, FIFO-fair resource (semaphore).

    ``request()`` returns an event that fires once a unit is granted;
    ``release()`` returns the unit and wakes the next waiter.
    """

    def __init__(self, engine: "Engine", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-granted units."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for one unit; the returned event fires when granted."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(self)
        else:
            self._queue.append(req)
        return req

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._queue:
            # Hand the unit directly to the next waiter; _in_use unchanged.
            nxt = self._queue.popleft()
            nxt.succeed(self)
        else:
            self._in_use -= 1
