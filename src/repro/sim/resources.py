"""Shared-resource primitives built on the event engine.

Two primitives cover everything the simulator needs:

* :class:`Resource` — a counted semaphore with FIFO queuing (SM slots,
  DMA engines, link arbitration).
* :class:`Store` — an unbounded/bounded FIFO of Python objects with
  blocking ``get`` (work queues between producers and transfer agents).
"""

from __future__ import annotations

import typing
from collections import deque
from typing import Any, Deque, Optional, Tuple

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

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()``."""
        yield self.request()


class Store:
    """A FIFO of items with blocking ``get`` and optional capacity."""

    def __init__(self, engine: "Engine", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Add an item; the returned event fires once accepted."""
        done = Event(self.engine)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            done.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with the item."""
        got = Event(self.engine)
        if self._items:
            got.succeed(self._items.popleft())
            if self._putters:
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed()
        else:
            self._getters.append(got)
        return got
