"""Routes: ordered sets of links between two endpoints, plus transfer logic.

A :class:`Route` carries messages from a source GPU to a destination GPU
over one or more links (e.g. GPU→switch→GPU).  A message moves in service
quanta, store-and-forward *per quantum*: each quantum occupies each link
only for that link's own service time, then moves to the next hop while
the following quantum takes its place.  Throughput is therefore gated by
the slowest hop, but faster hops stay free for other flows — exactly how
a transfer agent's thread-pool "throttle" can feed several destination
links concurrently.  Delivery latency is paid once, after the final
quantum.

No process runs a transfer.  Each one is a small :class:`_Flow` record
that counts, per hop, how many quanta have cleared it, and carries its
per-hop framing, memoized per (payload, access size) on the route; the
links serve the quanta and move the flows on (see
:class:`~repro.interconnect.link.Link`).  When quantum *k* clears hop
*h*, the link's callback counts its bytes, hands the link to the head
of its queue, then offers quantum *k* to hop *h+1* (if quantum *k-1*
has cleared it) or delivers the transfer after its last hop, and
offers quantum *k+1* to hop *h* (if it has cleared hop *h-1*).  That
order is part of the model: it fixes which quantum joins a link's
queue first when several clear at one instant.  Equal flows on a link
interleave round-robin by quantum, and a quantum from upstream whose
hop clears at the instant a link frees, but later in schedule order,
queues behind the next quantum of the flow the link just served.  A transfer of *n* quanta over *h*
hops costs *n·h* engine events, plus one for the delivery latency and,
for a caller that waits on the returned receipt :class:`Event`, one for
that event.  A caller that passes a completion callable (``then``) gets
no receipt: ``then()`` runs at delivery, in the entry that delivers.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.interconnect.link import Link
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: Per hop: ``(quantum bytes, wire bytes, service seconds)``.
_Plan = Tuple[Tuple[int, int, float], ...]

#: A transfer's completion callable: runs with no arguments at delivery.
Then = Optional[Callable[[], None]]


def check_transfer(payload_bytes: int, access_size: int) -> None:
    """Reject a transfer no route flavour can carry."""
    if payload_bytes < 0:
        raise ConfigurationError(f"negative payload: {payload_bytes}")
    if access_size < 1:
        raise ConfigurationError(f"access size must be >= 1: {access_size}")


@dataclass(frozen=True)
class TransferReceipt:
    """Summary of one completed route transfer."""

    src: int
    dst: int
    payload_bytes: int
    wire_bytes: int
    access_size: int
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class Route:
    """A unidirectional path between two endpoints."""

    def __init__(self, engine: "Engine", src: int, dst: int,
                 links: Sequence[Link], latency: float) -> None:
        if not links:
            raise ConfigurationError(f"route {src}->{dst} has no links")
        if latency < 0:
            raise ConfigurationError(f"negative route latency: {latency}")
        self.engine = engine
        self.src = src
        self.dst = dst
        self.links = tuple(links)
        self.latency = latency
        self._quantum = min(link.quantum for link in self.links)
        # (payload bytes, access_size) -> shape: transfers of one size
        # repeat (every chunk of a region, every step of a collective).
        self._shapes: dict = {}

    @property
    def bottleneck_bandwidth(self) -> float:
        """Raw wire bandwidth of the slowest link on the route."""
        return min(link.bandwidth for link in self.links)

    def transfer(self, payload_bytes: int, access_size: int,
                 then: Then = None) -> Optional[Event]:
        """Send ``payload_bytes`` issued as ``access_size``-byte accesses.

        Returns an event that fires with a :class:`TransferReceipt` once
        the last quantum has crossed every hop and the latency is paid.
        Given ``then``, builds no event and returns ``None``: ``then()``
        runs at that moment instead (synchronously, for a transfer that
        completes at once).
        """
        check_transfer(payload_bytes, access_size)
        if payload_bytes == 0:
            return self._instant(payload_bytes, access_size, then)
        shape = self._shapes.get((payload_bytes, access_size))
        if shape is None:
            shape = self._shape(payload_bytes, access_size)
        flow = _Flow(self, payload_bytes, access_size, shape, then)
        self.links[0].offer(flow, 0)
        return flow.done

    def _shape(self, payload_bytes: int, access_size: int) -> tuple:
        """``(wire bytes, full quanta, quanta, full plan, tail plan)``:
        the transfer split into full quanta and a tail, each framed on
        every hop; its wire bytes are its widest hop's.  Memoized."""
        full_quanta, tail = divmod(payload_bytes, self._quantum)
        full_plan = tail_plan = None
        wire = 0
        if full_quanta:
            full_plan = self._plan(self._quantum, access_size)
            wire = full_quanta * max(hop[1] for hop in full_plan)
        if tail:
            tail_plan = self._plan(tail, access_size)
            wire += max(hop[1] for hop in tail_plan)
        shape = self._shapes[(payload_bytes, access_size)] = (
            wire, full_quanta, full_quanta + (1 if tail else 0),
            full_plan, tail_plan)
        return shape

    def _plan(self, quantum: int, access_size: int) -> _Plan:
        """Per-hop framing and service time of one ``quantum``-byte move.

        Each link frames the quantum with its own protocol overhead (a
        throttle pseudo-link has none; a PCIe link pays headers).
        """
        plan = []
        for link in self.links:
            wire = link.format.message_wire_bytes(quantum, access_size)
            plan.append((quantum, wire, link.service_time(wire)))
        return tuple(plan)

    def _instant(self, payload_bytes: int, access_size: int,
                 then: Then = None) -> Optional[Event]:
        """A transfer that completes now, moving no wire bytes."""
        event = Event(self.engine) if then is None else None
        self._finish(event, then, payload_bytes, 0, access_size,
                     self.engine.now)
        return event

    def _finish(self, done: Optional[Event], then: Then, payload_bytes: int,
                wire_bytes: int, access_size: int, start_time: float) -> None:
        """Trace the transfer on the source's lane, then run ``then`` or
        fire ``done``."""
        engine = self.engine
        now = engine._now
        tracer = engine.tracer
        if tracer.enabled:
            tracer.span(start_time, now,
                        f"gpu{self.src}.transfer", f"->gpu{self.dst}",
                        payload={"bytes": payload_bytes,
                                 "wire_bytes": wire_bytes,
                                 "access_size": access_size})
        if then is not None:
            then()
            return
        done.succeed(TransferReceipt(
            src=self.src, dst=self.dst, payload_bytes=payload_bytes,
            wire_bytes=wire_bytes, access_size=access_size,
            start_time=start_time, end_time=now))


class _Flow:
    """One route transfer in flight.

    ``progress[h]`` counts the quanta that have cleared hop ``h``, which
    is also the index of the quantum hop ``h`` serves or waits for
    next: a flow's quanta cross every hop in order, so at most one of
    them is queued at or crossing any one hop.  Quanta below
    ``full_quanta`` move as ``full_plan[h]``, a tail as
    ``tail_plan[h]``.  The links advance ``progress`` as they serve
    (:meth:`Link._served <repro.interconnect.link.Link._served>`).
    ``done`` is the receipt event, or ``None`` when the sender passed a
    ``then`` callable.
    """

    __slots__ = ("route", "links", "payload_bytes", "access_size",
                 "wire_bytes", "full_quanta", "quanta", "full_plan",
                 "tail_plan", "progress", "start_time", "done", "then")

    def __init__(self, route: Route, payload_bytes: int, access_size: int,
                 shape: tuple, then: Then) -> None:
        self.route = route
        self.links = route.links
        self.payload_bytes = payload_bytes
        self.access_size = access_size
        (self.wire_bytes, self.full_quanta, self.quanta, self.full_plan,
         self.tail_plan) = shape
        self.progress = [0] * len(route.links)
        self.start_time = route.engine._now
        self.done = Event(route.engine) if then is None else None
        self.then = then

    def _delivered(self) -> None:
        self.route._finish(self.done, self.then, self.payload_bytes,
                           self.wire_bytes, self.access_size,
                           self.start_time)


class LoopbackRoute(Route):
    """Zero-cost route from a GPU to itself (local 'transfers').

    No fabric builds one (``Fabric.send`` handles a self-send); the
    benchmark's layer trace in ``bench/layers.py`` still names it.
    """

    def __init__(self, engine: "Engine", endpoint: int, fmt_link: Link) -> None:
        super().__init__(engine, endpoint, endpoint, [fmt_link], latency=0.0)

    def transfer(self, payload_bytes: int, access_size: int) -> Event:
        check_transfer(payload_bytes, access_size)
        event = Event(self.engine)
        event.succeed(TransferReceipt(
            src=self.src, dst=self.dst, payload_bytes=payload_bytes,
            wire_bytes=0, access_size=access_size,
            start_time=self.engine.now, end_time=self.engine.now))
        return event


class InfiniteRoute(Route):
    """A route with infinite bandwidth and zero latency (limit study).

    Used by the *Infinite Interconnect BW* paradigm from Section IV-B:
    transfers complete instantaneously but are still accounted, as a
    zero-width span on the source GPU's transfer lane.
    """

    def __init__(self, engine: "Engine", src: int, dst: int,
                 fmt_link: Link) -> None:
        super().__init__(engine, src, dst, [fmt_link], latency=0.0)

    def transfer(self, payload_bytes: int, access_size: int,
                 then: Then = None) -> Optional[Event]:
        check_transfer(payload_bytes, access_size)
        return self._instant(payload_bytes, access_size, then)


def route_between(engine: "Engine", src: int, dst: int, links: Sequence[Link],
                  latency: float, infinite: bool = False) -> Route:
    """Factory used by topologies; picks the route flavour."""
    if infinite:
        return InfiniteRoute(engine, src, dst, links[0])
    return Route(engine, src, dst, links, latency)
