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
that counts, per hop, how many quanta have cleared it; the links serve
the quanta (see :class:`~repro.interconnect.link.Link`).  When quantum
*k* clears hop *h*, the link's callback accounts the busy interval,
hands the link to the head of its queue, then the flow offers quantum
*k* to hop *h+1* (if quantum *k-1* has cleared it) and quantum *k+1* to
hop *h* (if it has cleared hop *h-1*).  The second offer queues behind
everything already due at that instant: when another event is due at
the same time, it waits for one zero-delay engine event, so a quantum
arriving from upstream at that instant goes first.  That order is part
of the model: it fixes which quantum joins a link's queue first when
several clear at one instant, so equal flows on a link interleave
round-robin by quantum.  A transfer of *n* quanta over *h* hops costs
*n·h* engine events plus one for completion, one for latency, and one
per such simultaneous hand-off.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.interconnect.link import Link
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: Per hop: ``(quantum bytes, wire bytes, service seconds)``.
_Plan = Tuple[Tuple[int, int, float], ...]


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
        # access_size -> (plan, widest hop's wire bytes) for a full
        # quantum; every quantum except a possible tail is exactly
        # ``_quantum`` bytes, so the per-hop framing and service time
        # repeat verbatim.
        self._full_plan_memo: dict = {}

    @property
    def bottleneck_bandwidth(self) -> float:
        """Raw wire bandwidth of the slowest link on the route."""
        return min(link.bandwidth for link in self.links)

    def transfer(self, payload_bytes: int, access_size: int) -> Event:
        """Send ``payload_bytes`` issued as ``access_size``-byte accesses.

        Returns an event that fires with a :class:`TransferReceipt` once
        the last quantum has crossed every hop and the latency is paid.
        """
        check_transfer(payload_bytes, access_size)
        if payload_bytes == 0:
            return self._instant(payload_bytes, access_size)
        full_quanta, tail = divmod(payload_bytes, self._quantum)
        full_plan = tail_plan = None
        wire = 0
        if full_quanta:
            memo = self._full_plan_memo.get(access_size)
            if memo is None:
                plan = self._plan(self._quantum, access_size)
                memo = self._full_plan_memo[access_size] = (
                    plan, max(hop[1] for hop in plan))
            full_plan, full_wire = memo
            wire = full_quanta * full_wire
        if tail:
            tail_plan = self._plan(tail, access_size)
            wire += max(hop[1] for hop in tail_plan)
        flow = _Flow(self, payload_bytes, access_size, wire, full_quanta,
                     full_quanta + (1 if tail else 0), full_plan, tail_plan)
        self.links[0].offer(flow, 0)
        return flow.done

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

    def _instant(self, payload_bytes: int, access_size: int) -> Event:
        """A transfer that completes now, moving no wire bytes."""
        event = Event(self.engine)
        self._finish(event, payload_bytes, 0, access_size, self.engine.now)
        return event

    def _finish(self, done: Event, payload_bytes: int, wire_bytes: int,
                access_size: int, start_time: float) -> None:
        """Trace the transfer on the source's lane and fire ``done``."""
        now = self.engine.now
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.span(start_time, now,
                        f"gpu{self.src}.transfer", f"->gpu{self.dst}",
                        payload={"bytes": payload_bytes,
                                 "wire_bytes": wire_bytes,
                                 "access_size": access_size})
        done.succeed(TransferReceipt(
            src=self.src, dst=self.dst, payload_bytes=payload_bytes,
            wire_bytes=wire_bytes, access_size=access_size,
            start_time=start_time, end_time=now))


class _Flow:
    """One route transfer in flight.

    ``progress[h]`` counts the quanta that have cleared hop ``h``, which
    is also the index of the quantum hop ``h`` serves or waits for
    next: a flow's quanta cross every hop in order, so at most one of
    them is queued at or crossing any one hop.
    """

    __slots__ = ("route", "payload_bytes", "access_size", "wire_bytes",
                 "full_quanta", "quanta", "full_plan", "tail_plan",
                 "progress", "start_time", "done")

    def __init__(self, route: Route, payload_bytes: int, access_size: int,
                 wire_bytes: int, full_quanta: int, quanta: int,
                 full_plan: Optional[_Plan],
                 tail_plan: Optional[_Plan]) -> None:
        self.route = route
        self.payload_bytes = payload_bytes
        self.access_size = access_size
        self.wire_bytes = wire_bytes
        self.full_quanta = full_quanta
        self.quanta = quanta
        self.full_plan = full_plan
        self.tail_plan = tail_plan
        self.progress = [0] * len(route.links)
        self.start_time = route.engine.now
        self.done = Event(route.engine)

    def step(self, hop: int) -> Tuple[int, int, float]:
        """``(quantum, wire, service)`` of the quantum ``hop`` serves."""
        if self.progress[hop] < self.full_quanta:
            return self.full_plan[hop]
        return self.tail_plan[hop]

    def cleared(self, hop: int) -> None:
        """The next quantum cleared ``hop``: move it, and its successor, on."""
        progress = self.progress
        k = progress[hop]
        progress[hop] = k + 1
        links = self.route.links
        if hop + 1 < len(links):
            if progress[hop + 1] == k:
                links[hop + 1].offer(self, hop + 1)
        elif k + 1 == self.quanta:
            latency = self.route.latency
            if latency > 0:
                self.route.engine._sleep(latency).callbacks.append(
                    self._delivered)
            else:
                self._delivered(None)
        if k + 1 < self.quanta and (hop == 0 or progress[hop - 1] > k + 1):
            link = links[hop]
            engine = self.route.engine
            if engine._due_now():
                # Behind whatever else is due now (see the module doc).
                engine._sleep(0.0).callbacks.append(
                    lambda _event: link.offer(self, hop))
            else:
                link.offer(self, hop)

    def _delivered(self, _event) -> None:
        self.route._finish(self.done, self.payload_bytes, self.wire_bytes,
                           self.access_size, self.start_time)


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

    def transfer(self, payload_bytes: int, access_size: int) -> Event:
        check_transfer(payload_bytes, access_size)
        return self._instant(payload_bytes, access_size)


def route_between(engine: "Engine", src: int, dst: int, links: Sequence[Link],
                  latency: float, infinite: bool = False) -> Route:
    """Factory used by topologies; picks the route flavour."""
    if infinite:
        return InfiniteRoute(engine, src, dst, links[0])
    return Route(engine, src, dst, links, latency)
