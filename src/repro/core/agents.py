"""Decoupled transfer agents: shared machinery (Section III-C).

A decoupled agent moves ready chunks from a producer GPU's staging region
to every destination GPU.  Two effects bound its throughput:

* the interconnect itself (modelled by the fabric's links), and
* the agent's *copy bandwidth* — how fast its transfer threads can issue
  remote stores, ``threads * spec.copy_thread_bandwidth``.  This is what
  the paper's Figure 4 sweeps: too few transfer threads starve the link.

The copy bandwidth is modelled as a zero-overhead *throttle link*
prepended to each destination route, shared by all of the agent's
transfers (the threads are one pool).

No agent starts a process.  A ready chunk moves through a chain of
engine callbacks (``Engine._call``) that a subclass's ``_dispatch``
starts: a poll tick and a serialized dispatch, a driver launch, or a
descriptor fetch.  The chain ends in :meth:`DecoupledAgent._send_chunk`,
which passes one per-chunk countdown to every destination's
``Route.transfer`` as its completion callable.  The last delivery runs
the sanitizer's delivered/readable hooks and the subclass's
completion, in the entry that delivers it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import DEFAULT_MECHANISMS, ProactConfig
from repro.errors import ProactError
from repro.interconnect.link import Link
from repro.interconnect.packet import PacketFormat
from repro.interconnect.route import Route
from repro.sim.events import Event
from repro.units import MiB

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System

#: Framing of the agent's internal staging pipe: pure payload, no headers.
THROTTLE_FORMAT = PacketFormat(
    name="agent-throttle", header_bytes=0, payload_granule=1,
    max_payload=4 * MiB)

#: Remote stores from a decoupled agent are tightly packed (Listing 1:
#: "tightly packed SM store instructions"), so they ride the interconnect
#: at maximum-payload efficiency.
AGENT_ACCESS_SIZE = 256


@dataclass
class AgentStats:
    """What one agent moved during a phase."""

    chunks_sent: int = 0
    bytes_sent: int = 0
    sends_issued: int = 0
    per_destination_bytes: Dict[int, int] = field(default_factory=dict)


class DecoupledAgent:
    """Base class for polling and CDP transfer agents on one GPU."""

    def __init__(self, system: "System", src_id: int,
                 config: ProactConfig, destinations: List[int],
                 elide_transfers: bool = False,
                 peer_fraction: float = 1.0,
                 access_size: int = AGENT_ACCESS_SIZE) -> None:
        if not destinations:
            raise ProactError("agent needs at least one destination GPU")
        if src_id in destinations:
            raise ProactError("agent cannot target its own GPU")
        if not 0.0 < peer_fraction <= 1.0:
            raise ProactError(f"peer fraction out of (0, 1]: {peer_fraction}")
        if access_size < 1:
            raise ProactError(f"access size must be >= 1: {access_size}")
        self.system = system
        self.src_id = src_id
        self.config = config
        self.destinations = list(destinations)
        self.elide_transfers = elide_transfers
        self.peer_fraction = peer_fraction
        #: Remote-store width of this agent's transfers.  Normally the
        #: coalesced :data:`AGENT_ACCESS_SIZE`; the ``write_coalescing``
        #: ablation narrows it to the application's natural access size.
        self.access_size = access_size
        #: Whether this agent charges FluidShare SM contention (resident
        #: polling task / CDP copy kernels) against co-running compute.
        self.fluid_contention = getattr(
            system, "mechanisms", DEFAULT_MECHANISMS).fluid_contention
        self.stats = AgentStats()
        engine = system.engine
        spec = system.devices[src_id].spec
        copy_bandwidth = (config.transfer_threads
                          * spec.copy_thread_bandwidth)
        self._throttle = Link(
            engine, f"gpu{src_id}.agent-throttle", copy_bandwidth,
            THROTTLE_FORMAT)
        self._routes: Dict[int, Route] = {}
        for dst in self.destinations:
            if system.fabric.infinite:
                self._routes[dst] = system.fabric.route(src_id, dst)
            else:
                fabric_route = system.fabric.route(src_id, dst)
                self._routes[dst] = Route(
                    engine, src_id, dst,
                    [self._throttle, *fabric_route.links],
                    fabric_route.latency)
        self._outstanding = 0
        self._closed = False
        self._drained: Optional[Event] = None

    # ------------------------------------------------------------------
    # Chunk intake (called from readiness milestones)
    # ------------------------------------------------------------------
    def chunk_ready(self, nbytes: int, chunk: Optional[int] = None) -> None:
        """Hand the agent a ready chunk for broadcast to all destinations.

        ``chunk`` is the chunk's index within its region; the executor
        always provides it so the sanitizer can follow the chunk through
        its transfer lifecycle.  Callers outside the milestone protocol
        (e.g. unit tests feeding an agent directly) may omit it.
        """
        if self._closed:
            raise ProactError("chunk_ready() after close()")
        if nbytes < 1:
            raise ProactError(f"chunk must be >= 1 byte: {nbytes}")
        engine = self.system.engine
        if engine.tracer.enabled:
            engine.tracer.record(
                engine.now, f"gpu{self.src_id}.agent", "chunk-ready",
                payload={"bytes": nbytes,
                         "mechanism": self.config.mechanism})
        if engine.metrics.enabled:
            engine.metrics.inc("chunks_ready", src=self.src_id,
                               mechanism=self.config.mechanism)
        self._dispatch(nbytes, chunk)
        self.stats.chunks_sent += 1

    def close(self) -> Event:
        """No more chunks will arrive; returns the all-sent event."""
        self._closed = True
        if self._drained is None:
            self._drained = Event(self.system.engine)
            if self._outstanding == 0:
                self._drained.succeed()
        return self._drained

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _dispatch(self, nbytes: int, chunk: Optional[int] = None) -> None:
        """Start the chunk's chain of engine callbacks; it ends in
        :meth:`_send_chunk`, whose ``then`` calls :meth:`_end_send`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Transfer plumbing
    # ------------------------------------------------------------------
    def _begin_send(self) -> None:
        self._outstanding += 1

    def _end_send(self) -> None:
        self._outstanding -= 1
        if (self._closed and self._outstanding == 0
                and self._drained is not None
                and not self._drained.triggered):
            self._drained.succeed()

    def _send_chunk(self, nbytes: int, chunk: Optional[int],
                    then: Callable[[], None]) -> None:
        """Send one chunk's per-peer share to every destination.

        ``then()`` runs once every destination's transfer has delivered:
        in the entry that delivers the last one, or before this returns
        when none takes time (elided, or infinite bandwidth).
        """
        per_dest_bytes = max(1, round(nbytes * self.peer_fraction))
        engine = self.system.engine
        metrics = engine.metrics
        sanitize = engine.sanitizer.enabled and chunk is not None
        if sanitize:
            engine.sanitizer.transfer_started(self.src_id, chunk, engine.now)
        countdown = None
        if not self.elide_transfers:
            countdown = _Countdown(self, chunk if sanitize else None,
                                   per_dest_bytes, then)
        for dst in self.destinations:
            self.stats.sends_issued += 1
            self.stats.bytes_sent += per_dest_bytes
            per_dst = self.stats.per_destination_bytes
            per_dst[dst] = per_dst.get(dst, 0) + per_dest_bytes
            if metrics.enabled:
                metrics.inc("bytes_sent", per_dest_bytes,
                            src=self.src_id, dst=dst,
                            mechanism=self.config.mechanism)
            if sanitize:
                engine.sanitizer.bytes_injected_for(
                    self.src_id, chunk, dst, per_dest_bytes, engine.now)
            if countdown is None:
                # Elision skips the wire time, not the protocol: the
                # bytes count as landed the moment they are issued.
                if sanitize:
                    engine.sanitizer.bytes_delivered_to(
                        self.src_id, chunk, dst, per_dest_bytes, engine.now)
                    engine.sanitizer.readable_signalled(
                        self.src_id, chunk, dst, engine.now)
                continue
            self._routes[dst].transfer(per_dest_bytes, self.access_size,
                                       countdown)
        if countdown is None:
            then()


class _Countdown:
    """One chunk's broadcast in flight: the completion callable of each
    of its destination transfers.

    The last delivery raises the chunk's ready flags on the consumers
    (for the sanitizer, when it follows ``chunk``) and runs ``then()``.
    """

    __slots__ = ("agent", "chunk", "per_dest_bytes", "then", "left")

    def __init__(self, agent: DecoupledAgent, chunk: Optional[int],
                 per_dest_bytes: int, then: Callable[[], None]) -> None:
        self.agent = agent
        self.chunk = chunk
        self.per_dest_bytes = per_dest_bytes
        self.then = then
        self.left = len(agent.destinations)

    def __call__(self) -> None:
        self.left -= 1
        if self.left:
            return
        chunk = self.chunk
        if chunk is not None:
            agent = self.agent
            engine = agent.system.engine
            # All destination transfers completed; the chunk's ready
            # flags on the consumers may be raised only now.
            for dst in agent.destinations:
                engine.sanitizer.bytes_delivered_to(
                    agent.src_id, chunk, dst, self.per_dest_bytes,
                    engine.now)
                engine.sanitizer.readable_signalled(
                    agent.src_id, chunk, dst, engine.now)
        self.then()
