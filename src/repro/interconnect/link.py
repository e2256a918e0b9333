"""Point-to-point interconnect links with bandwidth, latency, and queuing.

A :class:`Link` is one *direction* of a physical connection (GPU→GPU,
GPU→switch, ...).  It is a FIFO server of service quanta: transfers
offer it one quantum at a time, so concurrent flows interleave quantum
by quantum and share bandwidth approximately fairly, the way packet
interleaving shares a real link.  Serving a quantum is one heap entry,
pushed by :meth:`Link.offer` itself, and one frame: it counts the
quantum's bytes, hands the link to the head of its queue, then moves
the quantum's transfer on (see :mod:`repro.interconnect.route`).  On
a transfer's last hop of a route without latency the same entry
delivers it: a sender's completion callable runs inside it, and only a
sender waiting on a receipt event costs one more entry.  A link records
one busy interval per busy stretch.  A stretch whose queue runs dry
goes on if the link is offered a quantum at that same instant, and is
recorded at the next later offer or read of :attr:`Link.busy`, which
also adds the served part of an open one.  These are the intervals a
per-quantum record folds into, to the bit.

Links account both *goodput* (useful payload bytes) and *wire bytes*
(payload plus packet overhead), so interconnect efficiency is measurable
after any simulation.
"""

from __future__ import annotations

import re
import typing
from collections import deque
from heapq import heappush as _heappush

from repro.errors import ConfigurationError
from repro.interconnect.packet import PacketFormat
from repro.sim.events import PRIORITY_NORMAL
from repro.sim.trace import IntervalStats

#: First ``gpu{N}`` mentioned in a link name owns its trace lane
#: (``pcie:gpu2->sw`` and ``nvsw:sw->gpu2`` both belong to GPU 2).
_OWNER = re.compile(r"gpu(\d+)")

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.interconnect.route import _Flow
    from repro.sim.engine import Engine

#: Default service quantum: concurrent transfers interleave at this
#: granularity, like packets interleaving on a real link.
DEFAULT_QUANTUM = 64 * 1024


class Link:
    """One direction of a physical interconnect connection."""

    def __init__(self, engine: "Engine", name: str, bandwidth: float,
                 fmt: PacketFormat, quantum: int = DEFAULT_QUANTUM) -> None:
        if bandwidth <= 0:
            raise ConfigurationError(f"link bandwidth must be > 0: {bandwidth}")
        if quantum < 1:
            raise ConfigurationError(f"link quantum must be >= 1: {quantum}")
        self.engine = engine
        self.name = name
        self.bandwidth = bandwidth
        self.format = fmt
        self.quantum = quantum
        self.goodput_bytes = 0
        self.wire_bytes = 0
        self._busy = IntervalStats()
        owner = _OWNER.search(name)
        self.owner_gpu = int(owner.group(1)) if owner else None
        # The (flow, hop) quanta waiting for the link, oldest first; the
        # one in service as (flow, hop, its (quantum, wire, service)
        # step) and its start time; when the current busy stretch began
        # and, once the link is idle, when it ended (``None`` once it is
        # recorded); and the completion callback, bound once per link.
        self._queue: "deque[tuple[_Flow, int]]" = deque()
        self._serving: "typing.Optional[tuple]" = None
        self._service_start = 0.0
        self._stretch_start = 0.0
        self._idle_at: "typing.Optional[float]" = None
        self._on_served = self._served

    @property
    def busy(self) -> IntervalStats:
        """The link's busy intervals, up to its last served quantum."""
        if self._serving is not None:
            if self._service_start > self._stretch_start:
                self._busy.add(self._stretch_start, self._service_start)
        elif self._idle_at is not None:
            self._busy.add(self._stretch_start, self._idle_at)
            self._idle_at = None
        return self._busy

    def offer(self, flow: "_Flow", hop: int) -> None:
        """Queue ``flow``'s next quantum for this link (its ``hop``), or
        start serving it: one heap entry, due when it clears."""
        if self._serving is not None:
            self._queue.append((flow, hop))
            return
        engine = self.engine
        now = engine._now
        if now != self._idle_at:
            # Not a re-offer at the instant the link went idle: the
            # stretch that ended then is over.
            if self._idle_at is not None:
                self._busy.add(self._stretch_start, self._idle_at)
            self._stretch_start = now
        step = (flow.full_plan if flow.progress[hop] < flow.full_quanta
                else flow.tail_plan)[hop]
        self._serving = (flow, hop, step)
        self._service_start = now
        seq = engine._sequence
        _heappush(engine._heap,
                  (now + step[2], PRIORITY_NORMAL, seq, self._on_served))
        engine._sequence = seq + 1

    def _served(self) -> None:
        """One quantum cleared the link: count it, serve the next one
        queued, then move its flow on, in the order
        :mod:`repro.interconnect.route` describes."""
        flow, hop, (quantum, wire, _service) = self._serving
        self.goodput_bytes += quantum
        self.wire_bytes += wire
        self._serving = None
        self._idle_at = self.engine._now
        if self._queue:
            self.offer(*self._queue.popleft())
        progress = flow.progress
        k = progress[hop] + 1
        progress[hop] = k
        links = flow.links
        if hop + 1 < len(links):
            if progress[hop + 1] + 1 == k:
                links[hop + 1].offer(flow, hop + 1)
        elif k == flow.quanta:
            latency = flow.route.latency
            if latency > 0:
                self.engine._call(latency, flow._delivered)
            else:
                flow._delivered()
        if k < flow.quanta and (hop == 0 or progress[hop - 1] > k):
            self.offer(flow, hop)

    def service_time(self, wire_bytes: int) -> float:
        """Seconds the link is occupied moving ``wire_bytes``."""
        return wire_bytes / self.bandwidth

    def utilization(self, over_seconds: float) -> float:
        """Fraction of ``over_seconds`` the link was busy."""
        if over_seconds <= 0:
            return 0.0
        return min(1.0, self.busy.busy_time() / over_seconds)

    def efficiency(self) -> float:
        """Observed goodput fraction over everything the link carried."""
        if self.wire_bytes == 0:
            return 0.0
        return self.goodput_bytes / self.wire_bytes

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth / 1e9:.1f}GB/s>"
