"""Point-to-point interconnect links with bandwidth, latency, and queuing.

A :class:`Link` is one *direction* of a physical connection (GPU→GPU,
GPU→switch, ...).  It is a FIFO server of service quanta: transfers
offer it one quantum at a time, so concurrent flows interleave quantum
by quantum and share bandwidth approximately fairly, the way packet
interleaving shares a real link.  Serving a quantum is one callable
engine heap entry that accounts the busy interval, hands the link to
the head of its queue, and tells the quantum's transfer that the hop is
clear (see :mod:`repro.interconnect.route`).  When that was a
transfer's last hop on a route without latency, the same entry
delivers it: a sender's completion callable runs inside it, and only a
sender waiting on a receipt event costs one more entry.

Links account both *goodput* (useful payload bytes) and *wire bytes*
(payload plus packet overhead), so interconnect efficiency is measurable
after any simulation.
"""

from __future__ import annotations

import re
import typing
from collections import deque

from repro.errors import ConfigurationError
from repro.interconnect.packet import PacketFormat
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
        self.busy = IntervalStats()
        owner = _OWNER.search(name)
        self.owner_gpu = int(owner.group(1)) if owner else None
        # The (flow, hop) quanta waiting for the link, oldest first; the
        # one in service with its (quantum, wire, service) step and start
        # time; and the completion callback, bound once per link.
        self._queue: "deque[tuple[_Flow, int]]" = deque()
        self._serving: "typing.Optional[_Flow]" = None
        self._serving_hop = 0
        self._serving_step = (0, 0, 0.0)
        self._service_start = 0.0
        self._on_served = self._served

    def offer(self, flow: "_Flow", hop: int) -> None:
        """Queue ``flow``'s next quantum for this link (its ``hop``)."""
        if self._serving is None:
            self._serve(flow, hop)
        else:
            self._queue.append((flow, hop))

    def _serve(self, flow: "_Flow", hop: int) -> None:
        engine = self.engine
        step = flow.step(hop)
        self._serving = flow
        self._serving_hop = hop
        self._serving_step = step
        self._service_start = engine._now
        engine._call(step[2], self._on_served)

    def _served(self) -> None:
        """One quantum cleared the link: account it, start the next one
        queued, then let its flow move on (see :meth:`_Flow.cleared`)."""
        flow, hop = self._serving, self._serving_hop
        quantum, wire, _service = self._serving_step
        self.account(self._service_start, self.engine._now, quantum, wire)
        if self._queue:
            self._serve(*self._queue.popleft())
        else:
            self._serving = None
        flow.cleared(hop)

    def service_time(self, wire_bytes: int) -> float:
        """Seconds the link is occupied moving ``wire_bytes``."""
        return wire_bytes / self.bandwidth

    def account(self, start: float, end: float, goodput: int, wire: int) -> None:
        """Record a completed service interval."""
        self.goodput_bytes += goodput
        self.wire_bytes += wire
        self.busy.add(start, end)

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
