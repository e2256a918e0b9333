"""Point-to-point interconnect links with bandwidth, latency, and queuing.

A :class:`Link` is one *direction* of a physical connection (GPU→GPU,
GPU→switch, ...).  Transfers serialize on the link FIFO in service quanta
so that concurrent flows share bandwidth approximately fairly, the way
packet interleaving shares a real link.

Links account both *goodput* (useful payload bytes) and *wire bytes*
(payload plus packet overhead), so interconnect efficiency is measurable
after any simulation.
"""

from __future__ import annotations

import re
import typing

from repro.errors import ConfigurationError
from repro.interconnect.packet import PacketFormat
from repro.sim.resources import Resource
from repro.sim.trace import IntervalStats

#: First ``gpu{N}`` mentioned in a link name owns its trace lane
#: (``pcie:gpu2->sw`` and ``nvsw:sw->gpu2`` both belong to GPU 2).
_OWNER = re.compile(r"gpu(\d+)")

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
        self.arbiter = Resource(engine, capacity=1)
        self.goodput_bytes = 0
        self.wire_bytes = 0
        self.busy = IntervalStats()
        owner = _OWNER.search(name)
        self.owner_gpu = int(owner.group(1)) if owner else None

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
