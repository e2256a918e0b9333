"""Lightweight tracing and statistics collection for simulations.

A :class:`Tracer` records timestamped events into named channels and can
summarize them afterwards.  Components accept an optional tracer so that
tracing costs nothing when disabled (the default is a shared no-op).

Records come in two shapes:

* **instants** — a single timestamp (``record()``), e.g. a chunk
  becoming ready or an agent poll tick;
* **spans** — a ``[time, end]`` interval (``span()``), e.g. a kernel
  execution or one transfer's occupancy of a route.

Channel names follow the convention ``gpu{N}.{lane}`` (``kernel``,
``agent``, ``transfer``, ``link:*``) so exporters such as
:mod:`repro.obs.chrome_trace` can lay records out as one process per GPU
with one track per lane; channels without a ``gpu{N}.`` prefix (e.g.
``phase``, ``profiler``, ``collective``) belong to the simulation as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence: an instant, or a span when ``end`` is set."""

    time: float
    channel: str
    label: str
    payload: Any = None
    end: Optional[float] = None

    @property
    def is_span(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length (0.0 for instants and zero-width spans)."""
        if self.end is None:
            return 0.0
        return self.end - self.time


class Tracer:
    """Collects :class:`TraceRecord` entries grouped by channel.

    Records are kept in insertion order *and* indexed per channel at
    :meth:`record` time, so :meth:`channel` and :meth:`count` are O(size
    of the answer) rather than a scan of every record ever taken.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []
        self._by_channel: Dict[str, List[TraceRecord]] = {}

    def record(self, time: float, channel: str, label: str,
               payload: Any = None) -> None:
        """Append an instant record (no-op when disabled)."""
        if not self.enabled:
            return
        self._append(TraceRecord(time, channel, label, payload))

    def span(self, start: float, end: float, channel: str, label: str,
             payload: Any = None) -> None:
        """Append a ``[start, end]`` span record (no-op when disabled)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span ends before it starts: {start}..{end}")
        self._append(TraceRecord(start, channel, label, payload, end=end))

    def _append(self, record: TraceRecord) -> None:
        self._records.append(record)
        bucket = self._by_channel.get(record.channel)
        if bucket is None:
            bucket = self._by_channel[record.channel] = []
        bucket.append(record)

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return tuple(self._records)

    def channel(self, name: str) -> List[TraceRecord]:
        """All records from one channel, in insertion order."""
        return list(self._by_channel.get(name, ()))

    def channels(self) -> List[str]:
        """Channel names in first-seen order."""
        return list(self._by_channel)

    def count(self, channel: str, label: Optional[str] = None) -> int:
        """Number of records on a channel (optionally for one label)."""
        bucket = self._by_channel.get(channel, ())
        if label is None:
            return len(bucket)
        return sum(1 for r in bucket if r.label == label)

    def clear(self) -> None:
        self._records.clear()
        self._by_channel.clear()


#: Shared disabled tracer for components created without one.
NULL_TRACER = Tracer(enabled=False)


@dataclass
class IntervalStats:
    """Accumulates (start, end) busy intervals, e.g. link occupancy.

    Intervals may be appended out of order; :meth:`busy_time` merges
    overlaps so concurrent transfers are not double counted.  The merge
    is cached and invalidated by :meth:`add`, so repeated queries (every
    link, every bucket of a utilization timeline) stay O(1).
    """

    intervals: List[Tuple[float, float]] = field(default_factory=list)
    _merged: Optional[List[Tuple[float, float]]] = field(
        default=None, repr=False, compare=False)

    def add(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self.intervals.append((start, end))
        self._merged = None

    def merged(self) -> List[Tuple[float, float]]:
        """The intervals with overlaps coalesced, in time order."""
        if self._merged is None:
            merged: List[Tuple[float, float]] = []
            for start, end in sorted(self.intervals):
                if merged and start <= merged[-1][1]:
                    last_start, last_end = merged[-1]
                    merged[-1] = (last_start, max(last_end, end))
                else:
                    merged.append((start, end))
            self._merged = merged
        return list(self._merged)

    def busy_time(self) -> float:
        """Total time covered by at least one interval."""
        return sum(end - start for start, end in self.merged())

    def utilization(self, span: float) -> float:
        """Fraction of ``span`` seconds covered by at least one interval."""
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time() / span)

    def span(self) -> float:
        """Time from the first interval start to the last interval end."""
        if not self.intervals:
            return 0.0
        return (max(end for _s, end in self.intervals)
                - min(start for start, _e in self.intervals))
