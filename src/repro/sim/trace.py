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

from array import array
from dataclasses import dataclass
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


class IntervalStats:
    """Accumulates (start, end) busy intervals, e.g. link occupancy.

    Intervals may be appended out of order; :meth:`busy_time` merges
    overlaps so concurrent transfers are not double counted.  An interval
    that starts inside the last one kept is folded into it on :meth:`add`
    (a link serving back-to-back quanta stores one interval per busy
    stretch, not one per quantum); folding never changes the union, so
    :meth:`merged`, :meth:`busy_time` and :meth:`span` return exactly the
    floats the unfolded intervals would.  Starts and ends live in two
    ``array('d')`` columns, and the merge is cached the same way and
    invalidated by :meth:`add`, so repeated queries (every link, every
    bucket of a utilization timeline) stay O(1).
    """

    __slots__ = ("_starts", "_ends", "_merged")

    def __init__(self) -> None:
        self._starts = array("d")
        self._ends = array("d")
        self._merged: Optional[Tuple[array, array]] = None

    def add(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self._merged = None
        ends = self._ends
        if ends and self._starts[-1] <= start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
            return
        self._starts.append(start)
        ends.append(end)

    @property
    def intervals(self) -> List[Tuple[float, float]]:
        """The kept intervals, folded, in insertion order."""
        return list(zip(self._starts, self._ends))

    def _merged_columns(self) -> Tuple[array, array]:
        if self._merged is None:
            starts, ends = array("d"), array("d")
            for start, end in sorted(zip(self._starts, self._ends)):
                if ends and start <= ends[-1]:
                    if end > ends[-1]:
                        ends[-1] = end
                else:
                    starts.append(start)
                    ends.append(end)
            self._merged = (starts, ends)
        return self._merged

    def merged(self) -> List[Tuple[float, float]]:
        """The intervals with overlaps coalesced, in time order."""
        return list(zip(*self._merged_columns()))

    def busy_time(self) -> float:
        """Total time covered by at least one interval."""
        starts, ends = self._merged_columns()
        return sum(end - start for start, end in zip(starts, ends))

    def utilization(self, span: float) -> float:
        """Fraction of ``span`` seconds covered by at least one interval."""
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time() / span)

    def span(self) -> float:
        """Time from the first interval start to the last interval end."""
        if not self._starts:
            return 0.0
        return max(self._ends) - min(self._starts)
