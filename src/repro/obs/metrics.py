"""A labelled metrics registry: counters, gauges, and histograms.

Components publish into one :class:`MetricsRegistry` —
``metrics.inc("bytes_sent", n, src=0, dst=2, mechanism="polling")`` —
and the registry aggregates both run-wide totals and per-phase slices
(whatever was recorded while a :meth:`MetricsRegistry.phase` scope was
active).  Everything is plain floats and dicts, so a snapshot is
directly JSON-serializable and picklable across the experiment runner's
worker processes.

Like the tracer, a disabled registry (:data:`NULL_METRICS`) makes every
operation a cheap no-op, so instrumented components cost nothing in
ordinary simulations.

Series naming follows the Prometheus convention::

    bytes_sent{dst=1,mechanism=polling,src=0}

with label keys sorted so the same labels always produce the same
series key regardless of call-site keyword order.

:class:`Histogram` series keep exponential bucket counts alongside the
streaming count/sum/min/max, so quantiles (p50/p90/p99) come out of a
snapshot without storing raw samples, and two histograms — e.g. one per
sweep worker process — merge exactly (bucket counts add).  Whole
registries merge with :meth:`MetricsRegistry.merge`, which deliberately
bypasses the ambient phase scope so folding a worker's samples in never
mislabels them with whatever phase the parent happens to be inside.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

#: A series key: metric name plus its sorted, stringified labels.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def series_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Render ``name{k=v,...}`` (just ``name`` when unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


def _key(name: str, labels: Dict[str, object]) -> SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Exponential bucket growth factor: 2**(1/4) per bucket keeps the
#: relative quantile error under ~10% while the sparse bucket dict stays
#: tiny (a 1e9 dynamic range spans ~120 buckets).
BUCKET_FACTOR = 2.0 ** 0.25

_LOG_FACTOR = math.log(BUCKET_FACTOR)


def _bucket_index(value: float) -> int:
    """Index of the exponential bucket ``(f**(i-1), f**i]`` holding value."""
    return math.ceil(math.log(value) / _LOG_FACTOR - 1e-9)


@dataclass
class Histogram:
    """Mergeable streaming histogram (no stored samples).

    Tracks exact count/sum/min/max plus sparse exponential bucket
    counts, so :meth:`quantile` answers p50/p90/p99 to within one bucket
    width (~±10% relative) and :meth:`merge` combines two histograms —
    e.g. a sweep worker's and the parent's — without loss: bucket counts
    simply add.  Values ``<= 0`` land in a dedicated underflow bucket
    (simulated durations are positive; zeros still count).
    """

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))
    buckets: Dict[int, int] = field(default_factory=dict)
    underflow: int = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if value <= 0.0:
            self.underflow += 1
        else:
            index = _bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one (exact)."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.underflow += other.underflow
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1), to within one bucket's relative width.

        Uses the nearest-rank rule over the bucket counts and returns
        the geometric midpoint of the winning bucket, clamped to the
        exact observed ``[min, max]`` so single-sample and extreme
        quantiles stay honest.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.underflow
        if rank <= cumulative:
            return min(max(0.0, self.minimum), self.maximum)
        estimate = self.maximum
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if rank <= cumulative:
                low = BUCKET_FACTOR ** (index - 1)
                high = BUCKET_FACTOR ** index
                estimate = math.sqrt(low * high)
                break
        return min(max(estimate, self.minimum), self.maximum)

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Counters, gauges, and histograms with labels and phase scoping."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        self._histograms: Dict[SeriesKey, Histogram] = {}
        self._phase: Optional[str] = None
        self._phase_counters: Dict[str, Dict[SeriesKey, float]] = {}

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to a counter series (no-op when disabled)."""
        if not self.enabled:
            return
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value
        if self._phase is not None:
            bucket = self._phase_counters.setdefault(self._phase, {})
            bucket[key] = bucket.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value`` (no-op when disabled)."""
        if not self.enabled:
            return
        self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one sample into a histogram series (no-op when disabled)."""
        if not self.enabled:
            return
        key = _key(name, labels)
        summary = self._histograms.get(key)
        if summary is None:
            summary = self._histograms[key] = Histogram()
        summary.observe(value)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute counters recorded inside the scope to ``name`` too."""
        previous = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = previous

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one.

        The cross-process aggregation seam: sweep workers record into
        their own registry and the parent folds each one in when its
        results land.  Counters add,
        gauges take the incoming value (last write wins, as if the
        worker had published directly), histograms merge bucket-exact.

        The merge writes straight into the run-wide series and copies
        the *other* registry's phase slices — it never consults this
        registry's open :meth:`phase` scope, so merging mid-phase cannot
        mislabel a worker's samples with the parent's current phase.
        """
        if not self.enabled:
            return
        for key, value in other._counters.items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        self._gauges.update(other._gauges)
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram()
            mine.merge(histogram)
        for phase, bucket in other._phase_counters.items():
            mine_bucket = self._phase_counters.setdefault(phase, {})
            for key, value in bucket.items():
                mine_bucket[key] = mine_bucket.get(key, 0.0) + value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name: str, **labels: object) -> float:
        """Current value of a counter series (0.0 when never touched)."""
        return self._counters.get(_key(name, labels), 0.0)

    def get_gauge(self, name: str, **labels: object) -> float:
        return self._gauges.get(_key(name, labels), 0.0)

    def get_histogram(self, name: str, **labels: object) -> Histogram:
        return self._histograms.get(_key(name, labels), Histogram())

    def total(self, name: str) -> float:
        """Sum of a counter across every label combination."""
        return sum(value for (metric, _labels), value
                   in self._counters.items() if metric == name)

    def snapshot(self) -> Dict:
        """JSON-ready view: run totals plus per-phase counter slices."""
        return {
            "counters": {series_name(*key): value
                         for key, value in sorted(self._counters.items())},
            "gauges": {series_name(*key): value
                       for key, value in sorted(self._gauges.items())},
            "histograms": {series_name(*key): summary.as_dict()
                           for key, summary
                           in sorted(self._histograms.items())},
            "phases": {
                phase: {series_name(*key): value
                        for key, value in sorted(bucket.items())}
                for phase, bucket in sorted(self._phase_counters.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._phase_counters.clear()


#: Shared disabled registry for components created without one.
NULL_METRICS = MetricsRegistry(enabled=False)
