"""Tests for tracing and statistics utilities."""

import pytest

from repro.sim import NULL_TRACER, IntervalStats, Tracer


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.record(0.0, "kernel", "start", payload={"gpu": 0})
    tracer.record(1.0, "kernel", "end")
    tracer.record(0.5, "xfer", "chunk")
    assert len(tracer.records) == 3
    assert [r.label for r in tracer.channel("kernel")] == ["start", "end"]
    assert tracer.count("kernel") == 2
    assert tracer.count("kernel", label="start") == 1
    assert tracer.count("missing") == 0


def test_tracer_disabled_is_free():
    tracer = Tracer(enabled=False)
    tracer.record(0.0, "kernel", "start")
    assert tracer.records == ()


def test_null_tracer_shared_and_disabled():
    assert not NULL_TRACER.enabled
    NULL_TRACER.record(0.0, "x", "y")
    assert NULL_TRACER.records == ()


def test_tracer_clear():
    tracer = Tracer()
    tracer.record(0.0, "a", "b")
    tracer.clear()
    assert tracer.records == ()
    assert tracer.channel("a") == []
    assert tracer.channels() == []


def test_tracer_spans():
    tracer = Tracer()
    tracer.span(1.0, 3.0, "gpu0.kernel", "k")
    tracer.span(4.0, 4.0, "gpu0.kernel", "zero-width")
    tracer.record(2.0, "gpu0.agent", "poll")
    spans = tracer.channel("gpu0.kernel")
    assert [r.is_span for r in spans] == [True, True]
    assert spans[0].duration == pytest.approx(2.0)
    assert spans[1].duration == 0.0
    assert not tracer.channel("gpu0.agent")[0].is_span
    assert tracer.channel("gpu0.agent")[0].duration == 0.0


def test_tracer_span_rejects_reversed():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.span(2.0, 1.0, "c", "bad")


def test_tracer_disabled_span_is_noop():
    tracer = Tracer(enabled=False)
    tracer.span(0.0, 1.0, "c", "x")
    # Disabled tracers must not even validate, to stay zero-cost.
    tracer.span(2.0, 1.0, "c", "reversed-but-ignored")
    assert tracer.records == ()
    assert tracer.channels() == []


def test_tracer_channel_index_preserves_order():
    tracer = Tracer()
    for i in range(5):
        tracer.record(float(i), "a" if i % 2 == 0 else "b", f"e{i}")
    assert tracer.channels() == ["a", "b"]
    assert [r.label for r in tracer.channel("a")] == ["e0", "e2", "e4"]
    assert [r.label for r in tracer.channel("b")] == ["e1", "e3"]
    assert tracer.count("a") == 3
    assert tracer.count("b", label="e3") == 1
    # channel() is index-backed: the per-channel bucket holds exactly the
    # records appended to it, in insertion order, without scanning the
    # global record list.
    assert tracer.channel("a") == [r for r in tracer.records
                                   if r.channel == "a"]


# ---------------------------------------------------------------------------
# IntervalStats
# ---------------------------------------------------------------------------

def test_interval_stats_merges_overlaps():
    stats = IntervalStats()
    stats.add(0.0, 2.0)
    stats.add(1.0, 3.0)   # overlaps the first
    stats.add(5.0, 6.0)   # disjoint
    assert stats.busy_time() == pytest.approx(4.0)
    assert stats.span() == pytest.approx(6.0)


def test_interval_stats_out_of_order_input():
    stats = IntervalStats()
    stats.add(5.0, 6.0)
    stats.add(0.0, 1.0)
    assert stats.busy_time() == pytest.approx(2.0)


def test_interval_stats_empty():
    stats = IntervalStats()
    assert stats.busy_time() == 0.0
    assert stats.span() == 0.0


def test_interval_stats_rejects_reversed():
    stats = IntervalStats()
    with pytest.raises(ValueError):
        stats.add(2.0, 1.0)


def test_interval_stats_adjacent_intervals():
    stats = IntervalStats()
    stats.add(0.0, 1.0)
    stats.add(1.0, 2.0)  # touching, not overlapping
    assert stats.busy_time() == pytest.approx(2.0)


def test_interval_stats_zero_width():
    stats = IntervalStats()
    stats.add(1.0, 1.0)
    assert stats.busy_time() == 0.0
    assert stats.merged() == [(1.0, 1.0)]


def test_interval_stats_merge_cache_invalidated_on_add():
    stats = IntervalStats()
    stats.add(0.0, 1.0)
    first = stats.merged()
    assert first == [(0.0, 1.0)]
    # The cache must not leak: mutating the returned list leaves the
    # stats untouched, and a later add() recomputes the merge.
    first.append((99.0, 100.0))
    assert stats.merged() == [(0.0, 1.0)]
    stats.add(0.5, 2.0)
    assert stats.merged() == [(0.0, 2.0)]
    assert stats.busy_time() == pytest.approx(2.0)


def test_interval_stats_utilization():
    stats = IntervalStats()
    stats.add(0.0, 1.0)
    stats.add(0.5, 2.0)   # overlap must not double count
    assert stats.utilization(4.0) == pytest.approx(0.5)
    assert stats.utilization(1.0) == 1.0   # clamped
    assert stats.utilization(0.0) == 0.0
    assert IntervalStats().utilization(5.0) == 0.0
