"""Tests for profiler sweep telemetry under an active observation.

The contract under test (see ``docs/OBSERVABILITY.md``):

* candidate systems stay suppressed: a ``capture()`` around a sweep
  builds no per-candidate tracer;
* the sweep records per-worker activity lanes, a typed decision log
  with one ``measure`` or ``prune`` event per grid candidate (each
  measure carrying its config, runtime and platform), and sweep latency
  histograms — while the sweep's *results* stay byte-identical to an
  unobserved run;
* without an observation the sweep records nothing.
"""

import pytest

from repro.core import Profiler
from repro.hw import PLATFORM_4X_VOLTA
from repro.obs import capture
from repro.units import KiB, MiB
from tests.conftest import small_pagerank

SMALL_CHUNKS = (128 * KiB, 1 * MiB)
SMALL_THREADS = (1024, 4096)
#: inline contributes 1; each decoupled mechanism |chunks| x |threads|.
GRID = 1 + 2 * len(SMALL_CHUNKS) * len(SMALL_THREADS)


def _builder():
    return small_pagerank(iterations=2).phase_builder()


def _profiler(**kwargs):
    return Profiler(PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
                    thread_counts=SMALL_THREADS, **kwargs)


def _worker_lanes(observation):
    return sorted({channel
                   for channel in observation.ambient_tracer.channels()
                   if channel.startswith("sweep.worker")})


# ---------------------------------------------------------------------------
# Satellite 1: the suppression contract
# ---------------------------------------------------------------------------

def _measured(observation):
    """``(config, runtime, platform)`` of every ``measure`` event."""
    return [(event.config, event.payload["runtime"],
             event.payload["platform"])
            for event in observation.decisions.select("measure")]


def test_plain_capture_logs_each_candidate_once():
    """A plain capture records the sweep once: one ``measure`` or
    ``prune`` decision per grid candidate, the measures matching the
    result's entries, and no other per-candidate record."""
    with capture() as observation:
        result = _profiler(search="search").profile(_builder())
    decisions = observation.decisions
    assert decisions.count("measure") + decisions.count("prune") == GRID
    assert _measured(observation) == [
        (entry.config.label(), entry.runtime, PLATFORM_4X_VOLTA.name)
        for entry in result.entries]
    assert set(observation.ambient_tracer.channels()) == {
        "decision", *_worker_lanes(observation)}


def test_sweep_capture_keeps_candidates_suppressed():
    """A capture observes the sweep, never the simulated candidates."""
    with capture() as observation:
        _profiler(search="exhaustive").profile(_builder())
    assert [label for label, _ in observation.traces] == ["capture"]


# ---------------------------------------------------------------------------
# Serial telemetry
# ---------------------------------------------------------------------------

def test_serial_sweep_telemetry_decisions_and_identical_results():
    baseline = _profiler(search="search").profile(_builder())
    with capture() as observation:
        traced = _profiler(search="search").profile(_builder())

    assert traced.entries == baseline.entries  # byte-identical results
    decisions = observation.decisions
    assert decisions.count("measure") + decisions.count("prune") == GRID
    assert decisions.count("measure") == len(traced.entries)
    assert decisions.count("prune") == traced.pruned_configs
    # One ``floors`` decision per wave that ran floors: serially, one
    # per floor the analytic bound could not rule out.
    assert decisions.count("floors") == traced.floor_runs
    # Each prune carries the bound or floor that decided it, and that
    # value exceeds the final incumbent.
    best = traced.best.runtime
    for event in decisions.events:
        if event.kind == "prune":
            (value,) = (event.payload[key] for key in ("bound", "floor")
                        if key in event.payload)
            assert value > best == event.payload["incumbent"]
    # The decision log's final incumbent is the sweep's actual winner.
    assert decisions.final_incumbent().config == traced.best.config.label()
    # The decision stream is mirrored onto the trace channel.
    assert observation.ambient_tracer.count("decision") == len(decisions)

    assert _worker_lanes(observation) == ["sweep.worker0"]
    snapshot = observation.metrics.snapshot()
    histograms = snapshot["histograms"]
    assert histograms["sweep_task_ms{kind=measure}"]["count"] == \
        len(traced.entries)
    assert histograms["sweep_task_ms{kind=floor}"]["count"] == \
        traced.floor_runs
    assert any(name.startswith("sweep_batch_ms") for name in histograms)
    assert any(name.startswith("sweep_queue_wait_ms")
               for name in histograms)


def test_search_mode_telemetry_covers_the_grid():
    baseline = _profiler(search="search").profile(_builder())
    with capture() as observation:
        traced = _profiler(search="search").profile(_builder())
    assert traced.entries == baseline.entries
    decisions = observation.decisions
    assert decisions.count("measure") + decisions.count("prune") == GRID
    assert decisions.final_incumbent().config == traced.best.config.label()


def test_coordinate_mode_telemetry_counts_planned_grid():
    with capture() as observation:
        traced = _profiler().profile(_builder())
    decisions = observation.decisions
    # Coordinate search measures its reduced plan; nothing is pruned.
    # Plan: inline once, then per decoupled mechanism every chunk at the
    # top thread count plus the other thread counts at the best chunk.
    planned = 1 + 2 * (len(SMALL_CHUNKS) + len(SMALL_THREADS) - 1)
    assert decisions.count("measure") == len(traced.entries) == planned
    assert decisions.count("prune") == 0


def test_coordinate_sweep_logs_one_measure_each():
    """Both coordinate waves land in the decision log: one ``measure``
    per entry, none repeated (logged in measurement order, while the
    result groups its entries by mechanism)."""
    with capture() as observation:
        traced = _profiler().profile(_builder())
    assert sorted(_measured(observation)) == sorted(
        (entry.config.label(), entry.runtime, PLATFORM_4X_VOLTA.name)
        for entry in traced.entries)
    assert len(set(_measured(observation))) == len(traced.entries)


# ---------------------------------------------------------------------------
# Parallel telemetry
# ---------------------------------------------------------------------------

def test_parallel_sweep_telemetry_worker_lanes_and_identity():
    baseline = _profiler(search="exhaustive").profile(_builder())
    with capture() as observation:
        traced = _profiler(search="exhaustive",
                           jobs=2).profile(_builder())

    assert traced.entries == baseline.entries  # parallel == serial
    decisions = observation.decisions
    assert decisions.count("measure") + decisions.count("prune") == GRID
    lanes = _worker_lanes(observation)
    assert 1 <= len(lanes) <= 2  # one lane per worker process seen
    # Every worker lane carries task spans and batch spans.
    for lane in lanes:
        records = observation.ambient_tracer.channel(lane)
        assert all(record.is_span for record in records)
        labels = {record.label for record in records}
        assert "batch" in labels
        assert any(label.startswith(("measure ", "floor "))
                   for label in labels)
    # Chrome export keeps the worker lanes as their own tids.
    document = observation.chrome_trace()
    tids = {event["tid"] for event in document["traceEvents"]}
    assert set(lanes) <= tids


# ---------------------------------------------------------------------------
# Telemetry off
# ---------------------------------------------------------------------------

def test_telemetry_off_has_no_side_channels():
    """Without capture the sweep records nothing anywhere."""
    result = _profiler(search="exhaustive").profile(_builder())
    assert result.entries  # sanity


# ---------------------------------------------------------------------------
# Session facade
# ---------------------------------------------------------------------------

def test_session_sweeps_profile_and_report(tmp_path):
    from repro.api import Session

    session = Session(PLATFORM_4X_VOLTA, trace=True)
    result = session.profile(small_pagerank(iterations=2),
                             strategy="exhaustive",
                             chunk_sizes=SMALL_CHUNKS,
                             thread_counts=SMALL_THREADS)
    decisions = session.decisions
    assert decisions is not None
    assert decisions.count("measure") == len(result.entries) == GRID

    markdown = tmp_path / "report.md"
    session.save_report(str(markdown))
    text = markdown.read_text()
    assert "Sweep decisions" in text
    assert result.best.config.label() in text

    as_json = tmp_path / "report.json"
    session.save_report(str(as_json))
    import json
    report = json.loads(as_json.read_text())
    assert report["experiments"][0]["decisions"]["counts"]["measure"] == GRID


def test_session_without_observation_has_no_decisions():
    from repro.api import Session
    from repro.errors import ConfigurationError

    session = Session(PLATFORM_4X_VOLTA)
    assert session.decisions is None
    with pytest.raises(ConfigurationError):
        session.save_report("unused.md")
