"""Tests for the observability stack: metrics, capture, Chrome export.

Covers the unit layer (registry semantics, exporter golden output) and
the integration contract the tracing exists for: a traced phase's
``gpu{N}.kernel``/``gpu{N}.transfer`` lanes reconstruct exactly the
``exposed_transfer_time`` the :class:`~repro.core.runtime.PhaseResult`
reports, and observation never changes an experiment's tables.
"""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    capture,
    export_chrome_trace,
    merge_chrome_traces,
    series_name,
    suppress,
    tracer_events,
    write_chrome_trace,
)
from repro.obs.capture import active
from repro.sim.trace import NULL_TRACER, Tracer


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

def test_series_name_sorts_labels():
    assert series_name("x", ()) == "x"
    registry = MetricsRegistry()
    registry.inc("bytes_sent", 10, src=0, dst=1)
    registry.inc("bytes_sent", 5, dst=1, src=0)  # kwarg order irrelevant
    assert registry.get("bytes_sent", src=0, dst=1) == 15
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"bytes_sent{dst=1,src=0}": 15.0}


def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("polls")
    registry.inc("polls", 2)
    registry.set_gauge("runtime_s", 1.5, platform="4x_volta")
    registry.set_gauge("runtime_s", 2.5, platform="4x_volta")  # overwrite
    registry.observe("kernel_ms", 1.0)
    registry.observe("kernel_ms", 3.0)
    assert registry.get("polls") == 3
    assert registry.get_gauge("runtime_s", platform="4x_volta") == 2.5
    histogram = registry.get_histogram("kernel_ms")
    assert histogram.count == 2
    assert histogram.mean == pytest.approx(2.0)
    assert histogram.as_dict()["min"] == 1.0
    assert histogram.as_dict()["max"] == 3.0
    assert registry.get_histogram("never").as_dict()["count"] == 0.0


def test_registry_total_sums_across_labels():
    registry = MetricsRegistry()
    registry.inc("bytes_sent", 10, dst=1)
    registry.inc("bytes_sent", 20, dst=2)
    assert registry.total("bytes_sent") == 30
    assert registry.total("missing") == 0


def test_registry_phase_scoping():
    registry = MetricsRegistry()
    registry.inc("chunks", 1)
    with registry.phase("phase0"):
        registry.inc("chunks", 2)
        with registry.phase("phase1"):  # nesting replaces, then restores
            registry.inc("chunks", 4)
        registry.inc("chunks", 8)
    registry.inc("chunks", 16)
    snapshot = registry.snapshot()
    assert registry.get("chunks") == 31  # run total sees everything
    assert snapshot["phases"]["phase0"] == {"chunks": 10.0}
    assert snapshot["phases"]["phase1"] == {"chunks": 4.0}


def test_registry_snapshot_is_json_serializable():
    registry = MetricsRegistry()
    registry.inc("bytes_sent", 7, src=0, mechanism="polling")
    registry.observe("lat_ms", 0.5, src=0)
    round_trip = json.loads(json.dumps(registry.snapshot()))
    assert round_trip["counters"]["bytes_sent{mechanism=polling,src=0}"] == 7


def test_null_metrics_is_noop():
    assert not NULL_METRICS.enabled
    NULL_METRICS.inc("x", 5)
    NULL_METRICS.set_gauge("g", 1.0)
    NULL_METRICS.observe("h", 1.0)
    assert NULL_METRICS.get("x") == 0.0
    assert NULL_METRICS.snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# Histograms: quantiles and cross-process merging
# ---------------------------------------------------------------------------

def test_histogram_quantiles_within_bucket_error():
    from repro.obs.metrics import Histogram

    histogram = Histogram()
    values = [float(v) for v in range(1, 101)]  # 1..100
    for value in values:
        histogram.observe(value)
    assert histogram.count == 100
    assert histogram.minimum == 1.0 and histogram.maximum == 100.0
    # Exponential buckets grow by 2**0.25, so quantile estimates land
    # within ~±10% of the exact nearest-rank answer.
    for q, exact in ((0.50, 50.0), (0.90, 90.0), (0.99, 99.0)):
        assert histogram.quantile(q) == pytest.approx(exact, rel=0.13)
    assert histogram.quantile(0.0) == pytest.approx(1.0, rel=0.13)
    assert histogram.quantile(1.0) <= 100.0  # clamped to observed max


def test_histogram_single_sample_and_underflow():
    from repro.obs.metrics import Histogram

    histogram = Histogram()
    histogram.observe(5.0)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == 5.0  # clamped to [min, max]

    mixed = Histogram()
    mixed.observe(0.0)  # zero duration → underflow bucket
    mixed.observe(4.0)
    assert mixed.underflow == 1
    assert mixed.quantile(0.25) == 0.0
    assert mixed.as_dict()["p99"] == pytest.approx(4.0, rel=0.13)

    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_histogram_merge_is_exact_on_counts():
    from repro.obs.metrics import Histogram

    left, right, together = Histogram(), Histogram(), Histogram()
    for value in (1.0, 2.0, 3.0):
        left.observe(value)
        together.observe(value)
    for value in (10.0, 20.0):
        right.observe(value)
        together.observe(value)
    left.merge(right)
    assert left.count == together.count == 5
    assert left.total == pytest.approx(together.total)
    assert left.buckets == together.buckets
    assert left.as_dict() == together.as_dict()


def test_registry_merge_folds_worker_registry():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    parent.inc("tasks", 1)
    worker.inc("tasks", 2)
    worker.set_gauge("g", 7.0)
    worker.observe("lat_ms", 3.0, kind="measure")
    with worker.phase("sweep"):
        worker.inc("tasks", 4)
    parent.merge(worker)
    assert parent.get("tasks") == 7
    assert parent.get_gauge("g") == 7.0
    assert parent.get_histogram("lat_ms", kind="measure").count == 1
    assert parent.snapshot()["phases"]["sweep"] == {"tasks": 4.0}


def test_registry_merge_mid_phase_does_not_mislabel():
    """Satellite regression: merging inside an open phase scope must not
    attribute the worker's samples to the parent's current phase."""
    parent, worker = MetricsRegistry(), MetricsRegistry()
    worker.inc("tasks", 5)
    with parent.phase("parent-phase"):
        parent.inc("own", 1)
        parent.merge(worker)
    phases = parent.snapshot()["phases"]
    assert phases["parent-phase"] == {"own": 1.0}  # no leaked "tasks"
    assert parent.get("tasks") == 5  # run-wide total still folded in


def test_registry_merge_into_disabled_is_noop():
    disabled, worker = MetricsRegistry(enabled=False), MetricsRegistry()
    worker.inc("tasks", 3)
    disabled.merge(worker)
    assert disabled.snapshot()["counters"] == {}


# ---------------------------------------------------------------------------
# Chrome-trace exporter
# ---------------------------------------------------------------------------

def _sample_tracer():
    tracer = Tracer()
    tracer.span(0.001, 0.003, "gpu0.kernel", "produce",
                payload={"region_bytes": 1024})
    tracer.record(0.002, "gpu1.agent", "poll")
    tracer.span(0.0, 0.004, "phase", "phase0")
    return tracer


def test_chrome_trace_golden_document(tmp_path):
    document = export_chrome_trace([("run0", _sample_tracer())])
    path = tmp_path / "trace.json"
    write_chrome_trace(path, document)
    parsed = json.loads(path.read_text())  # valid JSON end to end
    events = parsed["traceEvents"]
    assert parsed["displayTimeUnit"] == "ms"
    for event in events:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event)

    kernel = next(e for e in events if e["name"] == "produce")
    assert kernel["ph"] == "X"
    assert kernel["pid"] == 1          # gpu0 → pid offset 1
    assert kernel["tid"] == "kernel"
    assert kernel["ts"] == pytest.approx(1000.0)   # 1 ms in µs
    assert kernel["dur"] == pytest.approx(2000.0)
    assert kernel["args"]["region_bytes"] == 1024

    poll = next(e for e in events if e["name"] == "poll")
    assert poll["ph"] == "i"
    assert poll["pid"] == 2            # gpu1 → pid offset 2
    assert poll["tid"] == "agent"

    phase = next(e for e in events if e["name"] == "phase0")
    assert phase["pid"] == 0           # non-gpu channel → sim process

    names = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {0: "run0 sim", 1: "run0 gpu0", 2: "run0 gpu1"}


def test_chrome_trace_multiple_tracers_get_disjoint_pids():
    document = export_chrome_trace(
        [("a", _sample_tracer()), ("b", _sample_tracer())])
    # The first tracer occupies pids 0..2; the second is rebased past it.
    all_pids = {e["pid"] for e in document["traceEvents"]}
    assert all_pids == {0, 1, 2, 3, 4, 5}
    names = {e["args"]["name"] for e in document["traceEvents"]
             if e["ph"] == "M"}
    assert "b gpu0" in names and "a gpu0" in names


def test_merge_chrome_traces_rebases_pids():
    one = export_chrome_trace([("x", _sample_tracer())])
    two = export_chrome_trace([("y", _sample_tracer())])
    merged = merge_chrome_traces([one, two])
    assert {e["pid"] for e in merged["traceEvents"]} == {0, 1, 2, 3, 4, 5}
    # Source documents are not mutated by the merge.
    assert {e["pid"] for e in one["traceEvents"]} == {0, 1, 2}
    assert {e["pid"] for e in two["traceEvents"]} == {0, 1, 2}


def test_tracer_events_empty_tracer():
    assert tracer_events(Tracer()) == []


# ---------------------------------------------------------------------------
# Decision log: typed events + Chrome-trace channel (golden file)
# ---------------------------------------------------------------------------

def _scripted_decision_log(tracer=None):
    """A deterministic mini-sweep decision stream (clock is scripted)."""
    from repro.obs.decisions import DecisionLog

    ticks = iter(0.25 * step for step in range(32))
    log = DecisionLog(tracer=tracer, epoch=0.0, clock=lambda: next(ticks))
    log.log("floors", count=3, min_floor=0.5, max_floor=2.0)
    log.log("measure", config="D 4kB 64 Poll", runtime=1.5)
    log.log("incumbent", config="D 4kB 64 Poll", runtime=1.5)
    log.log("prune", config="D 8kB 64 Poll", floor=1.75, incumbent=1.5)
    log.log("measure", config="I 4kB", runtime=1.25)
    log.log("incumbent", config="I 4kB", runtime=1.25)
    return log


def test_decision_log_queries_and_export():
    log = _scripted_decision_log()
    assert len(log) == 6
    assert log.count("measure") == 2 and log.count("prune") == 1
    assert [e.kind for e in log.select("incumbent")] == ["incumbent"] * 2
    assert log.final_incumbent().config == "I 4kB"
    summary = log.summary()
    assert summary["best_config"] == "I 4kB"
    assert summary["best_runtime"] == 1.25
    assert summary["counts"]["measure"] == 2
    exported = json.loads(json.dumps(log.export()))  # JSON-ready
    assert [e["seq"] for e in exported] == list(range(6))

    with pytest.raises(ValueError):
        log.log("not-a-kind")


def test_decision_log_chrome_channel_golden_file(tmp_path):
    """The decision channel's Chrome export, pinned byte-for-byte."""
    import pathlib

    tracer = Tracer()
    _scripted_decision_log(tracer=tracer)
    document = export_chrome_trace([("sweep", tracer)])
    decision_events = [e for e in document["traceEvents"]
                       if e.get("cat") == "decision"]
    assert len(decision_events) == 6
    assert all(e["ph"] == "i" and e["pid"] == 0 and e["tid"] == "decision"
               for e in decision_events)

    golden_path = pathlib.Path(__file__).parent / "data" / \
        "decision_trace.json"
    rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if not golden_path.exists():  # bootstrap: write once, then pin
        golden_path.write_text(rendered)
    assert rendered == golden_path.read_text()


def _worker_lane_tracer():
    """A capture-shaped tracer: gpu lanes + sweep worker lanes."""
    tracer = _sample_tracer()
    tracer.span(0.01, 0.02, "sweep.worker0", "measure D/c4096/t64",
                payload={"kind": "measure"})
    tracer.span(0.01, 0.03, "sweep.worker1", "batch", payload={"tasks": 2})
    return tracer


def test_multi_document_merge_keeps_worker_lanes_per_run():
    """Satellite: per-worker lanes survive multi-document merging.

    Two exported documents (two experiments' captures) merge into one
    with disjoint pid blocks; each run's ``sweep.worker{N}`` tids stay
    on that run's sim process, so Perfetto shows one worker-lane group
    per experiment instead of mixing them.
    """
    one = export_chrome_trace([("exp-a", _worker_lane_tracer())])
    two = export_chrome_trace([("exp-b", _worker_lane_tracer())])
    merged = merge_chrome_traces([one, two])

    worker_events = [e for e in merged["traceEvents"]
                     if str(e["tid"]).startswith("sweep.worker")]
    assert len(worker_events) == 4
    pids = sorted({e["pid"] for e in worker_events})
    assert len(pids) == 2  # one sim process per source document
    # The second document's sim process was rebased past the first
    # document's pid block (sim + gpu0 + gpu1 = 3 pids).
    assert pids[1] == pids[0] + 3
    for pid in pids:
        tids = {e["tid"] for e in worker_events if e["pid"] == pid}
        assert tids == {"sweep.worker0", "sweep.worker1"}


# ---------------------------------------------------------------------------
# Ambient capture scope
# ---------------------------------------------------------------------------

def test_capture_scope_hands_systems_tracers():
    from repro.api import Session

    assert active() is None
    with capture() as observation:
        assert active() is observation
        system = Session("4x_volta").system()
        assert system.tracer.enabled
        assert system.metrics is observation.metrics
        with suppress():
            assert active() is None
            hidden = Session("4x_volta").system()
            assert hidden.tracer is NULL_TRACER
        assert active() is observation
    assert active() is None
    # One registered run tracer (plus the ambient capture lane).
    labels = [label for label, _tracer in observation.traces]
    assert labels[0] == "capture"
    assert any("4x_volta" in label for label in labels[1:])


def test_unobserved_system_costs_nothing():
    from repro.api import Session

    session = Session("4x_volta")
    system = session.system()
    assert system.tracer is NULL_TRACER
    assert not system.metrics.enabled
    session.finish(system)  # must be a silent no-op
    assert system.tracer.records == ()


# ---------------------------------------------------------------------------
# Integration: traces agree with the phase executor's bookkeeping
# ---------------------------------------------------------------------------

def _traced_phase(mechanism=None, chunk_size=None):
    from repro.core import (
        GpuPhaseWork,
        MECH_POLLING,
        ProactConfig,
        ProactPhaseExecutor,
    )
    from repro.api import Session
    from repro.hw import PLATFORM_4X_VOLTA
    from repro.runtime import KernelSpec, System
    from repro.units import MiB

    system = System(PLATFORM_4X_VOLTA, tracer=Tracer(),
                    metrics=MetricsRegistry())
    gpu = system.gpus[0]
    works = []
    for gpu_id in range(system.num_gpus):
        kernel = KernelSpec("produce" if gpu_id == 0 else "other",
                            gpu.spec.flops * 2e-3, 0, 8192)
        works.append(GpuPhaseWork(
            kernel=kernel,
            region_bytes=32 * MiB if gpu_id == 0 else 0))
    config = ProactConfig(mechanism or MECH_POLLING,
                          chunk_size or 1 * MiB, 2048)
    executor = ProactPhaseExecutor(system, config)
    result = system.run(until=executor.execute(works))
    Session(PLATFORM_4X_VOLTA).finish(system)
    return system, result


def test_trace_reconstructs_exposed_transfer_time():
    from repro.experiments.timeline import trace_exposed_transfer_time

    system, result = _traced_phase()
    assert trace_exposed_transfer_time(system.tracer) == pytest.approx(
        result.exposed_transfer_time, abs=1e-12)
    # A tail-heavy configuration must agree too (nonzero exposure).
    from repro.units import MiB
    system2, result2 = _traced_phase(chunk_size=32 * MiB)
    assert result2.exposed_transfer_time > 0
    assert trace_exposed_transfer_time(system2.tracer) == pytest.approx(
        result2.exposed_transfer_time, abs=1e-12)


def test_traced_phase_populates_expected_lanes_and_metrics():
    system, result = _traced_phase()
    channels = set(system.tracer.channels())
    assert "gpu0.kernel" in channels
    assert "gpu0.transfer" in channels
    assert "phase" in channels
    assert any(c.startswith("gpu0.link:") for c in channels)
    assert system.tracer.count("gpu0.agent", label="chunk-ready") == 32

    metrics = system.metrics
    from repro.units import MiB
    assert metrics.total("bytes_sent") == 3 * 32 * MiB
    assert metrics.total("chunks_ready") == 32
    assert metrics.get("phases", mechanism="polling") == 1
    assert metrics.snapshot()["phases"]  # phase-scoped slice exists
    for gpu_id in range(system.num_gpus):
        assert metrics.get_histogram("kernel_ms", gpu=gpu_id).count == 1


def test_render_trace_timeline_smoke():
    from repro.experiments.timeline import render_trace_timeline

    system, _result = _traced_phase()
    rendered = render_trace_timeline(system.tracer, width=40)
    lines = rendered.splitlines()
    assert len(lines) == 1 + system.num_gpus
    assert "#" in lines[1]          # gpu0 ran a kernel
    assert all(line.startswith("gpu") for line in lines[1:])
    assert render_trace_timeline(Tracer()) == "(no gpu lanes traced)"


def test_observation_does_not_change_experiment_tables():
    from repro.experiments.registry import ExperimentContext, run_experiment

    plain = run_experiment("fig1", ExperimentContext(quick=True))
    observed = run_experiment("fig1", ExperimentContext(quick=True,
                                                        observe=True))
    assert observed.tables == plain.tables       # byte-identical
    assert observed.scalars == plain.scalars
    assert plain.trace is None and plain.metrics is None
    assert observed.trace is not None
    assert any(e["ph"] == "X" for e in observed.trace["traceEvents"])
    assert observed.metrics["counters"]  # something was counted
