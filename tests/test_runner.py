"""Tests for the experiment registry and the parallel suite runner."""

import io
import json
import time

import pytest

from repro.errors import ProactError
from repro.experiments import runner
from repro.experiments.registry import (
    REGISTRY,
    ExperimentContext,
    ExperimentResult,
    ProfilePolicy,
    experiment_names,
    get_spec,
    run_experiment,
    select_specs,
)
from repro.experiments.report import TextTable

#: Cheap registry entries used to exercise the runner end to end.
FAST = ["table1", "fig2"]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_covers_every_experiment_module():
    names = experiment_names()
    assert names[0] == "table1"  # canonical serial order preserved
    assert len(names) == len(set(names)) == len(REGISTRY) == 17
    for expected in ("fig1", "fig7", "table2", "ablations", "ablation",
                     "sensitivity",
                     "utilization", "collectives", "cluster", "autotune"):
        assert expected in names


def test_registry_rejects_unknown_names():
    with pytest.raises(ProactError):
        get_spec("fig99")
    with pytest.raises(ProactError):
        select_specs(only=["table1", "nope"])


def test_select_specs_preserves_registry_order():
    specs = select_specs(only=["fig2", "table1"])  # order given is ignored
    assert [spec.name for spec in specs] == ["table1", "fig2"]


def test_experiment_context_scales_micro_bytes():
    assert (ExperimentContext(quick=True).micro_bytes
            < ExperimentContext(quick=False).micro_bytes)


def test_experiment_result_build_counts_rows():
    table = TextTable("Demo", ["a", "b"])
    table.add_row(1, 2)
    table.add_row(3, 4)
    result = ExperimentResult.build("demo", "Demo", [table, table],
                                    {"key": 1})
    assert result.rows == 4
    assert result.tables[0].startswith("Demo")
    payload = result.to_dict()
    assert payload["name"] == "demo"
    assert payload["rows"] == 4
    assert payload["scalars"] == {"key": 1.0}
    assert "tables" not in payload  # JSON stays lean


def test_run_experiment_stamps_elapsed():
    result = run_experiment("table1", ExperimentContext(quick=True))
    assert result.name == "table1"
    assert result.label == "Table I"
    assert result.elapsed > 0
    assert result.rows == 4
    assert result.scalars["num_platforms"] == 4.0


def test_every_spec_resolves_to_an_entry_point():
    for spec in REGISTRY:
        import importlib
        module = importlib.import_module(spec.module)
        assert callable(module.experiment), spec.name


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_run_all_serial_output_and_results():
    buffer = io.StringIO()
    results = runner.run_all(quick=True, only=FAST, out=buffer)
    text = buffer.getvalue()
    assert [r.name for r in results] == FAST
    assert "Table I" in text
    assert "[Table I completed in" in text
    assert "[Figure 2 completed in" in text
    for result in results:
        assert result.rows > 0
        assert result.scalars


def test_run_all_parallel_matches_serial_byte_for_byte():
    # Experiments are pure functions of the context, so four worker
    # processes must print exactly the tables the serial runner prints.
    serial_buf, parallel_buf = io.StringIO(), io.StringIO()
    serial = runner.run_all(quick=True, only=FAST + ["fig1"],
                            out=serial_buf)
    parallel = runner.run_all(quick=True, only=FAST + ["fig1"],
                              out=parallel_buf, jobs=4)
    assert [r.name for r in serial] == [r.name for r in parallel]
    assert [r.tables for r in serial] == [r.tables for r in parallel]
    assert [r.rows for r in serial] == [r.rows for r in parallel]
    assert [r.scalars for r in serial] == [r.scalars for r in parallel]

    def tables_only(text):
        return [line for line in text.splitlines()
                if not line.startswith("[")]  # drop wall-time lines

    assert tables_only(serial_buf.getvalue()) == tables_only(
        parallel_buf.getvalue())


def test_run_all_writes_results_json(tmp_path):
    path = tmp_path / "results.json"
    buffer = io.StringIO()
    results = runner.run_all(quick=True, only=FAST, out=buffer,
                             json_path=str(path))
    payload = json.loads(path.read_text())
    assert payload["suite"] == "repro-experiments"
    assert payload["quick"] is True
    assert payload["jobs"] == 1
    assert payload["total_elapsed"] > 0
    assert len(payload["experiments"]) == len(results)
    for entry, result in zip(payload["experiments"], results):
        assert entry["name"] == result.name
        assert entry["label"] == result.label
        assert entry["rows"] == result.rows
        assert entry["elapsed"] == result.elapsed
        assert entry["scalars"] == result.scalars


def test_run_all_observability_outputs(tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    json_path = tmp_path / "results.json"
    buffer = io.StringIO()
    results = runner.run_all(quick=True, only=["fig1"], out=buffer,
                             json_path=str(json_path),
                             trace_path=str(trace_path),
                             metrics_path=str(metrics_path))

    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert events, "observed run must produce trace events"
    assert all({"ph", "ts", "pid"} <= set(e) for e in events)
    assert any(e["ph"] == "X" and e["tid"] == "kernel" for e in events)

    metrics = json.loads(metrics_path.read_text())
    assert metrics["suite"] == "repro-experiments"
    assert "fig1" in metrics["experiments"]
    assert metrics["experiments"]["fig1"]["counters"]

    # Captured metrics also ride along in the results.json schema.
    payload = json.loads(json_path.read_text())
    assert payload["experiments"][0]["metrics"]["counters"]
    assert results[0].trace is not None


def test_run_all_observability_matches_unobserved_output(tmp_path):
    plain_buf, observed_buf = io.StringIO(), io.StringIO()
    runner.run_all(quick=True, only=FAST, out=plain_buf)
    runner.run_all(quick=True, only=FAST, out=observed_buf,
                   trace_path=str(tmp_path / "trace.json"))

    def tables_only(text):
        return [line for line in text.splitlines()
                if not line.startswith("[")]

    assert tables_only(plain_buf.getvalue()) == tables_only(
        observed_buf.getvalue())


def test_run_all_parallel_observability(tmp_path):
    # Trace/metrics documents must survive the trip through worker
    # processes and merge into valid files.
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    runner.run_all(quick=True, only=FAST + ["fig1"], out=io.StringIO(),
                   jobs=3, trace_path=str(trace_path),
                   metrics_path=str(metrics_path))
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    metrics = json.loads(metrics_path.read_text())
    assert set(metrics["experiments"]) == set(FAST + ["fig1"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert runner.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in experiment_names():
        assert name in out


def test_cli_only_and_json(tmp_path, capsys):
    path = tmp_path / "results.json"
    assert runner.main(["--quick", "--only", "table1",
                        "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    payload = json.loads(path.read_text())
    assert [e["name"] for e in payload["experiments"]] == ["table1"]


def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert runner.main(["--quick", "--only", "fig1",
                        "--trace", str(trace_path),
                        "--metrics", str(metrics_path)]) == 0
    assert "Figure 1" in capsys.readouterr().out
    assert json.loads(trace_path.read_text())["traceEvents"]
    assert "fig1" in json.loads(metrics_path.read_text())["experiments"]


def test_cli_rejects_bad_arguments():
    with pytest.raises(SystemExit):
        runner.main(["--only", "fig99"])
    with pytest.raises(SystemExit):
        runner.main(["--jobs", "0", "--only", "table1"])
    with pytest.raises(SystemExit):
        runner.main(["--quick", "--full"])
    with pytest.raises(SystemExit):
        runner.main(["--profile-strategy", "random", "--only", "table1"])
    with pytest.raises(SystemExit):
        runner.main(["--profile-jobs", "0", "--only", "table1"])


def test_cli_profile_strategy_and_jobs_reach_the_context(monkeypatch):
    seen = {}

    def fake_run_all(**kwargs):
        seen.update(kwargs)
        return [ExperimentResult(name="a", label="A", tables=["t"], rows=1)]

    monkeypatch.setattr(runner, "run_all", fake_run_all)
    assert runner.main(["--only", "table2", "--profile-strategy", "search",
                        "--profile-jobs", "2"]) == 0
    assert seen["profile"] == ProfilePolicy(strategy="search", jobs=2)


def test_context_carries_profile_strategy_defaults():
    ctx = ExperimentContext(quick=True)
    assert ctx.profile == ProfilePolicy()
    assert ctx.profile.strategy == "coordinate"
    assert ctx.profile.jobs == 1


# ---------------------------------------------------------------------------
# --report and the sweep decision log
# ---------------------------------------------------------------------------

def test_run_all_writes_markdown_report(tmp_path):
    report_path = tmp_path / "report.md"
    results = runner.run_all(quick=True, only=["table1"],
                             out=io.StringIO(),
                             report_path=str(report_path))
    text = report_path.read_text()
    assert text.startswith("# repro experiment run")
    assert "Table I" in text
    # --report implies observation: the trace travelled back.
    assert results[0].trace is not None


def test_run_all_writes_json_report(tmp_path):
    report_path = tmp_path / "report.json"
    runner.run_all(quick=True, only=["table1"], out=io.StringIO(),
                   report_path=str(report_path))
    report = json.loads(report_path.read_text())
    assert report["totals"]["experiments"] == 1
    assert report["totals"]["failures"] == 0
    assert report["experiments"][0]["name"] == "table1"
    assert report["experiments"][0]["trace"]["events"] >= 0
    assert report["suite"]["quick"] is True


def test_sweep_telemetry_context_carries_decisions(monkeypatch):
    """A sweeping experiment run under ctx.observe ships its decision
    log back on the (picklable) result and into the run report."""
    def experiment(ctx):
        from repro.core import Profiler
        from repro.hw import PLATFORM_4X_VOLTA
        from repro.units import KiB
        from tests.conftest import small_pagerank

        profiler = Profiler(PLATFORM_4X_VOLTA,
                            chunk_sizes=(256 * KiB,),
                            thread_counts=(2048,),
                            search="exhaustive")
        profile = profiler.profile(small_pagerank(iterations=1)
                                   .phase_builder())
        table = TextTable("Sweep", ["configs"])
        table.add_row(len(profile.entries))
        return ExperimentResult.build("sweepy", "Sweepy", [table], {})

    _register_fake(monkeypatch, "sweepy", experiment)
    result = run_experiment("sweepy",
                            ExperimentContext(quick=True, observe=True))
    assert result.error is None
    assert result.decisions, "decision log must travel on the result"
    kinds = {event["kind"] for event in result.decisions}
    assert "measure" in kinds
    assert result.to_dict()["decisions"] == result.decisions
    # The merged trace carries the worker lane and decision channel.
    tids = {e["tid"] for e in result.trace["traceEvents"]}
    assert "decision" in tids
    assert any(str(tid).startswith("sweep.worker") for tid in tids)

    # And the run report renders the decision summary.
    from repro.obs.report import build_run_report, render_markdown
    entry = result.to_dict()
    entry["trace"] = result.trace
    report = build_run_report([entry])
    markdown = render_markdown(report)
    assert "Sweep decisions" in markdown


def test_sweeps_off_leaves_decisions_unset():
    """An observed experiment that runs no sweep exports no decisions."""
    result = run_experiment("table1", ExperimentContext(quick=True,
                                                        observe=True))
    assert result.decisions is None
    assert "decisions" not in result.to_dict()


def test_cli_report_flag_reaches_run_all(monkeypatch):
    seen = {}

    def fake_run_all(**kwargs):
        seen.update(kwargs)
        return [ExperimentResult(name="a", label="A", tables=["t"], rows=1)]

    monkeypatch.setattr(runner, "run_all", fake_run_all)
    assert runner.main(["--only", "table1", "--report", "out.md"]) == 0
    assert seen["report_path"] == "out.md"


# ---------------------------------------------------------------------------
# Failure handling and exit status
# ---------------------------------------------------------------------------

def test_run_experiment_captures_raising_experiment(monkeypatch):
    import sys
    import types

    module = types.ModuleType("repro.experiments._boom")

    def experiment(ctx):
        raise RuntimeError("boom")

    module.experiment = experiment
    monkeypatch.setitem(sys.modules, "repro.experiments._boom", module)
    from repro.experiments import registry
    from repro.experiments.registry import ExperimentSpec
    monkeypatch.setitem(registry._BY_NAME, "boom",
                        ExperimentSpec("boom", "Boom",
                                       "repro.experiments._boom"))
    result = run_experiment("boom", ExperimentContext(quick=True))
    assert result.error == "RuntimeError: boom"
    assert result.rows == 0 and result.tables == []
    assert result.elapsed > 0
    assert result.to_dict()["error"] == "RuntimeError: boom"


def test_suite_failures_flags_errors_and_empty_tables():
    ok = ExperimentResult(name="a", label="A", tables=["t"], rows=1)
    failed = ExperimentResult.failed("b", "B", ValueError("nope"))
    empty = ExperimentResult(name="c", label="C", tables=[], rows=0)
    assert runner.suite_failures([ok]) == []
    assert runner.suite_failures([ok, failed, empty]) == [
        "b: ValueError: nope", "c: produced no table rows"]


def test_run_all_reports_failed_experiment(monkeypatch):
    def fake_run(name, ctx):
        if name == "fig2":
            return ExperimentResult.failed(
                name, "Figure 2", RuntimeError("exploded"))
        return run_experiment(name, ctx)

    monkeypatch.setattr(runner, "run_experiment", fake_run)
    buffer = io.StringIO()
    results = runner.run_all(quick=True, only=FAST, out=buffer)
    assert "[Figure 2 FAILED after" in buffer.getvalue()
    assert runner.suite_failures(results) == [
        "fig2: RuntimeError: exploded"]


def test_parallel_run_survives_a_dying_worker(monkeypatch, tmp_path):
    """A worker process that dies fails its experiment by name; the
    finished results are kept, in registry order, and --json is
    written."""
    import os

    from repro.experiments import registry

    finished = tmp_path / "steady.done"

    def steady(ctx):
        table = TextTable("Steady", ["rows"])
        table.add_row(1)
        finished.touch()
        return ExperimentResult.build("steady", "Steady", [table], {})

    def dying(ctx):
        # Die only once the other worker's experiment has returned.
        deadline = time.monotonic() + 60
        while not finished.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        os._exit(3)

    _register_fake(monkeypatch, "steady", steady)
    _register_fake(monkeypatch, "dying", dying)
    monkeypatch.setattr(registry, "REGISTRY", registry.REGISTRY + (
        registry.get_spec("steady"), registry.get_spec("dying")))
    json_path = tmp_path / "results.json"
    results = runner.run_all(quick=True, jobs=2, only=["steady", "dying"],
                             out=io.StringIO(), json_path=str(json_path))
    assert [result.name for result in results] == ["steady", "dying"]
    failures = runner.suite_failures(results)
    assert len(failures) == 1
    assert failures[0].startswith(
        "dying: ProactError: worker process died before dying finished")
    payload = json.loads(json_path.read_text())
    assert payload["suite_failures"] == failures
    assert [entry["name"] for entry in payload["experiments"]] == [
        "steady", "dying"]


def test_cli_exit_status_reflects_failures(monkeypatch, capsys):
    ok = ExperimentResult(name="a", label="A", tables=["t"], rows=1)
    failed = ExperimentResult.failed("b", "B", ValueError("nope"))

    monkeypatch.setattr(runner, "run_all", lambda **kwargs: [ok, failed])
    assert runner.main(["--only", "table1"]) == 1
    assert "FAILED b: ValueError: nope" in capsys.readouterr().err

    monkeypatch.setattr(runner, "run_all", lambda **kwargs: [ok])
    assert runner.main(["--only", "table1"]) == 0


# ---------------------------------------------------------------------------
# --validate: sanitizers across the suite
# ---------------------------------------------------------------------------

def _register_fake(monkeypatch, name, experiment_fn):
    """Install a throwaway experiment module + registry entry."""
    import sys
    import types

    module = types.ModuleType(f"repro.experiments._{name}")
    module.experiment = experiment_fn
    monkeypatch.setitem(sys.modules, f"repro.experiments._{name}", module)
    from repro.experiments import registry
    from repro.experiments.registry import ExperimentSpec
    monkeypatch.setitem(registry._BY_NAME, name,
                        ExperimentSpec(name, name.title(),
                                       f"repro.experiments._{name}"))


def test_validate_context_attaches_sanitizer_summary(monkeypatch):
    def experiment(ctx):
        from repro.api import Session
        from repro.hw import PLATFORM_4X_VOLTA
        from repro.runtime import System
        from repro.units import MiB

        system = System(PLATFORM_4X_VOLTA)
        assert system.validating  # the runner's scope reached us
        proc = system.collective("all_reduce", 1 * MiB)
        system.run(until=proc)
        Session(PLATFORM_4X_VOLTA).finish(system)
        table = TextTable("Validated", ["ok"])
        table.add_row(1)
        return ExperimentResult.build("validated", "Validated", [table], {})

    _register_fake(monkeypatch, "validated", experiment)
    result = run_experiment("validated",
                            ExperimentContext(quick=True, validate=True))
    assert result.error is None
    assert result.validation is not None
    assert result.validation["violations"] == 0
    assert result.validation["systems_validated"] == 1
    assert result.to_dict()["validation"]["systems_validated"] == 1


def test_validate_off_leaves_experiments_unvalidated(monkeypatch):
    def experiment(ctx):
        from repro.hw import PLATFORM_4X_VOLTA
        from repro.runtime import System

        assert not System(PLATFORM_4X_VOLTA).validating
        table = TextTable("Plain", ["ok"])
        table.add_row(1)
        return ExperimentResult.build("plain", "Plain", [table], {})

    _register_fake(monkeypatch, "plain", experiment)
    result = run_experiment("plain", ExperimentContext(quick=True))
    assert result.error is None
    assert result.validation is None


def test_tripped_invariant_fails_the_experiment_not_the_suite(monkeypatch):
    def experiment(ctx):
        from repro.errors import ValidationError
        raise ValidationError("stale chunk observed",
                              invariant="read-before-ready",
                              gpu=1, chunk=3, time=0.5)

    _register_fake(monkeypatch, "tripped", experiment)
    result = run_experiment("tripped",
                            ExperimentContext(quick=True, validate=True))
    assert result.error is not None
    assert "read-before-ready" in result.error
    assert "chunk=3" in result.error
    assert runner.suite_failures([result]) == [f"tripped: {result.error}"]


def test_results_json_carries_suite_failures_and_validate_flag(
        monkeypatch, tmp_path):
    def fake_run(name, ctx):
        assert ctx.validate
        if name == "fig2":
            return ExperimentResult.failed(
                name, "Figure 2", ValueError("tripped invariant"))
        return run_experiment(name, ctx)

    monkeypatch.setattr(runner, "run_experiment", fake_run)
    path = tmp_path / "results.json"
    buffer = io.StringIO()
    results = runner.run_all(quick=True, only=FAST, out=buffer,
                             json_path=str(path), validate=True)
    payload = json.loads(path.read_text())
    assert payload["validate"] is True
    assert payload["suite_failures"] == ["fig2: ValueError: tripped invariant"]
    assert runner.suite_failures(results) == payload["suite_failures"]


def test_clean_run_has_empty_suite_failures_in_json(tmp_path):
    path = tmp_path / "results.json"
    runner.run_all(quick=True, only=["table1"], out=io.StringIO(),
                   json_path=str(path))
    payload = json.loads(path.read_text())
    assert payload["suite_failures"] == []
    assert payload["validate"] is False


def test_cli_validate_flag_exits_nonzero_on_tripped_invariant(
        monkeypatch, capsys, tmp_path):
    def fake_run_all(**kwargs):
        assert kwargs["validate"] is True
        failed = ExperimentResult.failed(
            "fig6", "Figure 6",
            ValueError("[read-before-ready] gpu=0 chunk=2 t=1e-3s stale"))
        if kwargs.get("json_path"):
            runner.write_results_json(
                __import__("pathlib").Path(kwargs["json_path"]), [failed],
                quick=True, jobs=1, total_elapsed=0.1, validate=True)
        return [failed]

    monkeypatch.setattr(runner, "run_all", fake_run_all)
    path = tmp_path / "results.json"
    assert runner.main(["--quick", "--validate", "--only", "fig6",
                        "--json", str(path)]) == 1
    assert "read-before-ready" in capsys.readouterr().err
    assert json.loads(path.read_text())["suite_failures"]


def test_cli_validate_flag_passes_clean(capsys):
    assert runner.main(["--quick", "--validate", "--only", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out
