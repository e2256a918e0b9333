"""Self-tests of the benchmark harness: ``python -m pytest bench/``.

The end-to-end tests drive ``run.py`` in ``--smoke`` mode, where every
workload runs on tiny inputs in about a second per pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostclock
import run

BENCH = Path(__file__).resolve().parent
CONFIG = run.load_config()
WORKLOAD_NAMES = [entry["name"] for entry in CONFIG["workloads"]]
COUNTS = [entry["name"] for entry in CONFIG["per_layer"]
          if entry["unit"] in run.COUNT_UNITS]


def bench(*args, cwd=None):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=900,
                          cwd=cwd, check=False)


def smoke_suite(tmp_path_factory, name, *args):
    out = tmp_path_factory.mktemp(name) / "report.json"
    child = bench("--smoke", "--reps", "1", "--seconds", "1",
                  "--out", str(out), *args)
    return child, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    child, report = smoke_suite(tmp_path_factory, "untraced")
    assert child.returncode == 0, child.stdout + child.stderr
    return report


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    reports = []
    for name in ("traced1", "traced2"):
        child, report = smoke_suite(tmp_path_factory, name, "--trace", "1")
        assert child.returncode == 0, child.stdout + child.stderr
        reports.append(report)
    return reports


def check_values(result):
    return {(check["name"], check["ok"], json.dumps(check["value"]))
            for check in result["checks"]}


# ----------------------------------------------------------------------
# End to end, on smoke inputs
# ----------------------------------------------------------------------
def test_driver_line_has_exactly_the_contract_keys():
    child = bench("--workload", "allreduce_64", "--seed", "3",
                  "--seconds", "1", "--trace", "0", "--smoke")
    assert child.returncode == 0, child.stderr
    line = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {e["name"] for e in CONFIG["end_to_end"]}


def test_every_declared_metric_and_no_other_is_reported(untraced,
                                                       traced_twice):
    assert list(untraced["workloads"]) == WORKLOAD_NAMES
    for report, section in ((untraced, "end_to_end"),
                            (traced_twice[0], "per_layer")):
        declared = {entry["name"] for entry in CONFIG[section]}
        for result in report["workloads"].values():
            assert set(result["metrics"]) == declared


def test_error_rate_is_zero(untraced, traced_twice):
    for report in (untraced, *traced_twice):
        for name, result in report["workloads"].items():
            assert result["runs"] == 1, name
            assert result["error_rate"] == 0, (name, result["checks"])


def test_counts_repeat_exactly(traced_twice):
    first, second = (report["workloads"] for report in traced_twice)
    for name in WORKLOAD_NAMES:
        for metric in COUNTS:
            assert (first[name]["metrics"][metric]["values"]
                    == second[name]["metrics"][metric]["values"]), (
                name, metric)
        assert first[name]["processes"] == second[name]["processes"]


def test_tracing_leaves_simulated_results_unchanged(untraced, traced_twice):
    for name in WORKLOAD_NAMES:
        assert (check_values(traced_twice[0]["workloads"][name])
                == check_values(untraced["workloads"][name])), name


def test_self_fractions_sum_to_one(traced_twice):
    self_fracs = [entry["name"] for entry in CONFIG["per_layer"]
                  if entry["name"].endswith(".self_frac")]
    for name, result in traced_twice[0]["workloads"].items():
        total = sum(result["metrics"][m]["median"] for m in self_fracs)
        assert total == pytest.approx(1.0, abs=1e-9), name
        for inert in ("obs.self_frac", "validate.self_frac"):
            assert result["metrics"][inert]["median"] < 0.01, (name, inert)


def test_a_failing_check_is_counted_without_stopping_the_rest(
        tmp_path_factory):
    child, report = smoke_suite(
        tmp_path_factory, "injected", "--inject-failure", "sweep_pagerank")
    assert child.returncode != 0
    results = report["workloads"]
    assert results["sweep_pagerank"]["error_rate"] > 0
    for name in set(WORKLOAD_NAMES) - {"sweep_pagerank"}:
        assert results[name]["error_rate"] == 0, name
        assert set(results[name]["metrics"]) == {
            entry["name"] for entry in CONFIG["end_to_end"]}


def test_without_the_simulator_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_pagerank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        check=False)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


# ----------------------------------------------------------------------
# Configuration, comparison and the host clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("section, name", [
    ("workloads", "no_such_workload"),
    ("end_to_end", "no_such_metric"),
    ("per_layer", "no_such.layer_metric"),
])
def test_unknown_names_in_benchmark_json_are_typed_errors(tmp_path, section,
                                                          name):
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    config[section][0]["name"] = name
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(config))
    with pytest.raises(run.BenchmarkConfigError, match=name):
        run.load_config(path)


def test_a_malformed_benchmark_json_is_a_typed_error(tmp_path):
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    del config["per_layer"][0]["unit"]
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(config))
    with pytest.raises(run.BenchmarkConfigError, match="no unit"):
        run.load_config(path)
    del config["end_to_end"][0]["name"]
    path.write_text(json.dumps(config))
    with pytest.raises(run.BenchmarkConfigError, match="malformed"):
        run.load_config(path)


def test_an_unknown_workload_argument_exits_2():
    assert bench("--workload", "no_such_workload").returncode == 2


def stats(*values):
    return run.summarize(list(values))


@pytest.mark.parametrize("old, new, expected", [
    (stats(10, 10.1, 10.2), stats(10.1, 10.2, 10.3), "unchanged"),
    (stats(10, 10.1, 10.2), stats(11.5, 11.6, 11.7), "regressed"),
    (stats(10, 10.1, 10.2), stats(9.0, 9.1, 9.2), "improved"),
    (stats(8, 10, 13), stats(8.5, 10.5, 12), "unresolved"),
    (stats(12, 14, 16), stats(7, 8, 9), "improved"),
])
def test_compare_verdicts(old, new, expected):
    assert run.verdict(old, new, bound=0.1, lower_is_better=True) == expected


def test_committed_sets_agree_within_their_bounds():
    baseline = BENCH / "baseline"
    sets = [json.loads((baseline / f"seed0_set{i}.json").read_text())
            for i in (1, 2)]
    traced = json.loads((baseline / "seed0_traced.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in CONFIG["end_to_end"]}
    for name in WORKLOAD_NAMES:
        first, second = (s["workloads"][name] for s in sets)
        for metric, bound in bounds.items():
            old = first["metrics"][metric]["median"]
            new = second["metrics"][metric]["median"]
            assert abs(new - old) <= bound * old, (name, metric, old, new)
        assert first["error_rate"] == second["error_rate"] == 0
        assert (check_values(first) == check_values(second)
                == check_values(traced["workloads"][name])), name


def test_host_clock_excludes_canary_time_and_samples_while_busy():
    with hostclock.HostClock() as clock:
        with clock.region() as region:
            start = time.process_time()
            while time.process_time() - start < 1.2:
                pass
    busy = time.process_time() - start
    assert len(clock.rates) >= 10
    assert region.seconds < busy
    assert region.seconds == pytest.approx(1.2, rel=0.05)
    # The region is nearly the whole run, so it ran at the run's speed.
    assert region.host_s == pytest.approx(
        region.seconds * clock.rate() / hostclock.REF_RATE, rel=0.01)
