"""Unit tests for the run-report builder and the bench-trend helper."""

import json

import pytest

from repro.obs.report import (
    build_run_report,
    histogram_rows,
    render_markdown,
    summarize_decisions,
    summarize_trace,
    write_report,
)

# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

_TRACE = {"traceEvents": [
    {"ph": "M", "pid": 0, "tid": 0, "name": "process_name"},
    {"ph": "X", "pid": 0, "tid": "capture", "name": "run"},
    {"ph": "X", "pid": 0, "tid": "sweep.worker0", "name": "batch"},
    {"ph": "X", "pid": 0, "tid": "sweep.worker1", "name": "batch"},
    {"ph": "i", "pid": 0, "tid": "decision", "cat": "decision",
     "name": "measure"},
    {"ph": "i", "pid": 0, "tid": "decision", "cat": "decision",
     "name": "prune"},
]}


def test_summarize_trace_counts_lanes_and_decisions():
    summary = summarize_trace(_TRACE)
    assert summary["events"] == 5  # metadata rows excluded
    assert summary["spans"] == 3
    assert summary["lanes"] == 4
    assert summary["worker_lanes"] == 2
    assert summary["decision_events"] == 2


def test_summarize_trace_handles_missing_document():
    assert summarize_trace(None)["events"] == 0
    assert summarize_trace({})["worker_lanes"] == 0


def test_summarize_decisions_counts_and_incumbent():
    events = [
        {"kind": "floors", "config": None, "payload": {}},
        {"kind": "measure", "config": "a", "payload": {}},
        {"kind": "incumbent", "config": "a", "payload": {"runtime": 2.0}},
        {"kind": "prune", "config": "b", "payload": {}},
        {"kind": "measure", "config": "c", "payload": {}},
        {"kind": "incumbent", "config": "c", "payload": {"runtime": 1.0}},
    ]
    summary = summarize_decisions(events)
    assert summary["events"] == 6
    assert summary["counts"] == {"floors": 1, "measure": 2,
                                 "incumbent": 2, "prune": 1}
    assert summary["decided"] == 3
    assert summary["prune_rate"] == pytest.approx(1 / 3)
    # Last incumbent wins.
    assert summary["best_config"] == "c"
    assert summary["best_runtime"] == 1.0


def test_summarize_decisions_empty():
    assert summarize_decisions(None) == {"events": 0, "counts": {}}
    assert summarize_decisions([]) == {"events": 0, "counts": {}}


def test_histogram_rows_sorted_and_projected():
    metrics = {"histograms": {
        "b{x=1}": {"count": 2, "mean": 1.0, "p50": 1.0, "p90": 1.0,
                   "p99": 1.0, "max": 1.5, "min": 0.5},
        "a": {"count": 1, "mean": 3.0, "p50": 3.0, "p90": 3.0,
              "p99": 3.0, "max": 3.0},
    }}
    rows = histogram_rows(metrics)
    assert [row["series"] for row in rows] == ["a", "b{x=1}"]
    assert set(rows[0]) == {"series", "count", "mean", "p50", "p90",
                            "p99", "max"}
    assert histogram_rows(None) == []


# ---------------------------------------------------------------------------
# Report assembly and rendering
# ---------------------------------------------------------------------------

def _experiments():
    return [
        {"name": "ok", "label": "OK", "elapsed": 1.5, "rows": 3,
         "scalars": {"speedup": 2.5}, "trace": _TRACE,
         "decisions": [
             {"kind": "measure", "config": "a", "payload": {}},
             {"kind": "incumbent", "config": "a",
              "payload": {"runtime": 0.25}},
         ],
         "metrics": {"histograms": {"sweep_task_ms{kind=measure}": {
             "count": 9, "mean": 1.0, "p50": 1.0, "p90": 1.2,
             "p99": 1.3, "max": 1.4}}}},
        {"name": "bad", "label": "Bad", "elapsed": 0.5, "rows": 0,
         "error": "boom"},
    ]


def test_build_run_report_totals_and_failures():
    report = build_run_report(_experiments(), title="T",
                              suite={"quick": True})
    assert report["title"] == "T"
    assert report["totals"] == {"experiments": 2, "failures": 1,
                                "rows": 3, "elapsed_s": 2.0}
    assert report["failed"] == ["bad"]
    assert report["suite"] == {"quick": True}
    ok = report["experiments"][0]
    assert ok["decisions"]["best_config"] == "a"
    assert ok["trace"]["worker_lanes"] == 2
    assert ok["histograms"][0]["series"] == "sweep_task_ms{kind=measure}"


def test_render_markdown_sections():
    text = render_markdown(build_run_report(_experiments(), title="T"))
    assert text.startswith("# T")
    assert "**Failed:** bad" in text
    assert "## OK" in text
    assert "### Sweep decisions" in text
    assert "Winner: `a` (0.25s)" in text
    assert "### Latency histograms" in text
    assert "sweep_task_ms{kind=measure}" in text
    assert "FAILED: boom" in text
    assert "2 worker lanes" in text


def test_write_report_json_and_markdown(tmp_path):
    report = build_run_report(_experiments(), title="T")
    json_path = tmp_path / "r.json"
    write_report(json_path, report)
    assert json.loads(json_path.read_text())["totals"]["experiments"] == 2
    md_path = tmp_path / "r.md"
    write_report(md_path, report)
    assert md_path.read_text().startswith("# T")
