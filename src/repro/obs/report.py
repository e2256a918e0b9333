"""Run reports: trace + metrics + decision log in one readable artifact.

A suite run (or a single capture) accumulates three telemetry streams —
the merged Chrome-trace document, per-experiment metrics snapshots, and
the profiler's sweep decision log.  Each is individually machine-ready
but none is *glanceable*; this module folds them into a single report,
rendered as markdown for humans or JSON for tooling::

    python -m repro.experiments.runner --quick --report report.md

It also holds :class:`TextTable` and :func:`geometric_mean`, the
fixed-width tables and cross-app mean every experiment (and
:mod:`repro.ablation`'s report) prints its results with.

Everything here consumes plain JSON-ready structures (the dict forms
that already travel across the runner's worker processes), so the
report builder has no dependency on the experiment layer and works the
same on a live :class:`~repro.obs.capture.Observation`
(:func:`observation_report`) or on results reloaded from disk.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

#: Histogram series surfaced in the report's latency tables (others are
#: still present in the raw metrics snapshot, just not tabulated).
_HISTOGRAM_COLUMNS = ("count", "mean", "p50", "p90", "p99", "max")


def summarize_trace(document: Optional[Mapping]) -> Dict[str, Any]:
    """Shape of one Chrome-trace document: events, lanes, worker lanes."""
    if not document:
        return {"events": 0, "spans": 0, "lanes": 0, "worker_lanes": 0,
                "decision_events": 0}
    events = document.get("traceEvents", [])
    lanes = set()
    worker_lanes = set()
    spans = 0
    decisions = 0
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            continue
        tid = str(event.get("tid"))
        lanes.add((event.get("pid"), tid))
        if tid.startswith("sweep.worker"):
            worker_lanes.add((event.get("pid"), tid))
        if phase == "X":
            spans += 1
        if event.get("cat") == "decision":
            decisions += 1
    return {
        "events": sum(1 for e in events if e.get("ph") != "M"),
        "spans": spans,
        "lanes": len(lanes),
        "worker_lanes": len(worker_lanes),
        "decision_events": decisions,
    }


def summarize_decisions(events: Optional[Sequence[Mapping]],
                        ) -> Dict[str, Any]:
    """Per-kind counts and the final incumbent of a decision-log export."""
    summary: Dict[str, Any] = {"events": 0, "counts": {}}
    if not events:
        return summary
    counts: Dict[str, int] = {}
    best_config = None
    best_runtime = None
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "incumbent":
            best_config = event.get("config")
            best_runtime = event.get("payload", {}).get("runtime")
    summary["events"] = len(events)
    summary["counts"] = counts
    measured = counts.get("measure", 0)
    pruned = counts.get("prune", 0)
    summary["decided"] = measured + pruned
    if measured + pruned:
        summary["prune_rate"] = pruned / (measured + pruned)
    if best_config is not None:
        summary["best_config"] = best_config
        summary["best_runtime"] = best_runtime
    return summary


def histogram_rows(metrics: Optional[Mapping]) -> List[Dict[str, Any]]:
    """The metric snapshot's histogram series as flat, sorted rows."""
    if not metrics:
        return []
    rows = []
    for series, summary in sorted(metrics.get("histograms", {}).items()):
        row: Dict[str, Any] = {"series": series}
        for column in _HISTOGRAM_COLUMNS:
            row[column] = summary.get(column, 0.0)
        rows.append(row)
    return rows


def _experiment_section(experiment: Mapping) -> Dict[str, Any]:
    section: Dict[str, Any] = {
        "name": experiment.get("name", "?"),
        "label": experiment.get("label", experiment.get("name", "?")),
        "elapsed": float(experiment.get("elapsed", 0.0) or 0.0),
        "rows": int(experiment.get("rows", 0) or 0),
        "scalars": dict(experiment.get("scalars") or {}),
    }
    error = experiment.get("error")
    if error is not None:
        section["error"] = str(error)
    decisions = experiment.get("decisions")
    if decisions:
        section["decisions"] = summarize_decisions(decisions)
    histograms = histogram_rows(experiment.get("metrics"))
    if histograms:
        section["histograms"] = histograms
    trace = experiment.get("trace")
    if trace:
        section["trace"] = summarize_trace(trace)
    return section


def build_run_report(experiments: Sequence[Mapping],
                     title: str = "Run report",
                     suite: Optional[Mapping] = None) -> Dict[str, Any]:
    """Assemble the JSON-ready report from per-experiment dicts.

    Each experiment mapping may carry ``name``/``label``/``elapsed``/
    ``rows``/``error``/``scalars`` plus the optional telemetry streams:
    ``metrics`` (a registry snapshot), ``trace`` (a Chrome-trace
    document), and ``decisions`` (a decision-log export).  Missing
    pieces simply produce smaller sections.
    """
    sections = [_experiment_section(experiment)
                for experiment in experiments]
    failures = [section["name"] for section in sections
                if "error" in section]
    report: Dict[str, Any] = {
        "title": title,
        "totals": {
            "experiments": len(sections),
            "failures": len(failures),
            "rows": sum(section["rows"] for section in sections),
            "elapsed_s": round(sum(section["elapsed"]
                                   for section in sections), 3),
        },
        "experiments": sections,
    }
    if failures:
        report["failed"] = failures
    if suite:
        report["suite"] = dict(suite)
    return report


def observation_report(observation: Any,
                       title: str = "Capture report") -> Dict[str, Any]:
    """A report over one live :class:`~repro.obs.capture.Observation`."""
    exported = observation.export()
    return build_run_report([{
        "name": "capture",
        "label": title,
        "trace": exported.get("trace"),
        "metrics": exported.get("metrics"),
        "decisions": exported.get("decisions"),
    }], title=title)


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------

def _md_table(headers: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_cell(value) for value in row) + " |")
    return lines


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_markdown(report: Mapping) -> str:
    """The report as a self-contained markdown document."""
    lines: List[str] = [f"# {report.get('title', 'Run report')}", ""]
    totals = report.get("totals", {})
    if totals:
        lines.extend(_md_table(
            ["experiments", "failures", "rows", "elapsed (s)"],
            [[totals.get("experiments", 0), totals.get("failures", 0),
              totals.get("rows", 0), totals.get("elapsed_s", 0.0)]]))
        lines.append("")
    if report.get("failed"):
        lines.append("**Failed:** " + ", ".join(report["failed"]))
        lines.append("")
    for section in report.get("experiments", []):
        lines.append(f"## {section.get('label', section.get('name'))}")
        lines.append("")
        status = ("FAILED: " + section["error"] if "error" in section
                  else f"{section.get('rows', 0)} rows in "
                       f"{section.get('elapsed', 0.0):.2f}s")
        lines.append(status)
        lines.append("")
        scalars = section.get("scalars") or {}
        if scalars:
            lines.extend(_md_table(
                ["scalar", "value"],
                [[key, value] for key, value in sorted(scalars.items())]))
            lines.append("")
        decisions = section.get("decisions")
        if decisions:
            counts = decisions.get("counts", {})
            rows = [[kind, counts[kind]] for kind in sorted(counts)]
            lines.append("### Sweep decisions")
            lines.append("")
            lines.extend(_md_table(["decision", "count"], rows))
            if "best_config" in decisions:
                runtime = decisions.get("best_runtime")
                suffix = (f" ({runtime:.6g}s)"
                          if isinstance(runtime, float) else "")
                lines.append("")
                lines.append(
                    f"Winner: `{decisions['best_config']}`{suffix}; "
                    f"prune rate "
                    f"{decisions.get('prune_rate', 0.0):.0%} of "
                    f"{decisions.get('decided', 0)} candidates.")
            lines.append("")
        histograms = section.get("histograms")
        if histograms:
            lines.append("### Latency histograms")
            lines.append("")
            lines.extend(_md_table(
                ("series",) + _HISTOGRAM_COLUMNS,
                [[row["series"]] + [row[c] for c in _HISTOGRAM_COLUMNS]
                 for row in histograms]))
            lines.append("")
        trace = section.get("trace")
        if trace:
            lines.append(
                f"Trace: {trace['events']} events "
                f"({trace['spans']} spans) across {trace['lanes']} lanes"
                + (f", {trace['worker_lanes']} worker lanes"
                   if trace.get("worker_lanes") else "")
                + (f", {trace['decision_events']} decision events"
                   if trace.get("decision_events") else "")
                + ".")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report(path: Union[str, pathlib.Path],
                 report: Mapping) -> None:
    """Write a built report; ``.json`` gets JSON, anything else markdown."""
    target = pathlib.Path(path)
    if target.suffix.lower() == ".json":
        target.write_text(json.dumps(report, indent=2, sort_keys=True)
                          + "\n")
    else:
        target.write_text(render_markdown(report))


# ---------------------------------------------------------------------------
# Fixed-width text tables, which every experiment and ablation report
# renders through
# ---------------------------------------------------------------------------

@dataclass
class TextTable:
    """A simple fixed-width table with a title."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(values)

    def render(self) -> str:
        cells = [[_format(value) for value in row] for row in self.rows]
        widths = [len(name) for name in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        header = "  ".join(name.ljust(widths[i])
                           for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, as the paper uses for cross-app speedups."""
    if not values:
        raise ValueError("geometric mean of no values")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean needs positives, got {value}")
        product *= value
    return product ** (1.0 / len(values))
