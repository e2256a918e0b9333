"""Observability: tracing, metrics, decision logs, and run reports.

The pieces, designed to cost nothing when disabled:

* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters,
  gauges, and mergeable :class:`~repro.obs.metrics.Histogram` series
  (p50/p90/p99) that simulator components publish into
  (``bytes_sent{src,dst,mechanism}``, ``sweep_task_ms{kind}``, ...),
  aggregated per phase and per run and mergeable across processes.
* :mod:`~repro.obs.capture` — the ambient observation scope that hands
  every :class:`~repro.runtime.system.System` built inside it a tracer
  and the shared registry; ``capture(sweeps=True)`` additionally opts
  into profiler sweep telemetry (worker lanes + decision log).
* :class:`~repro.obs.decisions.DecisionLog` — the profiler's typed
  search/prune decision stream, queryable from the observation and
  mirrored on the ``decision`` trace channel.
* :mod:`~repro.obs.chrome_trace` — serializes captured tracers to the
  Chrome trace event format (one pid per GPU, one tid per lane), ready
  for ``chrome://tracing`` or https://ui.perfetto.dev.
* :mod:`~repro.obs.report` — folds trace + metrics + decisions into one
  markdown/JSON run report (runner ``--report``).  The simulator's own
  perf ledger is not here: ``bench/run.py --compare`` diffs two
  committed ``BENCH_*.json`` results.

Typical use, via the experiment runner::

    python -m repro --only fig9 --trace trace.json --report report.md

or programmatically::

    from repro import obs
    with obs.capture(sweeps=True) as observation:
        autotune.run()
    obs.write_chrome_trace("trace.json", observation.chrome_trace())
    obs.write_report("report.md", obs.observation_report(observation))

See ``docs/OBSERVABILITY.md`` for the full telemetry contract.
"""

from repro.obs.capture import Observation, active, capture, suppress
from repro.obs.chrome_trace import (
    TIME_SCALE,
    export_chrome_trace,
    merge_chrome_traces,
    tracer_events,
    write_chrome_trace,
)
from repro.obs.decisions import (
    DECISION_CHANNEL,
    DECISION_KINDS,
    DecisionEvent,
    DecisionLog,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    series_name,
)
from repro.obs.report import (
    build_run_report,
    observation_report,
    render_markdown,
    write_report,
)

__all__ = [
    "Observation",
    "active",
    "capture",
    "suppress",
    "MetricsRegistry",
    "Histogram",
    "NULL_METRICS",
    "series_name",
    "DecisionLog",
    "DecisionEvent",
    "DECISION_KINDS",
    "DECISION_CHANNEL",
    "TIME_SCALE",
    "tracer_events",
    "export_chrome_trace",
    "merge_chrome_traces",
    "write_chrome_trace",
    "build_run_report",
    "observation_report",
    "render_markdown",
    "write_report",
]
