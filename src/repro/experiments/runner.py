"""Run every experiment and print the paper's tables and figures.

``python -m repro.experiments.runner`` regenerates everything; each
experiment is also importable individually (``fig7_endtoend.run()`` etc.).

The runner is registry-driven (:mod:`repro.experiments.registry`): every
experiment is declared once, runs to a structured
:class:`~repro.experiments.registry.ExperimentResult`, and can execute on
a process pool because experiments are independent of each other.  Output
is deterministic regardless of parallelism: results are printed in
registry order and each experiment's tables are byte-identical to a
serial run (the simulation is a pure function of its inputs).

Command line::

    python -m repro.experiments.runner [--full | --quick] [--jobs N]
                                       [--only NAME ...] [--json PATH]
                                       [--trace PATH] [--metrics PATH]
                                       [--report PATH]
                                       [--validate] [--list]
                                       [--profile-strategy MODE]
                                       [--profile-jobs N]

``--trace`` captures every simulated system built by the selected
experiments and writes one merged Chrome-trace JSON (open it at
https://ui.perfetto.dev); ``--metrics`` writes the aggregated metrics
registry snapshots.  Either flag turns observation on; captured metrics
are also merged into the ``--json`` results schema.  An observed
profiler sweep also records its telemetry — per-worker activity lanes in
the trace, the search/prune decision log (in ``--json`` under each
experiment's ``decisions``), and sweep latency histograms (see
``docs/OBSERVABILITY.md``).  ``--report`` distills everything captured
into one run report (markdown, or JSON when the path ends in ``.json``);
it implies observation.

``--validate`` runs every experiment under the simulation sanitizers
(:mod:`repro.validate`): readiness ordering and byte conservation are
checked on every system the suite builds, and a tripped invariant fails
that experiment (and hence the suite) like any other raise.

The process exits non-zero when any experiment raised or produced an
empty results table (see :func:`suite_failures`); the failure is also
recorded in the ``--json`` summary under the experiment's ``error`` key
and in the run-level ``suite_failures`` list.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import List, Optional, Sequence, TextIO

from repro.core.profiler import SEARCH_MODES
from repro.errors import ProactError
from repro.experiments.registry import (
    DEFAULT_PROFILE_POLICY,
    ExperimentContext,
    ExperimentResult,
    ProfilePolicy,
    experiment_names,
    get_spec,
    run_experiment,
    select_specs,
)


def _emit(stream: TextIO, result: ExperimentResult) -> None:
    for block in result.tables:
        print(block, file=stream)
        print("", file=stream)
    if result.error is not None:
        print(f"[{result.label} FAILED after {result.elapsed:.1f}s: "
              f"{result.error}]", file=stream)
    else:
        print(f"[{result.label} completed in {result.elapsed:.1f}s]",
              file=stream)
    print("", file=stream)


def suite_failures(results: Sequence[ExperimentResult]) -> List[str]:
    """Everything that makes the run a failure: raises and empty tables.

    An experiment that produced zero data rows is as broken as one that
    raised — its assertions never saw any results — so both fail the
    suite and flip the process exit status.
    """
    failures = []
    for result in results:
        if result.error is not None:
            failures.append(f"{result.name}: {result.error}")
        elif result.rows == 0:
            failures.append(f"{result.name}: produced no table rows")
    return failures


def _run_serial(names: Sequence[str], ctx: ExperimentContext,
                stream: TextIO) -> List[ExperimentResult]:
    results = []
    for name in names:
        result = run_experiment(name, ctx)
        _emit(stream, result)
        results.append(result)
    return results


def _run_parallel(names: Sequence[str], ctx: ExperimentContext,
                  stream: TextIO, jobs: int) -> List[ExperimentResult]:
    """Run independent experiments concurrently.

    Results are printed in registry order as soon as each experiment
    *and all its predecessors* have finished, so the text output matches
    the serial runner's ordering exactly.  A worker process that dies
    (OOM kill, segfault, ``os._exit``) breaks every unfinished future;
    each of those experiments is recorded as failed, and the results
    that finished are kept.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool
    workers = min(jobs, len(names))
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers) as pool:
        futures = [pool.submit(run_experiment, name, ctx)
                   for name in names]
        results = []
        for name, future in zip(names, futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                error = ProactError(
                    f"worker process died before {name} finished: {exc}")
                result = ExperimentResult.failed(
                    name, get_spec(name).label, error)
            _emit(stream, result)
            results.append(result)
    return results


def write_results_json(path: pathlib.Path,
                       results: Sequence[ExperimentResult],
                       quick: bool, jobs: int,
                       total_elapsed: float,
                       validate: bool = False) -> None:
    """Persist the machine-readable run summary for CI/bench tooling."""
    payload = {
        "suite": "repro-experiments",
        "quick": quick,
        "jobs": jobs,
        "validate": validate,
        "total_elapsed": total_elapsed,
        "suite_failures": suite_failures(results),
        "experiments": [result.to_dict() for result in results],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trace_json(path: pathlib.Path,
                     results: Sequence[ExperimentResult]) -> None:
    """Merge per-experiment Chrome traces into one loadable document."""
    from repro.obs import merge_chrome_traces, write_chrome_trace
    document = merge_chrome_traces(
        [result.trace for result in results if result.trace is not None])
    write_chrome_trace(path, document)


def write_metrics_json(path: pathlib.Path,
                       results: Sequence[ExperimentResult]) -> None:
    """Write every experiment's metrics snapshot, keyed by name."""
    payload = {
        "suite": "repro-experiments",
        "experiments": {result.name: result.metrics for result in results
                        if result.metrics is not None},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_run_report(path: pathlib.Path,
                     results: Sequence[ExperimentResult],
                     quick: bool, jobs: int,
                     total_elapsed: float) -> None:
    """Distill the run into one report artifact (markdown or JSON)."""
    from repro.obs.report import build_run_report, write_report
    experiments = []
    for result in results:
        entry = result.to_dict()
        entry["trace"] = result.trace
        entry["decisions"] = result.decisions
        experiments.append(entry)
    report = build_run_report(
        experiments, title="repro experiment run",
        suite={"quick": quick, "jobs": jobs,
               "total_elapsed_s": round(total_elapsed, 3)})
    write_report(path, report)


def run_all(quick: bool = True, out: Optional[TextIO] = None,
            jobs: int = 1, only: Optional[Sequence[str]] = None,
            json_path: Optional[str] = None,
            trace_path: Optional[str] = None,
            metrics_path: Optional[str] = None,
            report_path: Optional[str] = None,
            validate: bool = False,
            profile: ProfilePolicy = DEFAULT_PROFILE_POLICY
            ) -> List[ExperimentResult]:
    """Run the experiment suite, printing each table as it completes.

    ``quick=True`` shrinks the microbenchmark data size and the profiler
    grids so the full suite completes in minutes; the shapes are the
    same, just with coarser sweeps.  ``jobs > 1`` fans independent
    experiments over worker processes without changing any output table.
    ``only`` restricts the run to the named registry entries, and
    ``json_path`` additionally writes the structured results summary.
    ``trace_path``/``metrics_path`` turn on observation and write the
    merged Chrome trace / metrics snapshots; the printed tables are
    byte-identical with observation on or off.  ``report_path`` (also
    observation-implying) writes the distilled run report, including
    the profiler sweeps' decision logs.  ``validate=True`` runs every
    experiment under the readiness/conservation sanitizers; a tripped
    invariant records as that experiment's failure.
    ``profile`` is the :class:`~repro.experiments.registry.ProfilePolicy`
    selecting the profiler search mode and warm-worker parallelism for
    the sweep-driven experiments.
    """
    stream = out or sys.stdout
    names = [spec.name for spec in select_specs(only)]
    observe = (trace_path is not None or metrics_path is not None
               or report_path is not None)
    ctx = ExperimentContext(quick=quick, observe=observe,
                            validate=validate, profile=profile)

    started = time.perf_counter()
    if jobs > 1 and len(names) > 1:
        results = _run_parallel(names, ctx, stream, jobs)
    else:
        results = _run_serial(names, ctx, stream)
    total_elapsed = time.perf_counter() - started

    if json_path is not None:
        write_results_json(pathlib.Path(json_path), results, quick, jobs,
                           total_elapsed, validate=validate)
    if trace_path is not None:
        write_trace_json(pathlib.Path(trace_path), results)
    if metrics_path is not None:
        write_metrics_json(pathlib.Path(metrics_path), results)
    if report_path is not None:
        write_run_report(pathlib.Path(report_path), results, quick, jobs,
                         total_elapsed)
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's tables and figures.")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick", action="store_true", default=True,
        help="reduced data sizes and sweep grids (default)")
    scale.add_argument(
        "--full", dest="quick", action="store_false",
        help="the paper's full microbenchmark size and profiler grids")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N experiments concurrently (default: 1)")
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        choices=experiment_names(),
        help="run only the named experiment (repeatable)")
    parser.add_argument(
        "--json", metavar="PATH",
        help="write a machine-readable results summary to PATH")
    parser.add_argument(
        "--trace", metavar="PATH",
        help="capture and write a Chrome-trace JSON (Perfetto-loadable) "
             "of every simulated system to PATH")
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="capture and write per-experiment metrics snapshots to PATH")
    parser.add_argument(
        "--report", metavar="PATH",
        help="write a distilled run report to PATH (markdown, or JSON "
             "when PATH ends in .json); implies observation")
    parser.add_argument(
        "--validate", action="store_true",
        help="run every experiment under the readiness/conservation "
             "sanitizers; a tripped invariant fails the suite")
    parser.add_argument(
        "--profile-strategy", default="coordinate", metavar="MODE",
        choices=SEARCH_MODES,
        help="profiler search mode for sweep-driven experiments: "
             "coordinate (default), exhaustive, or search (best-first "
             "over infinite-bandwidth floors)")
    parser.add_argument(
        "--profile-jobs", type=int, default=1, metavar="N",
        help="fan each profiler sweep over N warm worker processes "
             "(default: 1, serial)")
    parser.add_argument(
        "--list", action="store_true",
        help="list registered experiment names and exit")
    args = parser.parse_args(argv)

    if args.list:
        for spec in select_specs():
            print(f"{spec.name:12s} {spec.label}")
        return 0
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.profile_jobs < 1:
        parser.error(f"--profile-jobs must be >= 1, got {args.profile_jobs}")

    results = run_all(quick=args.quick, jobs=args.jobs, only=args.only,
                      json_path=args.json, trace_path=args.trace,
                      metrics_path=args.metrics, report_path=args.report,
                      validate=args.validate,
                      profile=ProfilePolicy(strategy=args.profile_strategy,
                                            jobs=args.profile_jobs))
    failures = suite_failures(results)
    if failures:
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
