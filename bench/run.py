"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload sweep_pagerank --seed 0 --seconds 25 --trace 0

builds the workload's inputs from the seed, times repeated passes over it
for ``--seconds`` seconds, checks every simulated output, prints each
metric with its unit and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
runs one untraced and one traced pass instead and reports the per-layer
metrics.  The simulator is imported from ``src/`` beside this directory.

Several runs in fresh processes, one at a time, aggregated as medians and
quartiles (``--out`` writes them as JSON)::

    python3 bench/run.py --seed 0 --reps 5 --out set1.json
    python3 bench/run.py --trace 1 --out traced.json

and two such files compared, one row per workload and metric::

    python3 bench/run.py --compare set1.json set2.json

See ``bench/README.md`` for the workloads, metrics and run protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_PATH = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH_DIR))

import hostclock  # noqa: E402
import layers  # noqa: E402
from specs import WORKLOADS, Check  # noqa: E402

#: Set-up timings per run: this process plus fresh child processes.
SETUP_SAMPLES = 9
#: End-to-end metrics this harness measures.
END_TO_END = ("host_s", "setup_s", "peak_rss_mib")
#: Units whose values are exact counts, diffed exactly by ``--compare``.
COUNT_UNITS = ("count", "bytes")


class BenchmarkConfigError(ValueError):
    """``BENCHMARK.json`` or a command line names something unknown."""


def load_config(path: Path = CONFIG_PATH) -> Dict[str, Any]:
    """Reads ``BENCHMARK.json`` and checks it against this harness."""
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkConfigError(f"cannot read {path}: {exc}") from None
    for key in ("workloads", "end_to_end", "per_layer", "run_seconds"):
        if key not in config:
            raise BenchmarkConfigError(f"{path.name} has no {key!r}")
    for section, known in (("workloads", WORKLOADS),
                           ("end_to_end", END_TO_END),
                           ("per_layer", layers.METRICS)):
        try:
            names = [entry["name"] for entry in config[section]]
            has_units = section == "workloads" or all(
                "unit" in entry for entry in config[section])
        except (KeyError, TypeError) as exc:
            raise BenchmarkConfigError(
                f"{path.name} {section}: malformed entry ({exc!r})") from None
        if not has_units:
            raise BenchmarkConfigError(
                f"{path.name} {section}: an entry has no unit")
        unknown = sorted(set(names) - set(known))
        missing = sorted(set(known) - set(names))
        if unknown or missing:
            raise BenchmarkConfigError(
                f"{path.name} {section}: unknown {unknown}, "
                f"not listed {missing}")
    return config


def units(config: Dict[str, Any], section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in config[section]}


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Tally:
    """Operations and checks of one run."""

    def __init__(self) -> None:
        self.ops = 0
        self.raised = 0
        self.checks: List[Check] = []

    def record(self, checks: Sequence[Check]) -> None:
        self.checks.extend(checks)

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.raised + sum(1 for check in self.checks if not check.ok)


def run_op(op, clock, tally: Tally):
    """Runs one operation; returns ``(result, prepare, timed)`` with the
    two :class:`hostclock.Region` timings, or ``None`` when it raised
    (the traceback goes to stderr)."""
    tally.ops += 1
    try:
        with clock.region() as prepare:
            state = op.prepare()
        with clock.region() as timed:
            result = op.run(state)
    except Exception:  # noqa: BLE001 - one failed op must not end the run
        tally.raised += 1
        traceback.print_exc()
        return None
    return result, prepare, timed


def timed_passes(spec, clock, tally: Tally, seconds: float):
    """Repeats passes until the next operation would end past the
    deadline; the first pass always completes.  Returns the timed host
    seconds of every operation, by kind."""
    deadline = time.perf_counter() + seconds
    samples: Dict[str, List[float]] = {}
    walls: Dict[str, float] = {}
    first = True
    while True:
        results = {}
        for op in spec.ops():
            if not first and time.perf_counter() + walls[op.kind] > deadline:
                return samples
            started = time.perf_counter()
            outcome = run_op(op, clock, tally)
            walls[op.kind] = time.perf_counter() - started
            if outcome is None:
                continue
            result, _, timed = outcome
            samples.setdefault(op.kind, []).append(timed.host_s)
            tally.record(spec.check(op.kind, result))
            if first:
                results[op.kind] = result
        if first:
            tally.record(spec.check_pass(results))
            first = False


def one_pass(spec, clock, tally: Tally, trace=None):
    """One pass; returns ``(timed host s, prepared + timed CPU s)``."""
    run_host_s = total_s = 0.0
    results = {}
    for op in spec.ops():
        outcome = run_op(op, clock, tally)
        if outcome is None:
            continue
        result, prepare, timed = outcome
        run_host_s += timed.host_s
        total_s += prepare.seconds + timed.seconds
        tally.record(spec.check(op.kind, result))
        results[op.kind] = result
        if trace is not None:
            trace.after_op(result)
    tally.record(spec.check_pass(results))
    return run_host_s, total_s


def measure_setup(spec) -> float:
    """Host seconds of this process's set-up, interpreter start included;
    the part before the clock starts is charged at the set-up's speed."""
    before = time.process_time()
    with hostclock.HostClock() as clock:
        with clock.region() as setup:
            spec.setup()
    return clock.host_s(before) + setup.host_s


def setup_child(name: str, seed: int, smoke: bool) -> float:
    """Set-up host seconds of a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed), "--setup-only"]
    if smoke:
        command.append("--smoke")
    child = subprocess.run(command, capture_output=True, text=True,
                           timeout=120, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{child.stderr}")
    return float(child.stdout.strip().splitlines()[-1])


def run_workload(args, config) -> int:
    spec = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    setup_s = [measure_setup(spec)]
    if args.setup_only:
        print(repr(setup_s[0]))
        return 0
    for _ in range(SETUP_SAMPLES - 1):
        setup_s.append(setup_child(args.workload, args.seed, args.smoke))

    tally = Tally()
    trace = None
    started = time.perf_counter()
    with hostclock.HostClock() as clock:
        if args.trace:
            untraced_run_host_s, untraced_total_s = one_pass(spec, clock,
                                                             tally)
            trace = layers.LayerTrace()
            with trace:
                _, traced_total_s = one_pass(spec, clock, tally, trace)
        else:
            samples = timed_passes(spec, clock, tally, args.seconds)
    wall_s = time.perf_counter() - started
    if args.inject_failure == args.workload:
        tally.record([Check("injected_failure", False)])

    if args.trace:
        values = trace.metrics(
            untraced_run_host_s=untraced_run_host_s,
            trace_overhead=(traced_total_s / untraced_total_s
                            if untraced_total_s else 0.0))
        section = "per_layer"
    else:
        values = {
            "host_s": sum(statistics.median(kind_samples)
                          for kind_samples in samples.values()),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"
    metric_units = units(config, section)
    metrics = {name: {"value": values[name], "unit": metric_units[name]}
               for name in metric_units}

    print(f"{args.workload} seed={args.seed} trace={int(args.trace)}: "
          f"{tally.ops} ops in {wall_s:.1f} s wall, canary "
          f"{clock.rate() / 1e6:.1f}M/s over {len(clock.rates)} samples")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for check in tally.checks:
        if not check.ok:
            print(f"  FAILED check {check.name}: {check.value!r}")
    print(f"  checks: {len(tally.checks)} run, "
          f"{sum(not c.ok for c in tally.checks)} failed; "
          f"ops: {tally.ops} run, {tally.raised} raised")
    if args.out:
        detail = {
            "workload": args.workload, "seed": args.seed,
            "trace": int(args.trace), "smoke": args.smoke,
            "metrics": metrics, "attempted": tally.attempted,
            "failed": tally.failed, "ops": tally.ops, "raised": tally.raised,
            "checks": [vars(check) for check in tally.checks],
            "canary": {"mean_rate": clock.rate(),
                       "samples": len(clock.rates)},
            "setup_host_s": setup_s, "wall_s": wall_s,
        }
        if trace is not None:
            detail["processes"] = trace.process_counts()
        else:
            detail["op_host_s"] = samples
        Path(args.out).write_text(json.dumps(detail, indent=1, default=repr),
                                  encoding="utf-8")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# Several runs, aggregated
# ----------------------------------------------------------------------
def summarize(values: List[float]) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_suite(args, config) -> int:
    traced = bool(args.trace)
    reps = args.reps if args.reps is not None else (1 if traced else 5)
    seconds = args.seconds or config["run_seconds"]
    names = [entry["name"] for entry in config["workloads"]]
    section = "per_layer" if traced else "end_to_end"
    metric_units = units(config, section)
    report = {
        "seed": args.seed, "reps": reps, "seconds": seconds,
        "traced": traced, "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(),
                 "ref_rate": hostclock.REF_RATE},
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            runs = []
            for rep in range(reps):
                out = Path(scratch) / f"{name}-{rep}.json"
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(seconds),
                           "--trace", str(int(traced)), "--out", str(out)]
                if args.smoke:
                    command.append("--smoke")
                if args.inject_failure:
                    command += ["--inject-failure", args.inject_failure]
                child = subprocess.run(command, check=False)
                if child.returncode != 0 or not out.exists():
                    status = 1
                    continue
                runs.append(json.loads(out.read_text(encoding="utf-8")))
            report["workloads"][name] = aggregate(runs, metric_units)
            if report["workloads"][name]["failed"]:
                status = 1
    print_report(report, metric_units)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return status


def aggregate(runs: List[Dict[str, Any]],
              metric_units: Dict[str, str]) -> Dict[str, Any]:
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "runs": len(runs),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": {
            name: {"unit": unit, **summarize(
                [run["metrics"][name]["value"] for run in runs])}
            for name, unit in metric_units.items() if runs},
        "checks": runs[0]["checks"] if runs else [],
        "canary_rates": [run["canary"]["mean_rate"] for run in runs],
        "processes": runs[0].get("processes") if runs else None,
    }


def print_report(report: Dict[str, Any],
                 metric_units: Dict[str, str]) -> None:
    print(f"\nseed={report['seed']} reps={report['reps']} "
          f"seconds={report['seconds']} nproc={report['host']['nproc']}")
    for name, result in report["workloads"].items():
        identical = [check["identical"] for check in result["checks"]
                     if check["identical"] is not None]
        print(f"{name}: error_rate {result['error_rate']:.4g} "
              f"({result['failed']}/{result['attempted']}), "
              f"sim_identical {sum(identical)}/{len(identical)}")
        for metric, stats in result["metrics"].items():
            print(f"  {metric:34s} median {stats['median']:>14.6g} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}] "
                  f"n={stats['n']} {metric_units[metric]}")


# ----------------------------------------------------------------------
# Comparing two aggregated reports
# ----------------------------------------------------------------------
def verdict(old: Dict[str, Any], new: Dict[str, Any], bound: float,
            lower_is_better: bool) -> str:
    """``improved``, ``unchanged``, ``regressed`` or ``unresolved``.

    Worse by more than ``bound`` is a regression.  Better counts as an
    improvement only beyond the parent's own quartile spread.  When
    either side's spread exceeds the bound the metric is unresolved,
    unless every new run reads better than every old one.
    """
    sign = 1.0 if lower_is_better else -1.0
    # Positive ``change`` is worse, whichever direction is better.
    change = sign * (new["median"] - old["median"]) / old["median"]
    old_spread, new_spread = ((side["q3"] - side["q1"]) / side["median"]
                              for side in (old, new))
    if max(old_spread, new_spread) > bound:
        every_run_better = (max(sign * v for v in new["values"])
                            < min(sign * v for v in old["values"]))
        return "improved" if every_run_better else "unresolved"
    if change > bound:
        return "regressed"
    if -change > old_spread:
        return "improved"
    return "unchanged"


def compare(old_path: str, new_path: str, config) -> int:
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    declared = {entry["name"]: entry
                for entry in config["end_to_end"] + config["per_layer"]}
    regressed = False
    print(f"{'workload':18s} {'metric':34s} {'old median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s}  verdict")
    for workload, old_result in old["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            print(f"{workload:18s} missing from {new_path}")
            continue
        for metric, old_stats in old_result["metrics"].items():
            new_stats = new_result["metrics"].get(metric)
            entry = declared.get(metric)
            if new_stats is None or entry is None:
                continue
            if "bound" in entry:
                result = verdict(old_stats, new_stats, entry["bound"],
                                 entry["better"] == "lower")
                regressed |= result == "regressed"
            elif entry["unit"] in COUNT_UNITS:
                result = ("same" if old_stats["values"] == new_stats["values"]
                          else "changed")
            else:
                result = "-"
            print(f"{workload:18s} {metric:34s} "
                  f"{_cell(old_stats):>36s} {_cell(new_stats):>36s}  {result}")
    return 1 if regressed else 0


def _cell(stats: Dict[str, Any]) -> str:
    return (f"{stats['median']:.6g} [{stats['q1']:.6g}, "
            f"{stats['q3']:.6g}]")


# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        help="run one workload once (the driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass per run, "
                             "reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, about a second per pass")
    parser.add_argument("--out", help="write the results as JSON here")
    parser.add_argument("--reps", type=int, default=None,
                        help="runs per workload (default 5, traced 1)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files written by --out")
    parser.add_argument("--inject-failure", metavar="WORKLOAD",
                        help="fail one check of WORKLOAD (harness test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        config = load_config()
        for name in (args.workload, args.inject_failure):
            if name is not None and name not in WORKLOADS:
                raise BenchmarkConfigError(
                    f"unknown workload {name!r}; expected one of "
                    f"{', '.join(WORKLOADS)}")
    except BenchmarkConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare, config)
    if not (SRC / "repro").is_dir():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload:
        if args.seconds is None:
            args.seconds = config["run_seconds"]
        return run_workload(args, config)
    return run_suite(args, config)


if __name__ == "__main__":
    sys.exit(main())
