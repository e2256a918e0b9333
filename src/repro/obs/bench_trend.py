"""Aggregate ``BENCH_*.json`` files into one perf-trajectory table.

The perf benches (``benchmarks/test_engine_perf.py``,
``benchmarks/test_runner_parallel.py``, ...) each persist a small JSON
summary under ``benchmarks/results/``.  Individually those files gate
CI; collectively they are the repo's performance trajectory — but
nobody reads a directory of JSON blobs.  This helper flattens them into
a single table::

    python -m repro.obs.bench_trend benchmarks/results

Every numeric/boolean scalar in each file becomes a column candidate; a
curated headline set is printed first so the table stays readable, and
``--all`` (or ``--json``) exposes everything.  Exits non-zero when the
directory holds no ``BENCH_*.json`` at all, so a CI step wired to it
fails loudly if the benches silently stopped writing results.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

#: Columns shown (when present) in the default compact table, in order.
HEADLINE_KEYS = (
    "speedup", "total_speedup", "engine_speedup", "events_per_sec",
    "serial_s", "parallel_s", "sweep_s", "search_s", "sweep_configs",
    "gate_enforced", "hier_vs_ring_1024gpu", "hier_busbw_1024gpu_gbs",
    "decoupled_agent_importance", "write_coalescing_importance",
    "all_on_identical",
)


def load_bench_results(directory: pathlib.Path) -> List[Dict[str, Any]]:
    """Every ``BENCH_*.json`` under ``directory``, sorted by filename."""
    results = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        payload.setdefault("benchmark",
                           path.stem.replace("BENCH_", "", 1))
        payload["_file"] = path.name
        results.append(payload)
    return results


def trend_table(results: Sequence[Dict[str, Any]],
                show_all: bool = False) -> str:
    """Render the trajectory as one aligned text table."""
    if show_all:
        keys: List[str] = []
        for payload in results:
            for key in sorted(payload):
                if key.startswith("_") or key == "benchmark":
                    continue
                if key not in keys:
                    keys.append(key)
    else:
        present = set()
        for payload in results:
            present.update(payload)
        keys = [key for key in HEADLINE_KEYS if key in present]
    headers = ["benchmark"] + keys
    rows = [[str(payload.get("benchmark", "?"))]
            + [_render(payload.get(key)) for key in keys]
            for payload in results]
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(header.ljust(width)
                       for header, width in zip(headers, widths)),
             "  ".join("-" * width for width in widths)]
    lines.extend("  ".join(cell.ljust(width)
                           for cell, width in zip(row, widths))
                 for row in rows)
    return "\n".join(lines)


def _render(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench_trend",
        description="Flatten BENCH_*.json files into one trend table.")
    parser.add_argument(
        "directory", nargs="?", default="benchmarks/results",
        help="directory holding BENCH_*.json files "
             "(default: benchmarks/results)")
    parser.add_argument(
        "--all", action="store_true",
        help="show every recorded scalar, not just the headline columns")
    parser.add_argument(
        "--json", metavar="PATH",
        help="additionally write the aggregated results as JSON to PATH")
    args = parser.parse_args(argv)

    directory = pathlib.Path(args.directory)
    results = load_bench_results(directory)
    if not results:
        print(f"no BENCH_*.json files under {directory}", file=sys.stderr)
        return 1
    print(trend_table(results, show_all=args.all))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps({"benchmarks": results}, indent=2, sort_keys=True)
            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
