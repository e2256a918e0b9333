"""Benchmark: runtime overhead of the simulation sanitizers.

Records the validation datapoint of the bench trajectory
(``benchmarks/results/BENCH_validate.json``): wall time of a fixed
multi-phase decoupled workload with the readiness sanitizer plus
conservation checker off vs on.  The sanitizer is pure bookkeeping per
already-emitted event, so the overhead budget is well under 2x — CI
fails this benchmark if validation ever becomes too expensive to leave
on in the smoke suite.
"""

import json
import time

from repro.api import Session
from repro.core import MECH_POLLING, ProactConfig, ProactPhaseExecutor
from repro.hw import PLATFORM_4X_VOLTA
from repro.runtime import KernelSpec
from repro.core.runtime import GpuPhaseWork
from repro.units import KiB, MiB
from repro.validate import validation

NUM_PHASES = 6
REGION_BYTES = 16 * MiB
CHUNK = 128 * KiB  # 128 chunks/phase: enough hook traffic to measure
REPEATS = 3


def _run_workload():
    session = Session(PLATFORM_4X_VOLTA)
    system = session.system()
    executor = ProactPhaseExecutor(
        system, ProactConfig(MECH_POLLING, CHUNK, 2048))
    flops = system.gpus[0].spec.flops * 2e-3
    for _ in range(NUM_PHASES):
        works = [GpuPhaseWork(
            kernel=KernelSpec("produce", flops, 0, 8192),
            region_bytes=REGION_BYTES)]
        works += [GpuPhaseWork(kernel=KernelSpec("other", flops, 0, 8192))
                  for _ in range(system.num_gpus - 1)]
        system.run(until=executor.execute(works))
    session.finish(system)
    return system


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_sanitizer_overhead_stays_bounded(results_dir):
    baseline_s = _best_of(REPEATS, _run_workload)

    def validated():
        with validation() as scope:
            system = _run_workload()
        summary = scope.summary()
        assert summary["violations"] == 0
        assert summary["phases_checked"] == NUM_PHASES
        assert system.checker.checks_run >= NUM_PHASES
        return summary

    validate_s = _best_of(REPEATS, validated)
    overhead = validate_s / baseline_s

    datapoint = {
        "benchmark": "validate_overhead",
        "phases": NUM_PHASES,
        "region_bytes": REGION_BYTES,
        "chunk_bytes": CHUNK,
        "baseline_s": round(baseline_s, 4),
        "validate_s": round(validate_s, 4),
        "overhead_ratio": round(overhead, 3),
    }
    path = results_dir / "BENCH_validate.json"
    path.write_text(json.dumps(datapoint, indent=2, sort_keys=True) + "\n")

    # The acceptance bar: sanitizer-on must stay under 2x sanitizer-off.
    assert overhead < 2.0, datapoint
