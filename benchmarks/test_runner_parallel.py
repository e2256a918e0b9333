"""Benchmark: warm-worker parallel profiler sweeps vs. serial.

The original datapoint on this trajectory measured the *experiment
runner* at ``--jobs 2`` and found the process pool slower than serial
(0.85x): every task re-pickled the whole platform and the pool was
respawned per wave.  The warm-worker protocol (ship the sweep context
once at pool init, stream batched config deltas) is supposed to fix
that, so this bench now measures the thing that actually fans out — a
full profiler sweep — at ``jobs=4`` on a grid more than ten times the
old bench's task count, and records the trajectory in
``benchmarks/results/BENCH_runner_parallel.json``.

Two gates ride on the numbers:

* correctness, always: the parallel sweep must reproduce the serial
  entries byte-for-byte (same configs, same runtimes, same order), and
  the search autotuner must land on the same argmin;
* speed, on real hardware: >= 3x at 4 jobs.  The speedup assertion is
  enforced in-test only when the host has >= 4 CPUs (the JSON records
  ``gate_enforced`` either way); the CI job additionally asserts the
  recorded speedup so the gate is blocking where it is meaningful.
"""

import json
import os
import time

from repro.core.profiler import Profiler
from repro.hw import platform_by_name
from repro.obs import capture
from repro.units import KiB, MiB
from repro.workloads import PageRankWorkload

#: 7 chunk sizes x 8 thread counts x 2 decoupled mechanisms + inline
#: = 113 configurations — >10x the old 3-experiment bench and >10x the
#: engine bench's 17-point sweep.
SWEEP_CHUNKS = (16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB,
                1 * MiB, 4 * MiB, 16 * MiB)
SWEEP_THREADS = (32, 128, 256, 512, 1024, 2048, 4096, 8192)
MIN_SWEEP_CONFIGS = 100

BENCH_JOBS = 4
REQUIRED_SPEEDUP = 3.0
#: Sweep telemetry (capture()) may cost at most 5% wall clock.
MAX_TELEMETRY_OVERHEAD = 1.05


def _workload():
    """Test-sized PageRank: representative phases, ~tens of ms a run."""
    return PageRankWorkload(num_vertices=2_000_000, num_edges=60_000_000,
                            iterations=2)


def _profiler_kwargs():
    return dict(chunk_sizes=SWEEP_CHUNKS, thread_counts=SWEEP_THREADS,
                search="exhaustive")


def test_warm_worker_sweep_speedup(benchmark, results_dir):
    platform = platform_by_name("4x_volta")
    builder = _workload().phase_builder()

    started = time.perf_counter()
    serial = Profiler(platform, **_profiler_kwargs()).profile(builder)
    serial_s = time.perf_counter() - started
    assert len(serial.entries) >= MIN_SWEEP_CONFIGS

    parallel_profiler = Profiler(platform, jobs=BENCH_JOBS,
                                 **_profiler_kwargs())
    parallel = benchmark.pedantic(
        parallel_profiler.profile, args=(builder,), rounds=1, iterations=1)
    parallel_s = benchmark.stats.stats.total

    # Correctness gate: byte-identical entries, hence identical argmin.
    assert parallel.entries == serial.entries
    assert parallel.best == serial.best

    # The search autotuner on the same grid: same argmin, fewer runs.
    search_started = time.perf_counter()
    searched = Profiler(platform, chunk_sizes=SWEEP_CHUNKS,
                        thread_counts=SWEEP_THREADS, search="search",
                        jobs=BENCH_JOBS).profile(builder)
    search_s = time.perf_counter() - search_started
    assert searched.best.config == serial.best.config
    assert searched.best.runtime == serial.best.runtime
    assert len(searched.entries) <= len(serial.entries)

    cpus = os.cpu_count() or 1
    gate_enforced = cpus >= BENCH_JOBS
    speedup = serial_s / parallel_s

    datapoint = {
        "benchmark": "runner_parallel",
        "sweep_configs": len(serial.entries),
        "jobs": BENCH_JOBS,
        "cpu_count": cpus,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "required_speedup": REQUIRED_SPEEDUP,
        "gate_enforced": gate_enforced,
        "identical_entries": True,
        "best": serial.best.config.label(),
        "best_runtime": serial.best.runtime,
        "search_s": round(search_s, 3),
        "search_measured": len(searched.entries),
        "search_floor_runs": searched.floor_runs,
        "search_argmin_identical": True,
    }
    path = results_dir / "BENCH_runner_parallel.json"
    path.write_text(json.dumps(datapoint, indent=2, sort_keys=True) + "\n")

    # Speed gate: only meaningful with enough cores to actually fan out
    # (the container this repo is often developed in has one CPU); CI
    # re-asserts the recorded speedup on its 4-vCPU runners.
    if gate_enforced:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"warm-worker sweep only {speedup:.2f}x faster than serial "
            f"at {BENCH_JOBS} jobs (needed {REQUIRED_SPEEDUP}x)")


def test_sweep_telemetry_coverage_and_overhead(results_dir):
    """Acceptance gate for ``capture()`` on the full grid.

    The 113-config parallel sweep under sweep telemetry must produce a
    Perfetto document with one activity lane per worker and a decision
    log whose measure+prune counts exactly cover the grid — while the
    sweep's entries stay byte-identical to an untelemetered run and the
    wall-clock overhead stays within ``MAX_TELEMETRY_OVERHEAD`` (the
    overhead gate, like the speedup gate above, is enforced in-test
    only on hosts with enough cores to make the timing meaningful).
    """
    platform = platform_by_name("4x_volta")
    builder = _workload().phase_builder()

    def sweep():
        return Profiler(platform, jobs=BENCH_JOBS,
                        **_profiler_kwargs()).profile(builder)

    started = time.perf_counter()
    plain = sweep()
    off_s = time.perf_counter() - started
    grid = len(plain.entries)
    assert grid >= MIN_SWEEP_CONFIGS  # the 113-config grid

    started = time.perf_counter()
    with capture() as observation:
        traced = sweep()
    on_s = time.perf_counter() - started

    # Telemetry must never perturb the sweep itself.
    assert traced.entries == plain.entries
    assert traced.best == plain.best

    # Decision log covers the grid exactly: every candidate ends in
    # exactly one measure or prune event, and the final incumbent is
    # the sweep's actual winner.
    decisions = observation.decisions
    measured = decisions.count("measure")
    pruned = decisions.count("prune")
    assert measured + pruned == grid
    assert measured == len(traced.entries)
    assert decisions.final_incumbent().config == traced.best.config.label()

    cpus = os.cpu_count() or 1
    gate_enforced = cpus >= BENCH_JOBS
    lanes = sorted({channel
                    for channel in observation.ambient_tracer.channels()
                    if channel.startswith("sweep.worker")})
    assert len(lanes) >= 1
    if gate_enforced:
        assert len(lanes) == BENCH_JOBS  # one lane per worker process

    # The exported Perfetto document carries the lanes and the
    # decision channel as their own tracks.
    document = observation.chrome_trace()
    tids = {event["tid"] for event in document["traceEvents"]}
    assert set(lanes) <= tids
    assert "decision" in tids

    overhead = on_s / off_s
    datapoint = {
        "benchmark": "sweep_telemetry",
        "sweep_configs": grid,
        "jobs": BENCH_JOBS,
        "cpu_count": cpus,
        "telemetry_off_s": round(off_s, 3),
        "telemetry_on_s": round(on_s, 3),
        "overhead": round(overhead, 3),
        "max_overhead": MAX_TELEMETRY_OVERHEAD,
        "gate_enforced": gate_enforced,
        "identical_entries": True,
        "worker_lanes": len(lanes),
        "decisions_measured": measured,
        "decisions_pruned": pruned,
        "decision_events": len(decisions),
    }
    path = results_dir / "BENCH_sweep_telemetry.json"
    path.write_text(json.dumps(datapoint, indent=2, sort_keys=True) + "\n")

    if gate_enforced:
        assert overhead <= MAX_TELEMETRY_OVERHEAD, (
            f"sweep telemetry costs {overhead:.3f}x wall clock "
            f"(allowed {MAX_TELEMETRY_OVERHEAD}x)")
