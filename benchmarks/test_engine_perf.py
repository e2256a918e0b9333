"""Benchmark: the PR 5 hot-path overhaul, gated on result identity.

Three numbers, written to ``benchmarks/results/BENCH_engine.json``:

* raw engine event throughput (a timeout-chained process mesh);
* the reference profiler sweep's wall time (exhaustive, unpruned) —
  the same sweep measured at the pre-PR commit, so the ratio is the
  speedup from the engine/interconnect/fluid fast paths alone;
* the same grid under the floor-seeded ``search`` autotuner, which
  skips candidates by their infinite-bandwidth lower bound — the
  headline speedup the overhaul ships.

The speedup gate is only meaningful because the *results* are pinned:
the sweep must reproduce the pre-PR best configuration and its runtime
bit-for-bit, and every entry the search measures must match the
exhaustive sweep's entry for the same configuration.  A fast simulator that simulates something else would fail here
first.

Pre-PR reference: commit 3808a03 ("Add simulation correctness layer"),
re-measured on an idle reference container when this job became
blocking.  Because an absolute wall-clock baseline only holds on the
machine that recorded it, the gate normalizes by a **machine canary**:
``BASELINE_EVENTS_PER_SEC`` is the bare-engine throughput of the
*current* code on that same reference container, so the ratio of the
canary re-measured here to the pinned value is purely the host's speed
(identical code on both sides) and rescales the baseline to this host.
"""

import json
import time

from repro.core.profiler import Profiler
from repro.hw import platform_by_name
from repro.sim.engine import Engine
from repro.workloads import PageRankWorkload

#: Measured at the pre-PR commit with this exact file's sweep spec.
BASELINE_SWEEP_S = 15.81
#: Machine canary: current-code engine throughput on the reference
#: container (same code as this checkout, so cross-host ratios are pure
#: machine speed).
BASELINE_EVENTS_PER_SEC = 580_000
#: The pre-PR sweep's answer; simulated results must not move.
BASELINE_BEST_LABEL = "D 64kB 2048 Poll"
BASELINE_BEST_RUNTIME = 0.01023327967536232

SWEEP_CHUNKS = (65536, 262144, 1048576, 4194304)
SWEEP_THREADS = (512, 2048)

#: Acceptance floor: profiler sweep at least this much faster end-to-end.
REQUIRED_SPEEDUP = 1.5


def _spin(engine, n):
    for _ in range(n):
        yield engine.timeout(1e-6)


def events_per_sec() -> float:
    """Throughput of the bare engine on a 50 x 2000 timeout mesh."""
    engine = Engine()
    for _ in range(50):
        engine.process(_spin(engine, 2000))
    t0 = time.perf_counter()
    engine.run()
    return engine.events_fired / (time.perf_counter() - t0)


def _sweep(search: str):
    profiler = Profiler(platform_by_name("4x_volta"),
                        chunk_sizes=SWEEP_CHUNKS,
                        thread_counts=SWEEP_THREADS, search=search)
    builder = PageRankWorkload().phase_builder()
    t0 = time.perf_counter()
    result = profiler.profile(builder)
    return result, time.perf_counter() - t0


def test_engine_perf_overhaul(benchmark, results_dir):
    result, unpruned_s = _sweep("exhaustive")

    # Byte-identity first: the optimized hot paths must reproduce the
    # pre-PR sweep exactly — same winner, bitwise-equal runtime, full
    # grid measured.
    assert result.best_config.label() == BASELINE_BEST_LABEL
    assert result.best.runtime == BASELINE_BEST_RUNTIME
    assert len(result.entries) == 1 + 2 * len(SWEEP_CHUNKS) * len(SWEEP_THREADS)

    pruned, pruned_s = benchmark.pedantic(
        _sweep, args=("search",), rounds=1, iterations=1)
    assert pruned.best.config == result.best.config
    assert pruned.best.runtime == result.best.runtime
    measured = {entry.config: entry.runtime for entry in result.entries}
    for entry in pruned.entries:
        assert measured[entry.config] == entry.runtime
    assert len(pruned.entries) + pruned.pruned_configs == len(result.entries)

    eps = events_per_sec()
    # Rescale the pinned baseline to this host: the canary ran the same
    # engine code on the reference container, so the ratio is machine
    # speed, not a property of the change under test.
    machine_factor = eps / BASELINE_EVENTS_PER_SEC
    effective_baseline_s = BASELINE_SWEEP_S * machine_factor
    engine_speedup = effective_baseline_s / unpruned_s
    total_speedup = effective_baseline_s / pruned_s

    datapoint = {
        "benchmark": "engine_perf",
        "baseline_commit": "3808a03",
        "baseline_sweep_s": BASELINE_SWEEP_S,
        "machine_factor": round(machine_factor, 3),
        "effective_baseline_s": round(effective_baseline_s, 3),
        "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC,
        "events_per_sec": round(eps),
        "events_per_sec_speedup": round(eps / BASELINE_EVENTS_PER_SEC, 3),
        "sweep_s": round(unpruned_s, 3),
        "sweep_pruned_s": round(pruned_s, 3),
        "engine_speedup": round(engine_speedup, 3),
        "total_speedup": round(total_speedup, 3),
        "pruned_configs": pruned.pruned_configs,
        "floor_runs": pruned.floor_runs,
        "best": result.best_config.label(),
        "best_runtime": result.best.runtime,
        "identical_results": True,
    }
    path = results_dir / "BENCH_engine.json"
    path.write_text(json.dumps(datapoint, indent=2, sort_keys=True) + "\n")

    # The engine fast paths alone must never regress the sweep, and the
    # full overhaul (fast paths + search) must clear the acceptance bar.
    assert engine_speedup > 1.0, (
        f"unpruned sweep regressed: {unpruned_s:.2f}s vs "
        f"baseline {BASELINE_SWEEP_S:.2f}s")
    assert total_speedup >= REQUIRED_SPEEDUP, (
        f"overhauled sweep only {total_speedup:.2f}x faster than the "
        f"pre-PR baseline (needed {REQUIRED_SPEEDUP}x)")
