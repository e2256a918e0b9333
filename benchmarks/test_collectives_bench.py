"""Benchmark: collective algorithms' bus bandwidth on the fabric.

Records the collectives datapoint of the bench trajectory
(``benchmarks/results/BENCH_collectives.json``): all-reduce bus
bandwidth per algorithm on a 4-GPU NVLink box and the 16-GPU NVSwitch
box, plus the two headline speedups (chunked ring over the direct bulk
exchange on the PCIe tree; tree over ring at small payloads at scale).
"""

import json
import time

from repro.api import Session
from repro.collectives import supported_algorithms
from repro.hw.platform import PLATFORMS
from repro.units import KiB, MiB

BENCH_PLATFORMS = ("4x_volta", "16x_volta")
BENCH_PAYLOAD = 16 * MiB
BENCH_CHUNK = 256 * KiB


def _sweep():
    busbw = {}
    for name in BENCH_PLATFORMS:
        platform = PLATFORMS[name]
        for algorithm in supported_algorithms("all_reduce",
                                              platform.num_gpus):
            result = Session(platform).collective(
                "all_reduce", BENCH_PAYLOAD, algorithm=algorithm,
                chunk_size=BENCH_CHUNK)
            busbw[f"{name}/{algorithm}"] = round(
                result.bus_bandwidth / 1e9, 3)
    return busbw


def test_collectives_smoke(benchmark, results_dir):
    started = time.perf_counter()
    busbw = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    sweep_s = time.perf_counter() - started

    kepler = PLATFORMS["4x_kepler"]
    ring = Session(kepler).collective(
        "all_reduce", BENCH_PAYLOAD, algorithm="ring", chunk_size=BENCH_CHUNK)
    bulk = Session(kepler).collective(
        "all_reduce", BENCH_PAYLOAD, algorithm="direct",
        chunk_size=BENCH_PAYLOAD)
    volta16 = PLATFORMS["16x_volta"]
    ring_small = Session(volta16).collective(
        "all_reduce", 64 * KiB, algorithm="ring", chunk_size=16 * KiB)
    tree_small = Session(volta16).collective(
        "all_reduce", 64 * KiB, algorithm="tree", chunk_size=16 * KiB)

    assert ring.duration < bulk.duration
    assert tree_small.duration < ring_small.duration
    assert all(value > 0 for value in busbw.values())

    datapoint = {
        "benchmark": "collectives",
        "payload_bytes": BENCH_PAYLOAD,
        "chunk_bytes": BENCH_CHUNK,
        "busbw_gbs": busbw,
        "ring_vs_direct_bulk_4x_kepler": round(
            bulk.duration / ring.duration, 3),
        "tree_vs_ring_small_16x_volta": round(
            ring_small.duration / tree_small.duration, 3),
        "sweep_s": round(sweep_s, 3),
    }
    path = results_dir / "BENCH_collectives.json"
    path.write_text(json.dumps(datapoint, indent=2, sort_keys=True) + "\n")
