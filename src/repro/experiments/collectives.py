"""Collectives: nccl-tests-style bus-bandwidth tables per platform.

For every Table I system this harness sweeps the all-reduce payload
range, tunes each algorithm's chunk size with the
:class:`~repro.collectives.tuner.CollectiveTuner`, and prints one
bus-bandwidth table per platform in the format ``nccl-tests`` made
canonical: one row per payload size, one column per algorithm, bandwidth
normalized so a bandwidth-optimal algorithm scores the same number at
any GPU count.  A final table runs the data-parallel training step
(:mod:`repro.workloads.dataparallel`) with the tuned pick on every
platform and reports the compute/communication split.

Key scalars (what the regression assertions hang off):

* ``ring_vs_direct_large_4x_kepler`` — chunked-ring speedup over the
  direct bulk exchange at the largest payload on the PCIe tree, the
  platform where a naive all-to-all hammers the shared root links.
* ``tree_vs_ring_small_16x_volta`` — tree speedup over ring at the
  smallest payload on the 16-GPU NVSwitch box, where the ring's
  2(N-1) latency hops dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.api import Session
from repro.collectives.algorithms import supported_algorithms
from repro.collectives.schedule import COLL_ALL_REDUCE
from repro.collectives.tuner import CollectiveTuner
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import PLATFORMS, PlatformSpec
from repro.units import KiB, MiB
from repro.workloads.dataparallel import DataParallelTraining, run_training

#: The four Table I systems, in the paper's order.
PLATFORM_NAMES: Tuple[str, ...] = (
    "4x_kepler", "4x_pascal", "4x_volta", "16x_volta")

#: Payload sizes swept (nccl-tests sweeps powers of two; this is the
#: subset spanning the latency-bound to bandwidth-bound regimes).
FULL_PAYLOADS: Tuple[int, ...] = (
    16 * KiB, 256 * KiB, 1 * MiB, 16 * MiB, 64 * MiB)
QUICK_PAYLOADS: Tuple[int, ...] = (16 * KiB, 1 * MiB, 16 * MiB)

#: Chunk-size grids the tuner explores per algorithm.
FULL_CHUNKS: Tuple[int, ...] = (
    16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 1 * MiB, 4 * MiB)
QUICK_CHUNKS: Tuple[int, ...] = (64 * KiB, 256 * KiB, 1 * MiB)

def _allreduce_busbw(num_gpus: int, nbytes: int, runtime: float) -> float:
    """nccl-tests' all-reduce bus bandwidth: algbw scaled by 2(N-1)/N."""
    if runtime <= 0:
        return 0.0
    factor = 2.0 * (num_gpus - 1) / num_gpus if num_gpus > 1 else 1.0
    return nbytes / runtime * factor


def _payload_label(size: int) -> str:
    if size >= MiB:
        return f"{size // MiB}MB"
    return f"{size // KiB}kB"


@dataclass
class CollectivesResult:
    """Tuned all-reduce bus bandwidth per (platform, payload, algorithm)."""

    payloads: Sequence[int]
    platforms: Sequence[str]
    #: (platform, payload, algorithm) -> bus bandwidth, bytes/s.
    busbw: Dict[Tuple[str, int, str], float]
    #: (platform, payload) -> winning "algorithm@chunk" label.
    winners: Dict[Tuple[str, int], str]
    #: platform -> algorithms swept there (tree needs a power of two).
    algorithms: Dict[str, Sequence[str]]

    def table(self, platform: str) -> TextTable:
        algorithms = list(self.algorithms[platform])
        table = TextTable(
            title=f"Collectives: all-reduce bus bandwidth GB/s ({platform})",
            columns=["payload", *algorithms, "best"])
        for payload in self.payloads:
            cells = [self.busbw[(platform, payload, algorithm)] / 1e9
                     for algorithm in algorithms]
            table.add_row(_payload_label(payload), *cells,
                          self.winners[(platform, payload)])
        return table

    def tables(self) -> List[TextTable]:
        return [self.table(platform) for platform in self.platforms]

    def speedup(self, platform: str, payload: int,
                algorithm: str, over: str) -> float:
        """How much faster ``algorithm`` is than ``over`` (busbw ratio)."""
        return (self.busbw[(platform, payload, algorithm)]
                / self.busbw[(platform, payload, over)])


def run(platform_names: Sequence[str] = PLATFORM_NAMES,
        payloads: Sequence[int] = FULL_PAYLOADS,
        chunk_sizes: Sequence[int] = FULL_CHUNKS) -> CollectivesResult:
    """Tune and measure the all-reduce sweep."""
    busbw: Dict[Tuple[str, int, str], float] = {}
    winners: Dict[Tuple[str, int], str] = {}
    algorithms: Dict[str, Sequence[str]] = {}
    for name in platform_names:
        platform = PLATFORMS[name]
        algorithms[name] = supported_algorithms(
            COLL_ALL_REDUCE, platform.num_gpus)
        tuner = CollectiveTuner(platform, COLL_ALL_REDUCE,
                                chunk_sizes=chunk_sizes)
        for payload in payloads:
            sweep = tuner.tune(payload)
            for algorithm in algorithms[name]:
                best = sweep.best_for_algorithm(algorithm)
                busbw[(name, payload, algorithm)] = _allreduce_busbw(
                    platform.num_gpus, payload, best.runtime)
            pick = sweep.best
            winners[(name, payload)] = \
                f"{pick.algorithm}@{_payload_label(pick.chunk_size)}"
    return CollectivesResult(
        payloads=list(payloads), platforms=list(platform_names),
        busbw=busbw, winners=winners, algorithms=algorithms)


def training_table(platform_names: Sequence[str],
                   result: CollectivesResult,
                   model_bytes: int, steps: int) -> TextTable:
    """Data-parallel step timing under each platform's tuned pick."""
    from repro.runtime.system import System
    table = TextTable(
        title=(f"Data-parallel training: {_payload_label(model_bytes)} "
               f"gradients, tuned all-reduce"),
        columns=["platform", "pick", "step ms", "compute ms", "comm ms",
                 "comm %"])
    workload = DataParallelTraining(model_bytes=model_bytes, steps=steps)
    payload = min(result.payloads,
                  key=lambda size: abs(size - model_bytes))
    for name in platform_names:
        algorithm, chunk_label = result.winners[(name, payload)].split("@")
        chunk = _parse_label(chunk_label)
        system = System(PLATFORMS[name])
        run_result = run_training(system, workload, algorithm=algorithm,
                                  chunk_size=chunk)
        per_step = run_result.total_time / steps
        table.add_row(
            name, result.winners[(name, payload)], per_step * 1e3,
            run_result.compute_time / steps * 1e3,
            run_result.comm_time / steps * 1e3,
            run_result.comm_fraction * 100.0)
    return table


def _parse_label(label: str) -> int:
    if label.endswith("MB"):
        return int(label[:-2]) * MiB
    if label.endswith("kB"):
        return int(label[:-2]) * KiB
    raise ValueError(f"unparseable size label {label!r}")


def direct_bulk_runtime(platform: PlatformSpec, nbytes: int) -> float:
    """The unchunked direct exchange: one bulk message per peer pair."""
    return Session(platform).collective(
        COLL_ALL_REDUCE, nbytes, algorithm="direct",
        chunk_size=nbytes).duration


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    payloads = QUICK_PAYLOADS if ctx.quick else FULL_PAYLOADS
    chunks = QUICK_CHUNKS if ctx.quick else FULL_CHUNKS
    result = run(payloads=payloads, chunk_sizes=chunks)

    large = max(payloads)
    small = min(payloads)
    kepler_ring = Session(PLATFORMS["4x_kepler"]).collective(
        COLL_ALL_REDUCE, large, algorithm="ring",
        chunk_size=min(chunks)).duration
    kepler_bulk = direct_bulk_runtime(PLATFORMS["4x_kepler"], large)

    tables = result.tables()
    tables.append(training_table(
        PLATFORM_NAMES, result,
        model_bytes=16 * MiB if ctx.quick else 64 * MiB,
        steps=2 if ctx.quick else 4))
    return ExperimentResult.build(
        "collectives", "Collectives", tables,
        {"ring_vs_direct_large_4x_kepler": kepler_bulk / kepler_ring,
         "tree_vs_ring_small_16x_volta": result.speedup(
             "16x_volta", small, "tree", "ring"),
         "best_busbw_16x_volta_gbs": max(
             result.busbw[("16x_volta", large, algorithm)]
             for algorithm in result.algorithms["16x_volta"]) / 1e9})
