"""Ablation studies for PROACT's design choices.

These go beyond the paper's figures to quantify the claims its design
discussion makes:

* **Hardware vs. software PROACT** (Section III-D): how much of the
  remaining gap to the infinite-bandwidth limit the envisioned hardware
  implementation recovers, per platform.
* **More DMA engines don't fix bulk transfers** (Section II-B): giving
  ``cudaMemcpy`` duplication 2-4 copy engines overlaps copies with each
  other, but not with computation — bulk synchrony, not engine count, is
  the bottleneck.
* **Consumer-aware per-peer mappings at scale**: PROACT's per-peer block
  mappings vs. naive full duplication through the same decoupled
  machinery, at high GPU counts.
* **Chunk-granularity sensitivity per application**: the end-to-end
  U-shape (initiation-bound, then bandwidth-bound, then tail-bound) on a
  real workload rather than the microbenchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.core.config import MECH_POLLING, ProactConfig
from repro.core.profiler import run_phases
from repro.experiments.fig7_endtoend import (
    decoupled_config_for,
    single_gpu_runtime,
)
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable, geometric_mean
from repro.hw.platform import (
    FOUR_GPU_PLATFORMS,
    PLATFORM_16X_VOLTA,
    PLATFORM_4X_VOLTA,
    PLATFORM_8X_VOLTA_CUBE,
    PlatformSpec,
)
from repro.paradigms import (
    BulkMemcpyParadigm,
    InfiniteBandwidthParadigm,
    ProactDecoupledParadigm,
    ProactHardwareParadigm,
    ProactInlineParadigm,
)
from repro.units import KiB, MiB
from repro.workloads import PageRankWorkload, Workload, default_workloads


# ---------------------------------------------------------------------------
# Hardware vs software PROACT
# ---------------------------------------------------------------------------

@dataclass
class HardwareAblationResult:
    """Geomean speedups: software PROACT vs hardware PROACT vs limit."""

    platforms: Sequence[str]
    software: Dict[str, float] = field(default_factory=dict)
    hardware: Dict[str, float] = field(default_factory=dict)
    infinite: Dict[str, float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title="Ablation: software vs hardware PROACT (geomean speedup)",
            columns=["platform", "PROACT-SW", "PROACT-HW", "Infinite BW",
                     "gap recovered"])
        for platform in self.platforms:
            table.add_row(platform, self.software[platform],
                          self.hardware[platform], self.infinite[platform],
                          f"{self.gap_recovered(platform):.0%}")
        return table

    def gap_recovered(self, platform: str) -> float:
        """Fraction of (limit - software) the hardware engine recovers."""
        gap = self.infinite[platform] - self.software[platform]
        if gap <= 0:
            return 1.0
        return (self.hardware[platform] - self.software[platform]) / gap


def run_hardware_ablation(
        platforms: Sequence[PlatformSpec] = FOUR_GPU_PLATFORMS,
        workloads: Optional[Sequence[Workload]] = None,
        ) -> HardwareAblationResult:
    workload_list = list(workloads) if workloads else default_workloads()
    result = HardwareAblationResult(
        platforms=[p.name for p in platforms])
    for platform in platforms:
        config = decoupled_config_for(platform)
        software, hardware, infinite = [], [], []
        for workload in workload_list:
            reference = single_gpu_runtime(workload, platform)
            sw_runtime = min(
                ProactDecoupledParadigm(config).execute(
                    workload, platform).runtime,
                ProactInlineParadigm().execute(workload, platform).runtime)
            hw_runtime = ProactHardwareParadigm(
                chunk_size=config.chunk_size).execute(
                workload, platform).runtime
            ideal = InfiniteBandwidthParadigm().execute(
                workload, platform).runtime
            software.append(reference / sw_runtime)
            hardware.append(reference / hw_runtime)
            infinite.append(reference / ideal)
        result.software[platform.name] = geometric_mean(software)
        result.hardware[platform.name] = geometric_mean(hardware)
        result.infinite[platform.name] = geometric_mean(infinite)
    return result


# ---------------------------------------------------------------------------
# DMA engine count
# ---------------------------------------------------------------------------

@dataclass
class DmaEngineAblationResult:
    """cudaMemcpy geomean speedup per copy-engine count."""

    platform: str
    engine_counts: Sequence[int]
    memcpy: Dict[int, float] = field(default_factory=dict)
    proact: float = 0.0

    def table(self) -> TextTable:
        table = TextTable(
            title=("Ablation: cudaMemcpy copy-engine count "
                   f"({self.platform})"),
            columns=["configuration", "geomean speedup"])
        for count in self.engine_counts:
            table.add_row(f"cudaMemcpy, {count} engine(s)",
                          self.memcpy[count])
        table.add_row("PROACT (1 engine-equivalent)", self.proact)
        return table


def run_dma_engine_ablation(
        platform: PlatformSpec = PLATFORM_4X_VOLTA,
        engine_counts: Sequence[int] = (1, 2, 4),
        workloads: Optional[Sequence[Workload]] = None,
        ) -> DmaEngineAblationResult:
    workload_list = list(workloads) if workloads else default_workloads()
    result = DmaEngineAblationResult(
        platform=platform.name, engine_counts=list(engine_counts))
    references = {w.name: single_gpu_runtime(w, platform)
                  for w in workload_list}
    for count in engine_counts:
        speedups = [
            references[w.name] / BulkMemcpyParadigm(dma_engines=count)
            .execute(w, platform).runtime
            for w in workload_list]
        result.memcpy[count] = geometric_mean(speedups)
    config = decoupled_config_for(platform)
    proact = [
        references[w.name] / min(
            ProactDecoupledParadigm(config).execute(w, platform).runtime,
            ProactInlineParadigm().execute(w, platform).runtime)
        for w in workload_list]
    result.proact = geometric_mean(proact)
    return result


# ---------------------------------------------------------------------------
# Consumer-aware per-peer mapping at scale
# ---------------------------------------------------------------------------

@dataclass
class MappingAblationResult:
    """Decoupled PROACT with vs without per-peer consumer mappings."""

    gpu_counts: Sequence[int]
    with_mapping: Dict[int, float] = field(default_factory=dict)
    full_duplication: Dict[int, float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title=("Ablation: per-peer consumer mapping vs full "
                   "duplication (16x Volta, PROACT-decoupled geomean)"),
            columns=["gpus", "per-peer mapping", "full duplication"])
        for count in self.gpu_counts:
            table.add_row(count, self.with_mapping[count],
                          self.full_duplication[count])
        return table


def _force_full_duplication(workload: Workload) -> Workload:
    """Wrap a workload so every peer receives the whole region."""

    class FullDuplication(type(workload)):  # type: ignore[misc]
        def build_phases(self, system):
            phases = super().build_phases(system)
            return [[replace(work, peer_fraction=1.0) for work in works]
                    for works in phases]

    clone = FullDuplication.__new__(FullDuplication)
    clone.__dict__.update(workload.__dict__)
    return clone


def run_mapping_ablation(
        gpu_counts: Sequence[int] = (4, 8, 16),
        workloads: Optional[Sequence[Workload]] = None,
        ) -> MappingAblationResult:
    workload_list = list(workloads) if workloads else default_workloads()
    result = MappingAblationResult(gpu_counts=list(gpu_counts))
    config = decoupled_config_for(PLATFORM_16X_VOLTA)
    references = {w.name: single_gpu_runtime(w, PLATFORM_16X_VOLTA)
                  for w in workload_list}
    for count in gpu_counts:
        platform = PLATFORM_16X_VOLTA.with_num_gpus(count)
        mapped, duplicated = [], []
        for workload in workload_list:
            reference = references[workload.name]
            mapped.append(reference / ProactDecoupledParadigm(
                config).execute(workload, platform).runtime)
            duplicated.append(reference / ProactDecoupledParadigm(
                config).execute(_force_full_duplication(workload),
                                platform).runtime)
        result.with_mapping[count] = geometric_mean(mapped)
        result.full_duplication[count] = geometric_mean(duplicated)
    return result


# ---------------------------------------------------------------------------
# Topology sensitivity: NVSwitch crossbar vs hybrid cube mesh
# ---------------------------------------------------------------------------

@dataclass
class TopologyAblationResult:
    """8-GPU speedups on a crossbar vs a cube mesh (same GPUs)."""

    workloads: Sequence[str]
    switch: Dict[str, float] = field(default_factory=dict)
    cube: Dict[str, float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title=("Ablation: interconnect topology at 8 GPUs "
                   "(PROACT speedup over one GPU)"),
            columns=["app", "NVSwitch crossbar", "hybrid cube mesh"])
        for workload in self.workloads:
            table.add_row(workload, self.switch[workload],
                          self.cube[workload])
        table.add_row("geomean",
                      geometric_mean(list(self.switch.values())),
                      geometric_mean(list(self.cube.values())))
        return table


def run_topology_ablation(
        workloads: Optional[Sequence[Workload]] = None,
        ) -> TopologyAblationResult:
    """PROACT on a DGX-2-style crossbar vs a DGX-1-style cube mesh.

    Same V100s, same aggregate per-GPU bandwidth; the cube mesh splits it
    over four point-to-point links with some two-hop routes, so heavy
    communicators lose — quantifying how much PROACT's gains depend on
    switch-class topologies.
    """
    workload_list = list(workloads) if workloads else default_workloads()
    result = TopologyAblationResult(
        workloads=[w.name for w in workload_list])
    switch_platform = PLATFORM_16X_VOLTA.with_num_gpus(8)
    config = decoupled_config_for(PLATFORM_16X_VOLTA)
    for workload in workload_list:
        reference = single_gpu_runtime(workload, switch_platform)
        switch_runtime = min(
            ProactDecoupledParadigm(config).execute(
                workload, switch_platform).runtime,
            ProactInlineParadigm().execute(
                workload, switch_platform).runtime)
        cube_runtime = min(
            ProactDecoupledParadigm(config).execute(
                workload, PLATFORM_8X_VOLTA_CUBE).runtime,
            ProactInlineParadigm().execute(
                workload, PLATFORM_8X_VOLTA_CUBE).runtime)
        result.switch[workload.name] = reference / switch_runtime
        result.cube[workload.name] = reference / cube_runtime
    return result


# ---------------------------------------------------------------------------
# End-to-end chunk-granularity sensitivity
# ---------------------------------------------------------------------------

@dataclass
class GranularityAblationResult:
    """End-to-end runtime vs chunk size for one app/platform."""

    workload: str
    platform: str
    chunk_sizes: Sequence[int]
    runtimes: Dict[int, float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title=(f"Ablation: chunk granularity for {self.workload} "
                   f"({self.platform}, polling)"),
            columns=["chunk", "runtime (ms)"])
        for size in self.chunk_sizes:
            label = (f"{size // MiB}MB" if size >= MiB
                     else f"{size // KiB}kB")
            table.add_row(label, self.runtimes[size] * 1e3)
        return table

    def best_chunk(self) -> int:
        return min(self.runtimes, key=self.runtimes.get)


def run_granularity_ablation(
        platform: PlatformSpec = PLATFORM_4X_VOLTA,
        workload: Optional[Workload] = None,
        chunk_sizes: Sequence[int] = (
            4 * KiB, 16 * KiB, 128 * KiB, 1 * MiB, 8 * MiB, 32 * MiB),
        threads: int = 2048) -> GranularityAblationResult:
    target = workload or PageRankWorkload()
    result = GranularityAblationResult(
        workload=target.name, platform=platform.name,
        chunk_sizes=list(chunk_sizes))
    for size in chunk_sizes:
        config = ProactConfig(MECH_POLLING, size, threads)
        result.runtimes[size] = run_phases(
            platform, config, target.phase_builder())
    return result


# ---------------------------------------------------------------------------
# Registry entry point
# ---------------------------------------------------------------------------

def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    hardware = run_hardware_ablation()
    dma = run_dma_engine_ablation()
    mapping = run_mapping_ablation()
    topology = run_topology_ablation()
    granularity = run_granularity_ablation()
    return ExperimentResult.build(
        "ablations", "Ablations",
        [hardware.table(), dma.table(), mapping.table(), topology.table(),
         granularity.table()],
        {"hw_gap_recovered_4x_volta": hardware.gap_recovered("4x_volta"),
         "proact_vs_4_dma_engines": dma.proact / dma.memcpy[4],
         "mapping_gain_16": (mapping.with_mapping[16]
                             / mapping.full_duplication[16]),
         # Exact, since at 4 GPUs the two must be equal, not just print so.
         "per_peer_mapping_4": mapping.with_mapping[4],
         "full_duplication_4": mapping.full_duplication[4],
         "best_chunk_bytes": granularity.best_chunk()})
