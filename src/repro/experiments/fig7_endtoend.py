"""Figure 7: 4-GPU speedup of every application under each data-transfer
method, for the three 4-GPU platforms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable, geometric_mean
from repro.hw.platform import FOUR_GPU_PLATFORMS, PlatformSpec
from repro.paradigms import (
    BulkMemcpyParadigm,
    InfiniteBandwidthParadigm,
    Paradigm,
    ProactDecoupledParadigm,
    ProactInlineParadigm,
    UnifiedMemoryParadigm,
)
from repro.paradigms.proact import decoupled_config_for
from repro.workloads import Workload, default_workloads

#: Paradigm display order, matching the figure's bar order.
PARADIGM_ORDER = ("cudaMemcpy", "UM", "PROACT-inline", "PROACT-decoupled",
                  "Infinite BW")


def paradigms_for(platform: PlatformSpec) -> List[Paradigm]:
    """The five paradigms of Section IV-B for one platform."""
    return [
        BulkMemcpyParadigm(),
        UnifiedMemoryParadigm(),
        ProactInlineParadigm(),
        ProactDecoupledParadigm(decoupled_config_for(platform)),
        InfiniteBandwidthParadigm(),
    ]


def single_gpu_runtime(workload: Workload, platform: PlatformSpec) -> float:
    """Single-GPU reference runtime (no communication)."""
    return InfiniteBandwidthParadigm().execute(
        workload, platform.with_num_gpus(1)).runtime


@dataclass
class Figure7Result:
    """Speedups over single GPU per (platform, workload, paradigm)."""

    platforms: Sequence[str]
    workloads: Sequence[str]
    speedups: Dict[Tuple[str, str, str], float] = field(default_factory=dict)

    def table(self, platform: str) -> TextTable:
        table = TextTable(
            title=f"Figure 7: 4-GPU speedup over one GPU ({platform})",
            columns=["app", *PARADIGM_ORDER, "PROACT(best)"])
        for workload in self.workloads:
            row = [self.speedups[(platform, workload, paradigm)]
                   for paradigm in PARADIGM_ORDER]
            table.add_row(workload, *row,
                          self.proact_best(platform, workload))
        geo = [self.geomean(platform, paradigm)
               for paradigm in PARADIGM_ORDER]
        table.add_row("geomean", *geo, self.proact_geomean(platform))
        return table

    def tables(self) -> List[TextTable]:
        return [self.table(platform) for platform in self.platforms]

    def proact_best(self, platform: str, workload: str) -> float:
        """PROACT as deployed: the better of inline and decoupled."""
        return max(self.speedups[(platform, workload, "PROACT-inline")],
                   self.speedups[(platform, workload, "PROACT-decoupled")])

    def geomean(self, platform: str, paradigm: str) -> float:
        return geometric_mean([
            self.speedups[(platform, workload, paradigm)]
            for workload in self.workloads])

    def proact_geomean(self, platform: str) -> float:
        return geometric_mean([
            self.proact_best(platform, workload)
            for workload in self.workloads])

    def opportunity_capture(self, platform: str) -> float:
        """Fraction of the infinite-BW opportunity PROACT captures."""
        return (self.proact_geomean(platform)
                / self.geomean(platform, "Infinite BW"))


def run(platforms: Sequence[PlatformSpec] = FOUR_GPU_PLATFORMS,
        workloads: Optional[Sequence[Workload]] = None) -> Figure7Result:
    """Regenerate Figure 7."""
    workload_list = list(workloads) if workloads else default_workloads()
    result = Figure7Result(
        platforms=[p.name for p in platforms],
        workloads=[w.name for w in workload_list])
    for platform in platforms:
        for workload in workload_list:
            reference = single_gpu_runtime(workload, platform)
            for paradigm in paradigms_for(platform):
                outcome = paradigm.execute(workload, platform)
                result.speedups[
                    (platform.name, workload.name, paradigm.name)] = (
                    reference / outcome.runtime)
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run()
    return ExperimentResult.build(
        "fig7", "Figure 7", result.tables(),
        {"proact_geomean_4x_volta": result.proact_geomean("4x_volta"),
         "opportunity_capture_4x_volta":
             result.opportunity_capture("4x_volta")})
