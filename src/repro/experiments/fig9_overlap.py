"""Figure 9: fraction of transfer time PROACT overlaps with computation.

Methodology (Section V-C): run each application with PROACT's
instrumentation and initiation overheads but with the transfer stores
elided; the runtime difference against the full run is the *exposed*
(non-overlapped) transfer time.  The overlap fraction compares that to
the baseline ``cudaMemcpy`` duplication time, which achieves no overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import FOUR_GPU_PLATFORMS, PlatformSpec
from repro.paradigms import (
    BulkMemcpyParadigm,
    InfiniteBandwidthParadigm,
    ProactDecoupledParadigm,
)
from repro.paradigms.proact import decoupled_config_for
from repro.workloads import Workload, default_workloads


@dataclass
class Figure9Result:
    """Overlap fraction per (platform, workload)."""

    platforms: Sequence[str]
    workloads: Sequence[str]
    overlap: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title="Figure 9: fraction of transfer time hidden by PROACT",
            columns=["app", *self.platforms])
        for workload in self.workloads:
            table.add_row(workload, *(
                self.overlap[(platform, workload)]
                for platform in self.platforms))
        return table

    def minimum(self) -> float:
        return min(self.overlap.values())


def run(platforms: Sequence[PlatformSpec] = FOUR_GPU_PLATFORMS,
        workloads: Optional[Sequence[Workload]] = None) -> Figure9Result:
    """Regenerate Figure 9."""
    workload_list = list(workloads) if workloads else default_workloads()
    result = Figure9Result(
        platforms=[p.name for p in platforms],
        workloads=[w.name for w in workload_list])
    for platform in platforms:
        config = decoupled_config_for(platform)
        for workload in workload_list:
            full = ProactDecoupledParadigm(config).execute(
                workload, platform).runtime
            elided = ProactDecoupledParadigm(
                config, elide_transfers=True).execute(
                workload, platform).runtime
            exposed = max(0.0, full - elided)
            # Baseline duplication (copy) time: bulk total minus compute.
            bulk = BulkMemcpyParadigm().execute(workload, platform).runtime
            compute_only = InfiniteBandwidthParadigm().execute(
                workload, platform).runtime
            duplication_time = max(bulk - compute_only, 1e-12)
            result.overlap[(platform.name, workload.name)] = max(
                0.0, min(1.0, 1.0 - exposed / duplication_time))
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run()
    mean = sum(result.overlap.values()) / len(result.overlap)
    return ExperimentResult.build(
        "fig9", "Figure 9", [result.table()],
        {"min_overlap": result.minimum(), "mean_overlap": mean})
