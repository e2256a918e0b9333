"""Figure 8: compute slowdown caused by PROACT's decoupled tracking.

Methodology (Section V-C): run each application with all PROACT
instrumentation and initiation overheads but with the actual data
transfers elided, and compare against the theoretical infinite-bandwidth
runtime.  The difference is the software cost of tracking data readiness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import FOUR_GPU_PLATFORMS, PlatformSpec
from repro.paradigms import InfiniteBandwidthParadigm, ProactDecoupledParadigm
from repro.paradigms.proact import decoupled_config_for
from repro.workloads import Workload, default_workloads


@dataclass
class Figure8Result:
    """Tracking overhead fraction per (platform, workload)."""

    platforms: Sequence[str]
    workloads: Sequence[str]
    overhead: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title="Figure 8: compute slowdown from decoupled tracking",
            columns=["app", *self.platforms])
        for workload in self.workloads:
            table.add_row(workload, *(
                self.overhead[(platform, workload)]
                for platform in self.platforms))
        table.add_row("mean", *(self.mean(platform)
                                for platform in self.platforms))
        return table

    def mean(self, platform: str) -> float:
        values = [self.overhead[(platform, workload)]
                  for workload in self.workloads]
        return sum(values) / len(values)

    def max_overhead(self) -> Tuple[str, str, float]:
        key = max(self.overhead, key=self.overhead.get)
        return (*key, self.overhead[key])


def run(platforms: Sequence[PlatformSpec] = FOUR_GPU_PLATFORMS,
        workloads: Optional[Sequence[Workload]] = None) -> Figure8Result:
    """Regenerate Figure 8."""
    workload_list = list(workloads) if workloads else default_workloads()
    result = Figure8Result(
        platforms=[p.name for p in platforms],
        workloads=[w.name for w in workload_list])
    for platform in platforms:
        config = decoupled_config_for(platform)
        for workload in workload_list:
            instrumented = ProactDecoupledParadigm(
                config, elide_transfers=True).execute(workload, platform)
            ideal = InfiniteBandwidthParadigm().execute(workload, platform)
            result.overhead[(platform.name, workload.name)] = (
                instrumented.runtime / ideal.runtime - 1.0)
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run()
    _platform, _workload, worst = result.max_overhead()
    return ExperimentResult.build(
        "fig8", "Figure 8", [result.table()],
        {"max_overhead": worst,
         "mean_overhead_4x_volta": result.mean("4x_volta")})
