"""Figure 10: strong scaling with GPU count on each platform.

The paper scales to 4 GPUs on Kepler and Pascal and to 16 on the Volta
DGX-2, comparing PROACT (best of inline/decoupled) against ``cudaMemcpy``
duplication and the infinite-bandwidth limit.  UM is omitted, as in the
paper ("we omit unified memory results, which do not scale well").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.fig7_endtoend import single_gpu_runtime
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable, geometric_mean
from repro.hw.platform import (
    PLATFORM_4X_KEPLER,
    PLATFORM_4X_PASCAL,
    PLATFORM_16X_VOLTA,
    PlatformSpec,
)
from repro.paradigms import BulkMemcpyParadigm, InfiniteBandwidthParadigm
from repro.paradigms.proact import proact_runtime
from repro.workloads import Workload, default_workloads

#: GPU counts per platform, matching the paper's Figure 10.
DEFAULT_SWEEPS: Tuple[Tuple[PlatformSpec, Tuple[int, ...]], ...] = (
    (PLATFORM_4X_KEPLER, (1, 2, 3, 4)),
    (PLATFORM_4X_PASCAL, (1, 2, 3, 4)),
    (PLATFORM_16X_VOLTA, (1, 2, 4, 6, 8, 12, 16)),
)

SERIES = ("cudaMemcpy", "PROACT", "Infinite BW")


@dataclass
class Figure10Result:
    """Geomean speedup over one GPU per (platform, gpus, series)."""

    sweeps: Sequence[Tuple[str, Tuple[int, ...]]]
    speedups: Dict[Tuple[str, int, str], float] = field(default_factory=dict)

    def table(self, platform: str) -> TextTable:
        counts = dict(self.sweeps)[platform]
        table = TextTable(
            title=f"Figure 10: strong scaling ({platform})",
            columns=["gpus", *SERIES])
        for count in counts:
            table.add_row(count, *(self.speedups[(platform, count, series)]
                                   for series in SERIES))
        return table

    def tables(self) -> List[TextTable]:
        return [self.table(platform) for platform, _counts in self.sweeps]

    def at(self, platform: str, gpus: int, series: str) -> float:
        return self.speedups[(platform, gpus, series)]

    def proact_advantage(self, platform: str, gpus: int) -> float:
        """PROACT speedup relative to cudaMemcpy at one GPU count."""
        return (self.at(platform, gpus, "PROACT")
                / self.at(platform, gpus, "cudaMemcpy"))

    def capture(self, platform: str, gpus: int) -> float:
        """Fraction of the theoretical limit PROACT reaches."""
        return (self.at(platform, gpus, "PROACT")
                / self.at(platform, gpus, "Infinite BW"))


def run(sweeps: Sequence[Tuple[PlatformSpec, Sequence[int]]] = DEFAULT_SWEEPS,
        workloads: Optional[Sequence[Workload]] = None) -> Figure10Result:
    """Regenerate Figure 10."""
    workload_list = list(workloads) if workloads else default_workloads()
    result = Figure10Result(
        sweeps=[(platform.name, tuple(counts))
                for platform, counts in sweeps])
    for platform, counts in sweeps:
        references = {workload.name: single_gpu_runtime(workload, platform)
                      for workload in workload_list}
        for count in counts:
            scaled = platform.with_num_gpus(count)
            per_series: Dict[str, List[float]] = {s: [] for s in SERIES}
            for workload in workload_list:
                reference = references[workload.name]
                bulk = BulkMemcpyParadigm().execute(workload, scaled)
                per_series["cudaMemcpy"].append(reference / bulk.runtime)
                # One GPU has nothing to transfer: PROACT is the reference.
                proact = (reference if count == 1
                          else proact_runtime(workload, scaled))
                per_series["PROACT"].append(reference / proact)
                ideal = InfiniteBandwidthParadigm().execute(
                    workload, scaled)
                per_series["Infinite BW"].append(reference / ideal.runtime)
            for series, values in per_series.items():
                result.speedups[(platform.name, count, series)] = (
                    geometric_mean(values))
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run()
    return ExperimentResult.build(
        "fig10", "Figure 10", result.tables(),
        {"proact_advantage_16x_volta_16":
             result.proact_advantage("16x_volta", 16),
         "capture_16x_volta_16": result.capture("16x_volta", 16)})
