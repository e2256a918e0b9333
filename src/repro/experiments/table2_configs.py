"""Table II: best configuration per application and platform, as chosen
by PROACT's compile-time profiler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import PROFILE_CHUNK_SIZES, PROFILE_THREAD_COUNTS
from repro.core.profiler import Profiler
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import FOUR_GPU_PLATFORMS, PlatformSpec
from repro.units import KiB, MiB
from repro.workloads import Workload, default_workloads

#: Reduced sweep grids for quick profiling runs (still spanning the
#: paper's studied ranges: 4 kB-16 MB and 32-8192 threads).
QUICK_CHUNK_SIZES = (16 * KiB, 128 * KiB, 1 * MiB, 16 * MiB)
QUICK_THREAD_COUNTS = (256, 1024, 2048, 4096, 8192)


@dataclass
class Table2Result:
    """Profiler-chosen configuration labels per (platform, workload)."""

    platforms: Sequence[str]
    workloads: Sequence[str]
    labels: Dict[Tuple[str, str], str] = field(default_factory=dict)
    runtimes: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title="Table II: best configuration per app (profiler output)",
            columns=["app", *self.platforms])
        for workload in self.workloads:
            table.add_row(workload, *(
                self.labels[(platform, workload)]
                for platform in self.platforms))
        return table

    def mechanism(self, platform: str, workload: str) -> str:
        """'I' for inline, 'Poll'/'CDP' for decoupled variants."""
        label = self.labels[(platform, workload)]
        if label == "I":
            return "I"
        return label.split()[-1]


def run(platforms: Sequence[PlatformSpec] = FOUR_GPU_PLATFORMS,
        workloads: Optional[Sequence[Workload]] = None,
        quick: bool = True,
        chunk_sizes: Optional[Sequence[int]] = None,
        thread_counts: Optional[Sequence[int]] = None,
        search: str = "coordinate",
        jobs: int = 1) -> Table2Result:
    """Regenerate Table II by profiling every app on every platform.

    ``search`` and ``jobs`` select the profiler's search mode and
    warm-worker parallelism; the defaults reproduce the historical
    serial coordinate sweep byte-for-byte.
    """
    workload_list = list(workloads) if workloads else default_workloads()
    if chunk_sizes is None:
        chunk_sizes = QUICK_CHUNK_SIZES if quick else PROFILE_CHUNK_SIZES
    if thread_counts is None:
        thread_counts = (QUICK_THREAD_COUNTS if quick
                         else PROFILE_THREAD_COUNTS)
    result = Table2Result(
        platforms=[p.name for p in platforms],
        workloads=[w.name for w in workload_list])
    for platform in platforms:
        profiler = Profiler(platform, chunk_sizes=chunk_sizes,
                            thread_counts=thread_counts, search=search,
                            jobs=jobs)
        for workload in workload_list:
            profile = profiler.profile(workload.phase_builder())
            best = profile.best
            key = (platform.name, workload.name)
            result.labels[key] = best.config.label()
            result.runtimes[key] = best.runtime
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run(quick=ctx.quick, search=ctx.profile.strategy,
                 jobs=ctx.profile.jobs)
    decoupled = sum(1 for label in result.labels.values() if label != "I")
    return ExperimentResult.build(
        "table2", "Table II", [result.table()],
        {"decoupled_picks": decoupled,
         "inline_picks": len(result.labels) - decoupled})
