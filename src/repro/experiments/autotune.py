"""Search autotuner vs. exhaustive sweep: same answer, fewer runs.

The ``"search"`` profiler mode (``Profiler(search="search")``) claims
two things: its chosen configuration is *provably* the exhaustive argmin
(its best-first sweep only ever skips candidates whose
infinite-bandwidth lower bound strictly exceeds the measured incumbent),
and it gets there with far fewer full measurements.  This harness checks
both claims end to end, per workload, on a grid small enough to also run
brute force: the table reports the exhaustive winner, the search winner,
and how many of the grid's configurations each pass actually measured.

Any disagreement between the two winners is a correctness bug, so the
harness raises (failing the suite) rather than tabulating it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.profiler import Profiler
from repro.errors import ProactError
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import PlatformSpec, platform_by_name
from repro.units import KiB, MiB
from repro.workloads import Workload, default_workloads

#: Small enough that brute force stays experiment-sized, wide enough for
#: the floor ranking and pruning to have real work to do.
SWEEP_CHUNK_SIZES = (64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB)
SWEEP_THREAD_COUNTS = (512, 2048, 8192)
FULL_THREAD_COUNTS = (512, 1024, 2048, 4096, 8192)


def _profiler(platform: PlatformSpec, search: str,
              thread_counts: Sequence[int], jobs: int) -> Profiler:
    return Profiler(platform, chunk_sizes=SWEEP_CHUNK_SIZES,
                    thread_counts=thread_counts, search=search, jobs=jobs)


def run(platform: Optional[PlatformSpec] = None,
        workloads: Optional[Sequence[Workload]] = None,
        quick: bool = True, jobs: int = 1) -> TextTable:
    """Compare the search autotuner against brute force per workload."""
    if platform is None:
        platform = platform_by_name("4x_volta")
    workload_list = list(workloads) if workloads else default_workloads()
    thread_counts = SWEEP_THREAD_COUNTS if quick else FULL_THREAD_COUNTS
    table = TextTable(
        title="Search autotuner vs exhaustive sweep "
              f"({platform.name}, {len(SWEEP_CHUNK_SIZES)}x"
              f"{len(thread_counts)} grid per decoupled mechanism)",
        columns=["app", "best", "grid", "searched", "saved"])
    for workload in workload_list:
        builder = workload.phase_builder()
        brute = _profiler(platform, "exhaustive", thread_counts,
                          jobs).profile(builder)
        searched = _profiler(platform, "search", thread_counts,
                             jobs).profile(builder)
        if (searched.best.config != brute.best.config
                or searched.best.runtime != brute.best.runtime):
            raise ProactError(
                f"search autotuner diverged from brute force on "
                f"{workload.name}: {searched.best.config.label()!r} != "
                f"{brute.best.config.label()!r}")
        grid = len(brute.entries)
        measured = len(searched.entries)
        table.add_row(workload.name, brute.best.config.label(), grid,
                      measured, f"{100 * (grid - measured) / grid:.0f}%")
    return table


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    table = run(quick=ctx.quick, jobs=ctx.profile.jobs)
    grid = sum(int(row[2]) for row in table.rows)
    searched = sum(int(row[3]) for row in table.rows)
    return ExperimentResult.build(
        "autotune", "Search autotuner", [table],
        {"grid_configs": grid,
         "searched_configs": searched,
         "argmin_agreement": 1.0,
         "measurements_saved_frac": (grid - searched) / grid})
