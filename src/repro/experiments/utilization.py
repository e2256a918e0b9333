"""Interconnect utilization over time: the smoothing claim.

Section III lists "(3) smoothing interconnect utilization over time to
ensure no bandwidth is wasted" among PROACT's benefits.  This harness
measures it directly: run one application under bulk duplication and
under PROACT-decoupled, bucket every link's busy intervals into time
slices, and compare the utilization *profiles* — bulk synchrony shows
idle-then-burst sawtooths, PROACT a steady plateau.

The summary statistic is the coefficient of variation (CV) of per-bucket
fabric utilization: lower CV = smoother use of the interconnect.

The profiles are rendered from *trace data*: each run records into a
:class:`~repro.sim.trace.Tracer`, link occupancy is flushed as merged
busy spans on the per-GPU ``link:*`` lanes, and the timelines here are
bucketed from those spans — the same lanes a ``--trace`` export shows in
Perfetto.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.fig7_endtoend import decoupled_config_for
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import PLATFORM_4X_VOLTA, PlatformSpec
from repro.interconnect.link import Link
from repro.paradigms import BulkMemcpyParadigm, ProactDecoupledParadigm
from repro.paradigms.base import Paradigm
from repro.runtime.system import System
from repro.sim.trace import IntervalStats, Tracer
from repro.workloads import MicroBenchmark, PageRankWorkload, Workload

_LINK_LANE = re.compile(r"(?:^|\.)link:")


def utilization_timeline(intervals: Sequence[Tuple[float, float]],
                         end_time: float, buckets: int) -> List[float]:
    """Fraction of each time bucket covered by the given busy intervals.

    Intervals must be non-overlapping (e.g. from
    :meth:`~repro.sim.trace.IntervalStats.merged` or a flushed trace
    lane) so a bucket's busy time never double counts.
    """
    if buckets < 1:
        raise ValueError(f"need >= 1 bucket: {buckets}")
    if end_time <= 0:
        return [0.0] * buckets
    width = end_time / buckets
    busy = [0.0] * buckets
    for start, stop in intervals:
        first = min(buckets - 1, int(start / width))
        last = min(buckets - 1, int(max(start, stop - 1e-15) / width))
        for bucket in range(first, last + 1):
            lo = bucket * width
            hi = lo + width
            busy[bucket] += max(0.0, min(stop, hi) - max(start, lo))
    return [min(1.0, value / width) for value in busy]


def link_utilization_timeline(link: Link, end_time: float,
                              buckets: int) -> List[float]:
    """Fraction of each time bucket the link spent busy."""
    return utilization_timeline(link.busy.merged(), end_time, buckets)


def trace_link_intervals(tracer: Tracer) -> Dict[str, IntervalStats]:
    """Busy intervals per link lane, read back from trace spans."""
    lanes: Dict[str, IntervalStats] = {}
    for channel in tracer.channels():
        if not _LINK_LANE.search(channel):
            continue
        stats = IntervalStats()
        for record in tracer.channel(channel):
            if record.is_span:
                stats.add(record.time, record.end)
        if stats.intervals:
            lanes[channel] = stats
    return lanes


def fabric_utilization_timeline_from_trace(tracer: Tracer, end_time: float,
                                           buckets: int) -> List[float]:
    """Mean per-bucket utilization across the traced link lanes.

    Only links that carried data appear in the trace (idle links flush
    no busy spans), so the profile reflects how the *used* paths were
    driven.
    """
    lanes = trace_link_intervals(tracer)
    if not lanes:
        return [0.0] * buckets
    timelines = [utilization_timeline(stats.merged(), end_time, buckets)
                 for stats in lanes.values()]
    return [sum(values) / len(values) for values in zip(*timelines)]


def active_window_fraction(series: Sequence[float],
                           threshold: float = 0.02) -> float:
    """Fraction of the run between the first and last active bucket."""
    active = [i for i, value in enumerate(series) if value >= threshold]
    if not active:
        return 0.0
    return (active[-1] - active[0] + 1) / len(series)


def coefficient_of_variation(series: Sequence[float]) -> float:
    """Std/mean of a series (0 when the mean is 0)."""
    if not series:
        return 0.0
    mean = sum(series) / len(series)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in series) / len(series)
    return math.sqrt(variance) / mean


@dataclass
class UtilizationResult:
    """Per-paradigm utilization profiles for one app/platform."""

    platform: str
    workload: str
    buckets: int
    timelines: Dict[str, List[float]] = field(default_factory=dict)
    runtimes: Dict[str, float] = field(default_factory=dict)
    #: Mean whole-run utilization of the active links, from
    #: :meth:`~repro.sim.trace.IntervalStats.utilization`.
    link_utils: Dict[str, float] = field(default_factory=dict)

    def cv(self, paradigm: str) -> float:
        return coefficient_of_variation(self.timelines[paradigm])

    def table(self) -> TextTable:
        table = TextTable(
            title=(f"Interconnect utilization over time: {self.workload} "
                   f"({self.platform}, {self.buckets} buckets)"),
            columns=["paradigm", "profile", "mean util", "CV"])
        for name, series in self.timelines.items():
            glyphs = "".join(_spark(value) for value in series)
            mean = self.link_utils.get(name, sum(series) / len(series))
            table.add_row(name, glyphs, mean, self.cv(name))
        return table


_SPARK_GLYPHS = " .:-=+*#%@"


def _spark(value: float) -> str:
    index = min(len(_SPARK_GLYPHS) - 1,
                int(value * (len(_SPARK_GLYPHS) - 1) + 0.5))
    return _SPARK_GLYPHS[index]


def _run_with_fabric(paradigm: Paradigm, workload: Workload,
                     platform: PlatformSpec,
                     buckets: int) -> Tuple[List[float], float, float]:
    """Execute a paradigm under a tracer and profile its link lanes.

    The run records into its own :class:`~repro.sim.trace.Tracer`; link
    occupancy is flushed as merged busy spans by
    :meth:`~repro.runtime.system.System._finish` and the
    utilization profile is bucketed from those trace lanes — the same
    data a ``--trace`` export would show.
    """
    system = System(platform, tracer=Tracer(), **paradigm._system_kwargs())
    phases = workload.phase_builder()(system)
    from repro.paradigms.base import ParadigmResult
    result = ParadigmResult(paradigm=paradigm.name, platform=platform.name,
                            workload=workload.name, runtime=0.0)
    driver = system.engine.process(
        paradigm._drive(system, workload, phases, result))
    system.run(until=driver)
    system._finish()
    lanes = trace_link_intervals(system.tracer)
    mean_util = (sum(stats.utilization(system.now)
                     for stats in lanes.values()) / len(lanes)
                 if lanes else 0.0)
    return (fabric_utilization_timeline_from_trace(
                system.tracer, system.now, buckets),
            system.now, mean_util)


def run(platform: PlatformSpec = PLATFORM_4X_VOLTA,
        workload: Optional[Workload] = None,
        buckets: int = 48) -> UtilizationResult:
    """Compare utilization profiles of bulk vs PROACT-decoupled."""
    target = workload or PageRankWorkload()
    result = UtilizationResult(platform=platform.name, workload=target.name,
                               buckets=buckets)
    paradigms: Sequence[Paradigm] = (
        BulkMemcpyParadigm(),
        ProactDecoupledParadigm(decoupled_config_for(platform)),
    )
    for paradigm in paradigms:
        timeline, runtime, mean_util = _run_with_fabric(
            paradigm, target, platform, buckets)
        result.timelines[paradigm.name] = timeline
        result.runtimes[paradigm.name] = runtime
        result.link_utils[paradigm.name] = mean_util
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run(workload=MicroBenchmark(data_bytes=ctx.micro_bytes))
    proact_cv = result.cv("PROACT-decoupled")
    bulk_cv = result.cv("cudaMemcpy")
    return ExperimentResult.build(
        "utilization", "Utilization smoothing", [result.table()],
        {"cv_bulk": bulk_cv, "cv_proact": proact_cv,
         "smoothing_factor": (bulk_cv / proact_cv if proact_cv > 0
                              else 0.0)})
