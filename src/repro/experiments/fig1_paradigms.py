"""Figure 1: the four multi-GPU communication paradigms, as timelines.

The paper's motivating figure contrasts (a) bulk DMA between kernels,
(b) fine-grained P2P loads stalling the consumer, (c) fine-grained P2P
stores wasting interconnect efficiency, and (d) PROACT.  This harness
runs the tuned producer/consumer microbenchmark under all four and
reports each one's end-to-end time, exposed (non-overlapped) transfer
time, wire efficiency, and interconnect utilization — the quantities the
cartoon encodes visually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.hw.platform import PLATFORM_4X_VOLTA, PlatformSpec
from repro.paradigms import (
    BulkMemcpyParadigm,
    P2pLoadParadigm,
    Paradigm,
    ProactDecoupledParadigm,
    ProactInlineParadigm,
)
from repro.paradigms.proact import decoupled_config_for
from repro.units import MiB
from repro.workloads.micro import MicroBenchmark

#: Display order matching Figure 1 (a) through (d).
FIGURE1_ORDER = ("cudaMemcpy", "P2P-loads", "PROACT-inline",
                 "PROACT-decoupled")


@dataclass
class Figure1Result:
    """Per-paradigm timing breakdown of the microbenchmark."""

    platform: str
    runtimes: Dict[str, float] = field(default_factory=dict)
    efficiencies: Dict[str, float] = field(default_factory=dict)
    utilizations: Dict[str, float] = field(default_factory=dict)

    def table(self) -> TextTable:
        table = TextTable(
            title=("Figure 1: communication paradigms on the tuned "
                   f"microbenchmark ({self.platform})"),
            columns=["paradigm", "time (ms)", "vs memcpy",
                     "wire efficiency", "mean link util"])
        baseline = self.runtimes["cudaMemcpy"]
        for name in FIGURE1_ORDER:
            table.add_row(
                name,
                self.runtimes[name] * 1e3,
                f"{baseline / self.runtimes[name]:.2f}x",
                f"{self.efficiencies[name]:.0%}",
                f"{self.utilizations[name]:.0%}")
        return table


def run(platform: PlatformSpec = PLATFORM_4X_VOLTA,
        data_bytes: int = 64 * MiB,
        spatial_locality: float = 0.1) -> Figure1Result:
    """Regenerate Figure 1's comparison quantitatively.

    ``spatial_locality`` controls how badly the naive fine-grained
    paradigms fragment on the wire (Figure 1(c) shows sporadic stores).
    """
    workload = MicroBenchmark(data_bytes=data_bytes,
                              spatial_locality=spatial_locality,
                              consumer_phase=True)
    paradigms: Sequence[Paradigm] = (
        BulkMemcpyParadigm(),
        P2pLoadParadigm(),
        ProactInlineParadigm(),
        ProactDecoupledParadigm(decoupled_config_for(platform)),
    )
    result = Figure1Result(platform=platform.name)
    for paradigm in paradigms:
        outcome = paradigm.execute(workload, platform)
        result.runtimes[paradigm.name] = outcome.runtime
        result.efficiencies[paradigm.name] = (
            outcome.interconnect_efficiency)
        result.utilizations[paradigm.name] = outcome.details.get(
            "mean_link_utilization", 0.0)
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run(data_bytes=ctx.micro_bytes)
    return ExperimentResult.build(
        "fig1", "Figure 1", [result.table()],
        {"decoupled_vs_memcpy": (result.runtimes["cudaMemcpy"]
                                 / result.runtimes["PROACT-decoupled"]),
         "decoupled_wire_efficiency":
             result.efficiencies["PROACT-decoupled"]})
