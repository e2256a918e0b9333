"""Sensitivity analysis: do the conclusions survive the calibration?

Several model constants were calibrated against the paper's figures
(docs/MODELING.md).  This harness perturbs each of them — halving and
doubling, far beyond plausible calibration error — and re-measures the
core qualitative conclusions:

* **C1** PROACT (best of inline/decoupled) beats cudaMemcpy duplication,
* **C2** decoupled stays competitive with inline for a sporadic-write
  app (PageRank) — within 10 %.  The *strict* winner is margin-sensitive
  (doubling the tracking cost flips it by a few percent), exactly the
  kind of platform-dependent flip the paper's own Table II exhibits,
* **C3** nothing beats the infinite-bandwidth limit,
* **C4** PROACT captures most (>=60 %) of the limit.

A reproduction whose headline depends on a single tuned constant is not
a reproduction; this harness is the evidence ours does not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.experiments.fig7_endtoend import single_gpu_runtime
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable, geometric_mean
from repro.hw.platform import PLATFORM_4X_VOLTA, PlatformSpec
from repro.paradigms import (
    BulkMemcpyParadigm,
    InfiniteBandwidthParadigm,
    ProactDecoupledParadigm,
    ProactInlineParadigm,
)
from repro.paradigms.proact import decoupled_config_for
from repro.workloads import JacobiWorkload, PageRankWorkload, Workload

#: (name, GpuSpec field, factor) — each applied in isolation.
DEFAULT_PERTURBATIONS: Tuple[Tuple[str, str, float], ...] = (
    ("baseline", "", 1.0),
    ("tracking x0.5", "atomic_track_cost", 0.5),
    ("tracking x2", "atomic_track_cost", 2.0),
    ("copy-thread BW x0.5", "copy_thread_bandwidth", 0.5),
    ("copy-thread BW x2", "copy_thread_bandwidth", 2.0),
    ("CDP launch x0.5", "cdp_launch_latency", 0.5),
    ("CDP launch x2", "cdp_launch_latency", 2.0),
    ("polling tax x0.5", "polling_overhead_fraction", 0.5),
    ("polling tax x2", "polling_overhead_fraction", 2.0),
    ("DMA init x2", "dma_init_overhead", 2.0),
    ("kernel launch x2", "kernel_launch_latency", 2.0),
)


@dataclass
class SensitivityRow:
    """Measured quantities under one perturbation."""

    name: str
    proact: float
    memcpy: float
    infinite: float
    decoupled_pagerank: float
    inline_pagerank: float

    @property
    def conclusions_hold(self) -> bool:
        return (self.proact > self.memcpy                          # C1
                and self.decoupled_pagerank
                >= 0.9 * self.inline_pagerank                      # C2
                and self.proact <= self.infinite + 1e-9            # C3
                and self.proact >= 0.6 * self.infinite)            # C4


@dataclass
class SensitivityResult:
    platform: str
    rows: List[SensitivityRow] = field(default_factory=list)

    def table(self) -> TextTable:
        table = TextTable(
            title=("Sensitivity: conclusions under x0.5/x2 constant "
                   f"perturbations ({self.platform})"),
            columns=["perturbation", "PROACT", "cudaMemcpy",
                     "Infinite BW", "conclusions"])
        for row in self.rows:
            table.add_row(row.name, row.proact, row.memcpy, row.infinite,
                          "HOLD" if row.conclusions_hold else "BROKEN")
        return table

    @property
    def all_hold(self) -> bool:
        return all(row.conclusions_hold for row in self.rows)


def _perturbed_platform(platform: PlatformSpec, field_name: str,
                        factor: float) -> PlatformSpec:
    if not field_name or factor == 1.0:
        return platform
    gpu = platform.gpu
    new_value = getattr(gpu, field_name) * factor
    return dataclasses.replace(
        platform, gpu=dataclasses.replace(gpu, **{field_name: new_value}))


def run(platform: PlatformSpec = PLATFORM_4X_VOLTA,
        workloads: Optional[Sequence[Workload]] = None,
        perturbations: Sequence[Tuple[str, str, float]] =
        DEFAULT_PERTURBATIONS) -> SensitivityResult:
    """Measure the core conclusions under each perturbation."""
    workload_list = list(workloads) if workloads else [
        PageRankWorkload(iterations=3),
        JacobiWorkload(iterations=3),
    ]
    pagerank = next((w for w in workload_list if w.name == "Pagerank"),
                    workload_list[0])
    result = SensitivityResult(platform=platform.name)
    for name, field_name, factor in perturbations:
        perturbed = _perturbed_platform(platform, field_name, factor)
        config = decoupled_config_for(perturbed)
        references = {w.name: single_gpu_runtime(w, perturbed)
                      for w in workload_list}
        proact_speedups, memcpy_speedups, infinite_speedups = [], [], []
        decoupled_pagerank = inline_pagerank = 0.0
        for workload in workload_list:
            reference = references[workload.name]
            decoupled = ProactDecoupledParadigm(config).execute(
                workload, perturbed).runtime
            inline = ProactInlineParadigm().execute(
                workload, perturbed).runtime
            proact_speedups.append(reference / min(decoupled, inline))
            memcpy_speedups.append(
                reference / BulkMemcpyParadigm().execute(
                    workload, perturbed).runtime)
            infinite_speedups.append(
                reference / InfiniteBandwidthParadigm().execute(
                    workload, perturbed).runtime)
            if workload is pagerank:
                decoupled_pagerank = reference / decoupled
                inline_pagerank = reference / inline
        result.rows.append(SensitivityRow(
            name=name,
            proact=geometric_mean(proact_speedups),
            memcpy=geometric_mean(memcpy_speedups),
            infinite=geometric_mean(infinite_speedups),
            decoupled_pagerank=decoupled_pagerank,
            inline_pagerank=inline_pagerank))
    return result


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    result = run()
    holding = sum(1 for row in result.rows if row.conclusions_hold)
    return ExperimentResult.build(
        "sensitivity", "Sensitivity", [result.table()],
        {"all_hold": 1.0 if result.all_hold else 0.0,
         "perturbations_holding": holding})
