"""Mechanism ablation: what each PROACT component is worth end to end.

The registry face of :mod:`repro.ablation`: generate the baseline +
single-flip run set, simulate it across the paper's applications on two
platforms, and emit the ranked per-component importance tables.  Table
II's mechanism-selection story should fall out of the ranking — the
decoupled agent and its write coalescing carry the speedup on at least
one platform, while the modelled costs (fluid-share contention, packet
overhead) rank at the bottom with negative importance.

The all-on run is additionally checked to be *byte-identical* to the
unablated paradigms (``all_on_identical`` scalar): threading the
default :class:`~repro.core.config.Mechanisms` through a simulation
must not change a single float.
"""

from __future__ import annotations

from typing import List

from repro.ablation import run_ablation
from repro.core.config import Mechanisms
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.hw.platform import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.paradigms import ProactDecoupledParadigm
from repro.paradigms.proact import decoupled_config_for
from repro.workloads import PageRankWorkload, default_workloads

#: The platforms the importance ranking is reported on: the paper's
#: newest (Volta) and the one whose tuned configuration diverges most
#: from the default (Kepler — where profiler pruning matters most).
ABLATION_PLATFORMS = (PLATFORM_4X_VOLTA, PLATFORM_4X_KEPLER)


def _all_on_identical(platform) -> bool:
    """All-switches-on must be byte-identical to the unablated paradigm."""
    workload = PageRankWorkload()
    config = decoupled_config_for(platform)
    unablated = ProactDecoupledParadigm(config).execute(
        workload, platform).runtime
    all_on = ProactDecoupledParadigm(
        config, mechanisms=Mechanisms()).execute(workload, platform).runtime
    return unablated == all_on


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    workloads = default_workloads()
    tables = []
    scalars = {}
    reports = {}
    for platform in ABLATION_PLATFORMS:
        report = run_ablation(platform, workloads=workloads)
        reports[platform.name] = report
        tables.append(report.table())
        for entry in report.components:
            scalars[f"{platform.name}_{entry.component}_importance"] = (
                entry.importance)
        scalars[f"{platform.name}_decoupled_agent_rank"] = (
            report.rank_of("decoupled_agent"))
        scalars[f"{platform.name}_write_coalescing_rank"] = (
            report.rank_of("write_coalescing"))
    identical: List[bool] = [
        _all_on_identical(platform) for platform in ABLATION_PLATFORMS]
    scalars["all_on_identical"] = float(all(identical))
    scalars["workloads"] = float(len(workloads))
    scalars["components"] = float(len(Mechanisms.component_names()))
    # Table II consistency: on at least one platform the decoupled agent
    # and write coalescing are both top-half, positive-importance
    # components.
    scalars["table2_consistent"] = float(any(
        report.rank_of("decoupled_agent") <= 2
        and report.rank_of("write_coalescing") <= 2
        and report.component("decoupled_agent").importance > 0
        and report.component("write_coalescing").importance > 0
        for report in reports.values()))
    return ExperimentResult.build(
        "ablation", "Mechanism ablation", tables, scalars)
