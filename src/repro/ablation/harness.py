"""The ablation harness: measure each PROACT component's importance.

For one platform the harness simulates every workload under the
baseline (all mechanisms on) and under each single-flip run of the
run set (:func:`~repro.ablation.runset.generate_runset`), then ranks
the components by how much the framework slows down without them.

Each run's runtime is PROACT as deployed,
:func:`~repro.paradigms.proact.proact_runtime`, under that run's
mechanisms:

* baseline — best of inline and the architecture's tuned decoupled
  configuration, all mechanisms on;
* ``decoupled_agent`` flipped — inline only (no agent exists);
* ``profiler_pruning`` flipped — no configuration selection at all: the
  hard-wired :data:`~repro.core.config.DEFAULT_CONFIG` runs;
* every other flip — the same best-of selection, with the flipped
  mechanism ablated inside the model.

A component's per-workload *slowdown* is ``ablated / baseline`` runtime
(> 1: the component earns its keep; < 1: the component is a modelled
cost, e.g. ``fluid_contention``, and removing it flatters the model).
Its *importance* is the geomean slowdown minus one — the fraction of
end-to-end performance the component is responsible for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ablation.runset import BASELINE, AblationRun, generate_runset
from repro.errors import ConfigurationError
from repro.hw.platform import platform_by_name
from repro.obs.report import TextTable, geometric_mean
from repro.paradigms.proact import proact_runtime


@dataclass(frozen=True)
class ComponentImportance:
    """One component's measured contribution on one platform."""

    component: str
    #: Per-workload ``ablated / baseline`` runtime ratio.
    slowdowns: Dict[str, float]
    #: Geomean of the per-workload slowdowns.
    geomean: float

    @property
    def importance(self) -> float:
        """Fraction of end-to-end performance this component provides."""
        return self.geomean - 1.0


@dataclass(frozen=True)
class AblationReport:
    """Ranked per-component importance for one platform."""

    platform: str
    workloads: Tuple[str, ...]
    #: Baseline (all-on) runtime per workload, seconds.
    baseline_runtimes: Dict[str, float]
    #: Components ranked by descending geomean slowdown.
    components: Tuple[ComponentImportance, ...]

    def component(self, name: str) -> ComponentImportance:
        for entry in self.components:
            if entry.component == name:
                return entry
        raise ConfigurationError(
            f"component {name!r} not in this report "
            f"({[c.component for c in self.components]})")

    def rank_of(self, name: str) -> int:
        """1-based rank of a component (1 = most important)."""
        for rank, entry in enumerate(self.components, start=1):
            if entry.component == name:
                return rank
        raise ConfigurationError(f"component {name!r} not in this report")

    def table(self):
        """Render the ranked importance table."""
        table = TextTable(
            title=(f"Mechanism ablation ({self.platform}): "
                   "runtime slowdown when ablated"),
            columns=["rank", "component",
                     *self.workloads, "geomean", "importance"])
        for rank, entry in enumerate(self.components, start=1):
            table.add_row(
                rank, entry.component,
                *(f"{entry.slowdowns[name]:.3f}x"
                  for name in self.workloads),
                f"{entry.geomean:.3f}x",
                f"{entry.importance:+.1%}")
        return table


def run_ablation(platform,
                 workloads: Optional[Sequence] = None,
                 components: Optional[Sequence[str]] = None,
                 runs: Optional[Sequence[AblationRun]] = None,
                 ) -> AblationReport:
    """Run the full ablation study on one platform.

    ``workloads`` defaults to the paper's five applications;
    ``components`` restricts the flips (``runs`` supplies a
    pre-generated run set instead and wins over ``components``).
    """
    from repro.workloads import default_workloads
    if isinstance(platform, str):
        platform = platform_by_name(platform)
    workload_list = list(workloads) if workloads else default_workloads()
    if runs is None:
        runs = generate_runset(components)
    baseline_runs = [run for run in runs if run.is_baseline]
    if len(baseline_runs) != 1:
        raise ConfigurationError(
            f"run set needs exactly one {BASELINE!r} run, "
            f"got {len(baseline_runs)}")
    baseline: Dict[str, float] = {}
    for workload in workload_list:
        baseline[workload.name] = proact_runtime(
            workload, platform, baseline_runs[0].mechanisms)
    entries: List[ComponentImportance] = []
    for run in runs:
        if run.is_baseline:
            continue
        slowdowns: Dict[str, float] = {}
        for workload in workload_list:
            ablated = proact_runtime(workload, platform, run.mechanisms)
            slowdowns[workload.name] = ablated / baseline[workload.name]
        entries.append(ComponentImportance(
            component=run.component,
            slowdowns=slowdowns,
            geomean=geometric_mean(list(slowdowns.values()))))
    entries.sort(key=lambda entry: (-entry.geomean, entry.component))
    return AblationReport(
        platform=platform.name,
        workloads=tuple(w.name for w in workload_list),
        baseline_runtimes=baseline,
        components=tuple(entries))
