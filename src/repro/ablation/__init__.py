"""Automated ablation harness over PROACT's mechanism switches.

Flip one :class:`~repro.core.config.Mechanisms` switch at a time and
measure what each component contributes to end-to-end performance::

    from repro.ablation import run_ablation

    report = run_ablation("4x_volta")
    print(report.table().render())
    print(report.rank_of("decoupled_agent"))

See :mod:`repro.ablation.runset` for run-set generation and
:mod:`repro.ablation.harness` for the measurement discipline.  Each
run's runtime is PROACT as deployed,
:func:`repro.paradigms.proact.proact_runtime`; the package does not
import the experiment layer.
"""

from repro.ablation.harness import (
    AblationReport,
    ComponentImportance,
    run_ablation,
)
from repro.ablation.runset import BASELINE, AblationRun, generate_runset

__all__ = [
    "AblationRun",
    "AblationReport",
    "BASELINE",
    "ComponentImportance",
    "generate_runset",
    "run_ablation",
]
