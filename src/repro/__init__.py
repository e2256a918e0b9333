"""PROACT reproduction: automatic optimization of fine-grained multi-GPU
transfers (Muthukrishnan et al., ISCA 2021) on a simulated multi-GPU
substrate.

Quickstart::

    from repro import Session
    from repro.workloads import PageRankWorkload

    session = Session("4x_volta", validate=True)
    result = session.run(PageRankWorkload(), paradigm="proact")
    print(result.runtime, result.interconnect_efficiency)

:class:`~repro.api.Session` is the front door: one object bundling a
platform with an observability/validation policy, with ``run``,
``profile``, and ``collective`` entry points.  The underlying layers
(``System``, paradigms, ``Profiler``) remain public for fine-grained
control.  See ``repro.experiments`` for the harnesses that regenerate
every table and figure from the paper's evaluation.
"""

import importlib

#: Every top-level name and the module it comes from.  Each is imported
#: on first use (PEP 562), so ``import repro.api`` does not also load
#: the ablation harness and the cluster layer.
_SOURCES = {
    "Session": "repro.api",
    **dict.fromkeys(("AblationReport", "AblationRun", "generate_runset",
                     "run_ablation"), "repro.ablation"),
    **dict.fromkeys(("DEFAULT_MECHANISMS", "GpuPhaseWork", "MECH_CDP",
                     "MECH_INLINE", "MECH_POLLING", "Mechanisms",
                     "ProactConfig", "ProactPhaseExecutor", "ProactRegion",
                     "Profiler", "ReadinessTracker"), "repro.core"),
    **dict.fromkeys(("ConfigurationError", "ProactError", "ReproError",
                     "SimulationError", "ValidationError", "WorkloadError"),
                    "repro.errors"),
    **dict.fromkeys(("ClusterPlatformSpec", "cluster_platform"),
                    "repro.cluster"),
    **dict.fromkeys(("PLATFORMS", "PlatformSpec", "platform_by_name"),
                    "repro.hw"),
    **dict.fromkeys(("KernelSpec", "System"), "repro.runtime"),
    "validation": "repro.validate",
}

__version__ = "1.0.0"

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_SOURCES[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
