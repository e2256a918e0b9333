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

from repro.api import Session

from repro.ablation import AblationReport, AblationRun, generate_runset, run_ablation
from repro.core import (
    DEFAULT_MECHANISMS,
    GpuPhaseWork,
    MECH_CDP,
    MECH_INLINE,
    MECH_POLLING,
    Mechanisms,
    ProactConfig,
    ProactPhaseExecutor,
    ProactRegion,
    Profiler,
    ReadinessTracker,
)
from repro.errors import (
    ConfigurationError,
    ProactError,
    ReproError,
    SimulationError,
    ValidationError,
    WorkloadError,
)
from repro.cluster import ClusterPlatformSpec, cluster_platform
from repro.hw import PLATFORMS, PlatformSpec, platform_by_name
from repro.runtime import KernelSpec, System
from repro.validate import validation

__version__ = "1.0.0"

__all__ = [
    "Session",
    "System",
    "KernelSpec",
    "ProactConfig",
    "Mechanisms",
    "DEFAULT_MECHANISMS",
    "AblationRun",
    "AblationReport",
    "generate_runset",
    "run_ablation",
    "ProactRegion",
    "ProactPhaseExecutor",
    "ReadinessTracker",
    "Profiler",
    "GpuPhaseWork",
    "MECH_INLINE",
    "MECH_POLLING",
    "MECH_CDP",
    "PlatformSpec",
    "PLATFORMS",
    "platform_by_name",
    "ClusterPlatformSpec",
    "cluster_platform",
    "ReproError",
    "SimulationError",
    "ConfigurationError",
    "ProactError",
    "ValidationError",
    "WorkloadError",
    "validation",
    "__version__",
]
