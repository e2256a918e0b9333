"""PROACT core: regions, tracking, transfer agents, profiler, executor."""

from repro.core.agents import AGENT_ACCESS_SIZE, AgentStats, DecoupledAgent
from repro.core.cdp_agent import CdpAgent
from repro.core.config import (
    ALL_MECHANISMS,
    ALL_MECHANISMS_WITH_HW,
    DECOUPLED_MECHANISMS,
    DEFAULT_CONFIG,
    DEFAULT_MECHANISMS,
    DEFAULT_POLL_PERIOD,
    MECH_CDP,
    MECH_HARDWARE,
    MECH_INLINE,
    MECH_POLLING,
    PROFILE_CHUNK_SIZES,
    PROFILE_THREAD_COUNTS,
    Mechanisms,
    ProactConfig,
)
from repro.core.hardware import HW_DESCRIPTOR_LATENCY, HardwareAgent
from repro.core.inline import (
    COALESCE_TARGET,
    INLINE_SEGMENTS,
    inline_access_size,
    store_issue_work,
)
from repro.core.mapping import (
    BlockMapping,
    ContiguousMapping,
    CustomMapping,
    StencilMapping,
    StridedMapping,
)
from repro.core.polling import PollingAgent
from repro.core.program import (
    CtaContext,
    ProactDataStructure,
    proact_init,
)
from repro.core.profiler import (
    PhaseBuilder,
    ProfileEntry,
    Profiler,
    ProfileResult,
    measure_config,
    run_phases,
)
from repro.core.region import ChunkReadiness, ProactRegion
from repro.core.runtime import (
    GpuPhaseOutcome,
    GpuPhaseWork,
    PhaseResult,
    ProactPhaseExecutor,
)
from repro.core.tracker import ReadinessTracker, tracking_overhead

__all__ = [
    "ProactConfig",
    "Mechanisms",
    "DEFAULT_CONFIG",
    "DEFAULT_MECHANISMS",
    "DEFAULT_POLL_PERIOD",
    "MECH_INLINE",
    "MECH_POLLING",
    "MECH_CDP",
    "MECH_HARDWARE",
    "ALL_MECHANISMS",
    "ALL_MECHANISMS_WITH_HW",
    "DECOUPLED_MECHANISMS",
    "PROFILE_CHUNK_SIZES",
    "PROFILE_THREAD_COUNTS",
    "BlockMapping",
    "ContiguousMapping",
    "StridedMapping",
    "StencilMapping",
    "CustomMapping",
    "ProactRegion",
    "ChunkReadiness",
    "ReadinessTracker",
    "tracking_overhead",
    "DecoupledAgent",
    "AgentStats",
    "AGENT_ACCESS_SIZE",
    "PollingAgent",
    "CdpAgent",
    "HardwareAgent",
    "HW_DESCRIPTOR_LATENCY",
    "inline_access_size",
    "store_issue_work",
    "COALESCE_TARGET",
    "INLINE_SEGMENTS",
    "GpuPhaseWork",
    "GpuPhaseOutcome",
    "PhaseResult",
    "ProactPhaseExecutor",
    "Profiler",
    "measure_config",
    "ProactDataStructure",
    "CtaContext",
    "proact_init",
    "ProfileResult",
    "ProfileEntry",
    "PhaseBuilder",
    "run_phases",
]
