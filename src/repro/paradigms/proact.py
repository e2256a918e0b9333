"""The PROACT paradigms: inline, decoupled, and profiler-selected.

* :class:`ProactInlineParadigm` — remote stores injected straight into
  the producer kernels (Listing 1's ``user_kernel_inline``).
* :class:`ProactDecoupledParadigm` — staging + readiness tracking + a
  decoupled transfer agent, under an explicit or profiled configuration.
* :class:`ProactAutoParadigm` — what the full framework does: run the
  compile-time profiler across inline and decoupled variants and execute
  with the best configuration.
* :func:`proact_runtime` — PROACT as deployed, the paper's headline
  "PROACT" number: the better of inline and the architecture's tuned
  decoupled configuration (:func:`decoupled_config_for`, Table II's
  winners) per application and platform, standing in for a live
  profiler sweep.

Every paradigm accepts a ``mechanisms`` policy
(:class:`repro.core.config.Mechanisms`) that ablates individual PROACT
components; the default (``None``) leaves everything enabled.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import (
    DEFAULT_CONFIG,
    MECH_CDP,
    MECH_HARDWARE,
    MECH_INLINE,
    MECH_POLLING,
    Mechanisms,
    ProactConfig,
)
from repro.core.profiler import Profiler
from repro.core.runtime import GpuPhaseWork, ProactPhaseExecutor
from repro.hw.platform import PlatformSpec
from repro.hw.specs import ARCH_KEPLER, ARCH_PASCAL, ARCH_VOLTA
from repro.paradigms.base import Paradigm, ParadigmResult
from repro.runtime.system import System
from repro.units import KiB, MiB

#: The decoupled configuration the profiler prefers per GPU architecture
#: (Table II shows these exact mechanisms winning on each platform).
#: Keyed by architecture, not platform name, so a platform rescaled with
#: :meth:`~repro.hw.platform.PlatformSpec.with_num_gpus` keeps its own.
ARCH_DECOUPLED_CONFIG = {
    ARCH_KEPLER: ProactConfig(MECH_CDP, 16 * KiB, 256),
    ARCH_PASCAL: ProactConfig(MECH_POLLING, 1 * MiB, 4096),
    ARCH_VOLTA: ProactConfig(MECH_POLLING, 128 * KiB, 2048),
}

_INLINE_CONFIG = ProactConfig(MECH_INLINE, DEFAULT_CONFIG.chunk_size,
                              DEFAULT_CONFIG.transfer_threads)


def decoupled_config_for(platform: PlatformSpec) -> ProactConfig:
    """The tuned decoupled configuration for ``platform``'s GPUs (Volta's
    for any architecture without one)."""
    return ARCH_DECOUPLED_CONFIG.get(platform.gpu.arch,
                                     ARCH_DECOUPLED_CONFIG[ARCH_VOLTA])


class _ProactParadigmBase(Paradigm):
    """Shared driver: run every phase through the PROACT executor."""

    def __init__(self, config: ProactConfig,
                 elide_transfers: bool = False,
                 mechanisms: Optional[Mechanisms] = None) -> None:
        self.config = config
        self.elide_transfers = elide_transfers
        self.mechanisms = mechanisms

    def _drive(self, system: System, workload,
               phases: Sequence[Sequence[GpuPhaseWork]],
               result: ParadigmResult):
        executor = ProactPhaseExecutor(
            system, self.config, elide_transfers=self.elide_transfers)
        for works in phases:
            phase_result = yield executor.execute(works)
            result.phase_durations.append(phase_result.duration)
            result.details["exposed_transfer_time"] = (
                result.details.get("exposed_transfer_time", 0.0)
                + phase_result.exposed_transfer_time)


class ProactInlineParadigm(_ProactParadigmBase):
    """PROACT-inline: direct remote stores from the producer kernel."""

    name = "PROACT-inline"

    def __init__(self, elide_transfers: bool = False,
                 mechanisms: Optional[Mechanisms] = None) -> None:
        super().__init__(_INLINE_CONFIG, elide_transfers=elide_transfers,
                         mechanisms=mechanisms)


class ProactDecoupledParadigm(_ProactParadigmBase):
    """PROACT-decoupled under one explicit configuration."""

    name = "PROACT-decoupled"

    def __init__(self, config: ProactConfig = DEFAULT_CONFIG,
                 elide_transfers: bool = False,
                 mechanisms: Optional[Mechanisms] = None) -> None:
        if config.mechanism == MECH_INLINE:
            raise ValueError("decoupled paradigm needs a decoupled mechanism")
        super().__init__(config, elide_transfers=elide_transfers,
                         mechanisms=mechanisms)


class ProactHardwareParadigm(_ProactParadigmBase):
    """PROACT with the Section III-D hardware engine (future work).

    No tracking instrumentation, no SM resources stolen, descriptor-based
    initiation — the upper bound a hardware implementation of PROACT
    would reach on the same interconnect.
    """

    name = "PROACT-HW"

    def __init__(self, chunk_size: int = DEFAULT_CONFIG.chunk_size,
                 elide_transfers: bool = False,
                 mechanisms: Optional[Mechanisms] = None) -> None:
        super().__init__(
            ProactConfig(MECH_HARDWARE, chunk_size,
                         DEFAULT_CONFIG.transfer_threads),
            elide_transfers=elide_transfers,
            mechanisms=mechanisms)


def _unprofiled_config(toggles: Optional[Mechanisms],
                       ) -> Optional[ProactConfig]:
    """The configuration that runs with the profiler ablated (the
    framework default, inline if the agent is also gone), else ``None``:
    the configuration is selected."""
    if toggles is None or toggles.profiler_pruning:
        return None
    return DEFAULT_CONFIG if toggles.decoupled_agent else _INLINE_CONFIG


def _paradigm_for(config: ProactConfig,
                  toggles: Optional[Mechanisms]) -> Paradigm:
    if config.mechanism == MECH_INLINE:
        return ProactInlineParadigm(mechanisms=toggles)
    return ProactDecoupledParadigm(config, mechanisms=toggles)


def proact_runtime(workload, platform: PlatformSpec,
                   mechanisms: Optional[Mechanisms] = None) -> float:
    """End-to-end runtime of PROACT as deployed under one policy.

    The better of inline and :func:`decoupled_config_for`'s configuration
    (inline only with ``decoupled_agent`` ablated).  With
    ``profiler_pruning`` ablated nothing is selected and the framework
    default runs, exactly as in :class:`ProactAutoParadigm`.
    """
    fixed = _unprofiled_config(mechanisms)
    if fixed is not None:
        return _paradigm_for(fixed, mechanisms).execute(
            workload, platform).runtime
    configs = [_INLINE_CONFIG]
    if mechanisms is None or mechanisms.decoupled_agent:
        configs.append(decoupled_config_for(platform))
    return min(_paradigm_for(config, mechanisms).execute(
        workload, platform).runtime for config in configs)


class ProactAutoParadigm(Paradigm):
    """Full PROACT: profile first, then run the best configuration.

    Honors the ``profiler_pruning`` and ``decoupled_agent`` mechanism
    switches: with ``profiler_pruning`` ablated the profiler is skipped
    entirely and the hard-wired :data:`~repro.core.config.DEFAULT_CONFIG`
    runs; with ``decoupled_agent`` ablated only inline configurations
    are considered.
    """

    name = "PROACT"

    def __init__(self, profiler: Optional[Profiler] = None,
                 mechanisms: Optional[Mechanisms] = None) -> None:
        self._profiler = profiler
        self.mechanisms = mechanisms
        self.chosen_config: Optional[ProactConfig] = None

    def execute(self, workload, platform: PlatformSpec) -> ParadigmResult:
        toggles = self.mechanisms
        self.chosen_config = _unprofiled_config(toggles)
        if self.chosen_config is None:
            profiler = self._profiler or Profiler(platform, toggles=toggles)
            profile = profiler.profile(workload.phase_builder())
            self.chosen_config = profile.best_config
        result = _paradigm_for(self.chosen_config, toggles).execute(
            workload, platform)
        result.paradigm = self.name
        result.details["chosen_config"] = 0.0  # presence marker
        return result
