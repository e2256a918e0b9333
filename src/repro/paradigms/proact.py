"""The PROACT paradigms: inline, decoupled, and profiler-selected.

* :class:`ProactInlineParadigm` — remote stores injected straight into
  the producer kernels (Listing 1's ``user_kernel_inline``).
* :class:`ProactDecoupledParadigm` — staging + readiness tracking + a
  decoupled transfer agent, under an explicit or profiled configuration.
* :class:`ProactAutoParadigm` — what the full framework does: run the
  compile-time profiler across inline and decoupled variants and execute
  with the best configuration (the paper's headline "PROACT" numbers
  take the best of inline/decoupled per application and platform).

Every paradigm accepts a ``mechanisms`` policy
(:class:`repro.core.config.Mechanisms`) that ablates individual PROACT
components; the default (``None``) leaves everything enabled.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import (
    DEFAULT_CONFIG,
    MECH_HARDWARE,
    MECH_INLINE,
    Mechanisms,
    ProactConfig,
)
from repro.core.profiler import Profiler
from repro.core.runtime import GpuPhaseWork, ProactPhaseExecutor
from repro.hw.platform import PlatformSpec
from repro.paradigms.base import Paradigm, ParadigmResult
from repro.runtime.system import System


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
        super().__init__(
            ProactConfig(MECH_INLINE, DEFAULT_CONFIG.chunk_size,
                         DEFAULT_CONFIG.transfer_threads),
            elide_transfers=elide_transfers,
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
        if toggles is not None and not toggles.profiler_pruning:
            # Profiler ablated: no configuration selection, run the
            # framework default (inline if the agent is also gone).
            if toggles.decoupled_agent:
                self.chosen_config = DEFAULT_CONFIG
            else:
                self.chosen_config = ProactConfig(
                    MECH_INLINE, DEFAULT_CONFIG.chunk_size,
                    DEFAULT_CONFIG.transfer_threads)
        else:
            profiler = self._profiler or Profiler(platform, toggles=toggles)
            profile = profiler.profile(workload.phase_builder())
            self.chosen_config = profile.best_config
        if self.chosen_config.mechanism == MECH_INLINE:
            delegate: Paradigm = ProactInlineParadigm(mechanisms=toggles)
        else:
            delegate = ProactDecoupledParadigm(self.chosen_config,
                                               mechanisms=toggles)
        result = delegate.execute(workload, platform)
        result.paradigm = self.name
        result.details["chosen_config"] = 0.0  # presence marker
        return result
