"""The paradigm interface: one multi-GPU communication strategy.

A paradigm executes a workload's phases on a platform and reports the
end-to-end runtime plus transfer statistics.  The five paradigms compared
in the paper's Section IV-B all implement this interface, so experiments
can sweep them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.runtime import GpuPhaseWork
from repro.errors import WorkloadError
from repro.hw.platform import PlatformSpec
from repro.runtime.system import System


@dataclass
class ParadigmResult:
    """Outcome of running one workload under one paradigm."""

    paradigm: str
    platform: str
    workload: str
    runtime: float
    bytes_moved: int = 0
    wire_bytes: int = 0
    phase_durations: List[float] = field(default_factory=list)
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def interconnect_efficiency(self) -> float:
        if self.wire_bytes == 0:
            return 0.0
        return self.bytes_moved / self.wire_bytes


class Paradigm:
    """Base class for multi-GPU communication paradigms."""

    name = "base"

    #: Mechanism-ablation policy (:class:`repro.core.config.Mechanisms`)
    #: threaded into every system this paradigm builds.  ``None`` means
    #: all mechanisms enabled.  Constructors may accept it, and
    #: :class:`repro.api.Session` injects its own when the paradigm did
    #: not choose one.
    mechanisms = None

    def execute(self, workload, platform: PlatformSpec) -> ParadigmResult:
        """Run ``workload`` on ``platform``; returns timing and stats."""
        system = System(platform, infinite_bw=self._wants_infinite_fabric(),
                        mechanisms=self.mechanisms,
                        **self._system_kwargs())
        phases = workload.phase_builder()(system)
        if not phases:
            raise WorkloadError(
                f"workload {workload.name!r} produced no phases")
        result = ParadigmResult(
            paradigm=self.name, platform=platform.name,
            workload=workload.name, runtime=0.0)
        driver = system.engine.process(
            self._drive(system, workload, phases, result),
            name=f"{self.name}:{workload.name}")
        system.run(until=driver)
        system._finish()
        result.runtime = system.now
        result.bytes_moved = system.fabric.total_goodput_bytes()
        result.wire_bytes = system.fabric.total_wire_bytes()
        if system.fabric.links and result.runtime > 0:
            utilizations = [link.utilization(result.runtime)
                            for link in system.fabric.links]
            result.details["mean_link_utilization"] = (
                sum(utilizations) / len(utilizations))
            result.details["peak_link_utilization"] = max(utilizations)
        return result

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _wants_infinite_fabric(self) -> bool:
        return False

    def _system_kwargs(self) -> Dict:
        """Extra ``System`` construction arguments (e.g. DMA engines)."""
        return {}

    def _drive(self, system: System, workload,
               phases: Sequence[Sequence[GpuPhaseWork]],
               result: ParadigmResult):
        """Generator driving all phases; subclasses implement."""
        raise NotImplementedError


def launch_phase_kernels(system: System, works: Sequence[GpuPhaseWork],
                         extra_work: Optional[Sequence[float]] = None):
    """Launch every GPU's kernel for one phase; returns the launches.

    ``extra_work`` optionally adds per-GPU seconds to the kernel (e.g.
    inline store-issue work).  Used by the paradigms that do not need
    PROACT's milestone machinery.
    """
    launches = []
    for gpu_id, work in enumerate(works):
        gpu = system.gpus[gpu_id]
        kernel_work = work.kernel.uncontended_time(gpu)
        if extra_work is not None:
            kernel_work += extra_work[gpu_id]
        launches.append(system.devices[gpu_id].launch_kernel(
            work.kernel.name, kernel_work))
    return launches
