"""Workload base: the dual-layer application model.

Every benchmark application from the paper's Section IV-C is implemented
in two coupled layers:

* a **functional layer** — the real algorithm (NumPy) executed over data
  partitioned across *virtual GPUs*, exchanging partition results through
  a :class:`~repro.workloads.shared_memory.ReplicatedArray` (the
  functional analogue of PROACT's 1:1 replicated regions).  Each workload
  verifies its multi-GPU result against a single-device reference,
  proving the shared-memory semantics carry the algorithm correctly.
  NumPy and SciPy are imported inside the functions that compute on
  data, so they load only when a functional check runs; importing a
  workload or simulating it never loads them.
* a **timing layer** — a :class:`~repro.core.profiler.PhaseBuilder`
  producing per-phase, per-GPU :class:`~repro.core.runtime.GpuPhaseWork`
  (FLOPs, memory traffic, CTA counts, region bytes, write-locality
  characteristics) at the paper's dataset scale, consumed by the
  simulator and the paradigms.

Strong scaling: the *total* work is fixed; each GPU gets ``1/N`` of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.profiler import PhaseBuilder
from repro.core.runtime import GpuPhaseWork
from repro.errors import WorkloadError
from repro.runtime.system import System


@dataclass(frozen=True)
class FunctionalCheck:
    """Result of one functional verification run."""

    workload: str
    num_partitions: int
    iterations: int
    max_abs_error: float
    passed: bool


class Workload:
    """Base class for the paper's benchmark applications."""

    #: Name used in reports (matches the paper's figures).
    name = "base"
    #: Fraction of UM traffic an expert can cover with hints (Section IV-B).
    um_hint_fraction = 0.5
    #: Fraction of duplicated bytes UM actually needs to migrate (UM's
    #: touch-only advantage over wholesale cudaMemcpy duplication).
    um_touch_fraction = 1.0

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        """Produce the per-phase, per-GPU work for ``system``."""
        raise NotImplementedError

    def phase_builder(self) -> PhaseBuilder:
        """Adapter to the profiler/paradigm phase-builder signature."""
        return self.build_phases

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4) -> FunctionalCheck:
        """Run the real algorithm partitioned vs. single-device reference."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_partitions(num_partitions: int) -> None:
        if num_partitions < 1:
            raise WorkloadError(
                f"need >= 1 partition: {num_partitions}")

    def __repr__(self) -> str:
        return f"<Workload {self.name}>"


def consumer_peer_fraction(num_gpus: int, floor: float = 0.2) -> float:
    """Fraction of a producer's region each individual peer consumes.

    Up to 4 GPUs every consumer effectively reads every producer's whole
    region (full replication — the regime of the paper's Figure 7).
    Beyond that, each consumer kernel processes a shrinking slice of the
    problem and PROACT's per-peer mappings send it only that slice;
    ``floor`` captures data that stays globally hot regardless of scale
    (power-law hubs, shared halos).

    >>> consumer_peer_fraction(4)
    1.0
    >>> consumer_peer_fraction(16, floor=0.2)
    0.2
    """
    if not 0.0 < floor <= 1.0:
        raise WorkloadError(f"floor out of (0, 1]: {floor}")
    if num_gpus <= 4:
        return 1.0
    return max(floor, min(1.0, 3.0 / (num_gpus - 1)))


def strip_final_phase_regions(
        phases: List[List[GpuPhaseWork]]) -> List[List[GpuPhaseWork]]:
    """Remove the shared-region output of the last phase.

    The final iteration's result is the answer — no later kernel consumes
    it, so no paradigm needs to distribute it.  Stripping it keeps the
    comparison uniform: bulk copies, UM migrations, and PROACT transfers
    all move exactly the data some consumer will read.
    """
    if not phases:
        return phases
    return phases[:-1] + [[work.without_region() for work in phases[-1]]]


def imbalance_factor(gpu_id: int, num_gpus: int, imbalance: float) -> float:
    """Deterministic per-GPU load skew for the timing layer.

    Real partitionings are never perfectly even (power-law graphs
    especially); the slowest GPU gets ``1 + imbalance`` times the mean
    work.  This is why the paper's infinite-bandwidth limit averages
    3.6x — not 4x — on 4 GPUs.

    >>> imbalance_factor(3, 4, 0.12)
    1.12
    >>> imbalance_factor(0, 1, 0.5)
    1.0
    """
    if not 0.0 <= imbalance < 1.0:
        raise WorkloadError(f"imbalance out of [0, 1): {imbalance}")
    if num_gpus <= 1:
        return 1.0
    return 1.0 + imbalance * gpu_id / (num_gpus - 1)


def partition_range(total: int, num_partitions: int, index: int):
    """Contiguous partition ``index`` of ``range(total)`` as (start, stop).

    Distributes any remainder across the leading partitions so sizes
    differ by at most one.

    >>> partition_range(10, 4, 0)
    (0, 3)
    >>> partition_range(10, 4, 3)
    (8, 10)
    """
    if num_partitions < 1:
        raise WorkloadError(f"need >= 1 partition: {num_partitions}")
    if not 0 <= index < num_partitions:
        raise WorkloadError(
            f"partition index {index} out of range 0..{num_partitions - 1}")
    base, remainder = divmod(total, num_partitions)
    start = index * base + min(index, remainder)
    stop = start + base + (1 if index < remainder else 0)
    return start, stop
