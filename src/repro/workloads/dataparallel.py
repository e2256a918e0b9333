"""Data-parallel training: compute a local gradient, all-reduce it.

The canonical consumer of an all-reduce.  Every GPU holds a full model
replica and a shard of the batch; each step runs forward+backward to
produce a local gradient, then the GPUs all-reduce the gradients so every
replica applies the same averaged update.  The gradient payload equals
the model size, which is what makes the collective the scaling
bottleneck — and what the (algorithm x chunk size) pick of the
Collectives experiment directly buys back.

Two coupled layers, like every workload here (:mod:`repro.workloads.base`):

* **timing** — :meth:`DataParallelTraining.build_phases` for the PROACT
  paradigm machinery, plus :func:`run_training`, a driver that runs the
  real step loop (compute kernels, then :meth:`System.collective`) on a
  simulated system and reports per-step time split into compute and
  communication.
* **functional** — partitioned linear-regression gradients summed by an
  actual reduction, checked against the single-device full-batch
  gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.runtime import GpuPhaseWork
from repro.errors import WorkloadError
from repro.runtime.kernels import KernelSpec
from repro.runtime.system import System
from repro.units import KiB, MiB
from repro.workloads.base import FunctionalCheck, Workload, partition_range

#: Default model (= gradient payload) size; a mid-size CNN in fp32.
DEFAULT_MODEL_BYTES = 16 * MiB

#: Default optimisation steps the timing driver runs.
DEFAULT_STEPS = 3

#: Forward+backward FLOPs executed per model byte per step.  Roughly
#: three passes over the weights (forward, backward-data,
#: backward-weights) at a handful of FLOPs per parameter touch.
FLOPS_PER_MODEL_BYTE = 24.0

#: Gradient bytes produced per thread block (mirrors the micro kernel).
BYTES_PER_CTA = 4 * KiB


@dataclass(frozen=True)
class TrainingStep:
    """Timing of one optimisation step on the simulated system."""

    step: int
    compute_time: float
    comm_time: float

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time


@dataclass(frozen=True)
class TrainingRunResult:
    """Outcome of a :func:`run_training` driver run."""

    platform: str
    num_gpus: int
    model_bytes: int
    algorithm: str
    chunk_size: int
    steps: Tuple[TrainingStep, ...]

    @property
    def total_time(self) -> float:
        return sum(step.total_time for step in self.steps)

    @property
    def compute_time(self) -> float:
        return sum(step.compute_time for step in self.steps)

    @property
    def comm_time(self) -> float:
        return sum(step.comm_time for step in self.steps)

    @property
    def comm_fraction(self) -> float:
        """Fraction of the run spent in the gradient all-reduce."""
        total = self.total_time
        if total <= 0:
            return 0.0
        return self.comm_time / total


class DataParallelTraining(Workload):
    """Synchronous data-parallel SGD over replicated model weights."""

    name = "dataparallel"
    um_hint_fraction = 0.9
    um_touch_fraction = 1.0

    def __init__(self, model_bytes: int = DEFAULT_MODEL_BYTES,
                 steps: int = DEFAULT_STEPS,
                 flops_per_byte: float = FLOPS_PER_MODEL_BYTE) -> None:
        if model_bytes < 1:
            raise WorkloadError(f"need >= 1 model byte: {model_bytes}")
        if steps < 1:
            raise WorkloadError(f"need >= 1 training step: {steps}")
        if flops_per_byte <= 0:
            raise WorkloadError(
                f"flops per byte must be > 0: {flops_per_byte}")
        self.model_bytes = model_bytes
        self.steps = steps
        self.flops_per_byte = flops_per_byte

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    def step_flops(self) -> float:
        """Forward+backward FLOPs per GPU per step."""
        return self.model_bytes * self.flops_per_byte

    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        """Each step: every GPU computes and emits its gradient region.

        Under the PROACT paradigms the gradient region is what the
        decoupled transfer machinery distributes between steps — the
        bulk-synchronous analogue of the explicit collective the
        :func:`run_training` driver issues.
        """
        num_ctas = max(1, self.model_bytes // BYTES_PER_CTA)
        work = GpuPhaseWork(
            kernel=KernelSpec("dp-fwd-bwd", self.step_flops(), 0.0,
                              num_ctas),
            region_bytes=self.model_bytes if system.num_gpus > 1 else 0,
        )
        return [[work] * system.num_gpus for _ in range(self.steps)]

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          num_samples: int = 512,
                          num_features: int = 32,
                          tolerance: float = 1e-9) -> FunctionalCheck:
        """Partitioned linear-regression gradients vs. the full batch.

        Each virtual GPU computes the least-squares gradient of its batch
        shard, ``X_iᵀ (X_i w - y_i)``; the reduction (the all-reduce's
        arithmetic) must reproduce the single-device full-batch gradient
        exactly up to floating-point association.
        """
        import numpy as np
        self._check_partitions(num_partitions)
        rng = np.random.default_rng(20210614)
        features = rng.standard_normal((num_samples, num_features))
        weights = rng.standard_normal(num_features)
        targets = features @ rng.standard_normal(num_features)

        reference = features.T @ (features @ weights - targets)
        reduced = np.zeros(num_features)
        for part in range(num_partitions):
            start, stop = partition_range(num_samples, num_partitions, part)
            shard_x = features[start:stop]
            shard_y = targets[start:stop]
            reduced += shard_x.T @ (shard_x @ weights - shard_y)
        worst = float(np.max(np.abs(reduced - reference)))
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=1, max_abs_error=worst, passed=worst <= tolerance)


def run_training(system: System,
                 workload: Optional[DataParallelTraining] = None,
                 algorithm: str = "ring",
                 chunk_size: Optional[int] = None) -> TrainingRunResult:
    """Run the synchronous step loop on a simulated system.

    Per step: every device launches its forward+backward kernel sized
    from the workload's FLOP budget; once all kernels retire, the
    gradients cross the fabric via ``system.collective("all_reduce",
    ...)`` under the given algorithm and chunk size.  Returns the
    per-step compute/communication split.
    """
    workload = workload or DataParallelTraining()
    compute_seconds = workload.step_flops() / system.spec.gpu.flops
    steps: List[TrainingStep] = []

    def _step_process(step: int):
        engine = system.engine
        started = engine.now
        kernels = [device.launch_kernel(
            f"dp-fwd-bwd:s{step}", compute_seconds)
            for device in system.devices]
        yield engine.all_of([kernel.done for kernel in kernels])
        compute_done = engine.now
        yield system.collective("all_reduce", workload.model_bytes,
                                algorithm=algorithm, chunk_size=chunk_size)
        steps.append(TrainingStep(
            step=step, compute_time=compute_done - started,
            comm_time=engine.now - compute_done))

    def _loop():
        for step in range(workload.steps):
            yield system.engine.process(
                _step_process(step), name=f"dp-step:{step}")

    loop = system.engine.process(_loop(), name="dp-train")
    system.run(until=loop)
    schedule_chunk = chunk_size
    if schedule_chunk is None:
        from repro.core.config import DEFAULT_CONFIG
        schedule_chunk = DEFAULT_CONFIG.chunk_size
    return TrainingRunResult(
        platform=system.spec.name,
        num_gpus=system.num_gpus,
        model_bytes=workload.model_bytes,
        algorithm=algorithm,
        chunk_size=schedule_chunk,
        steps=tuple(steps))
