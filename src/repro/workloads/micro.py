"""The paper's microbenchmark (Section IV-C).

A synthetic compute kernel on a *source GPU* produces data needed in its
entirety by the *destination GPUs* for the next phase.  The compute time
is tuned so that it equals the data transfer time under ``cudaMemcpy`` —
the point of maximum overlap opportunity, where an ideal interconnect
would yield exactly a 2x speedup.  Each source thread block generates
4 KB of data.

Figures 4 and 6 are built on this workload.
"""

from __future__ import annotations

from typing import List

from repro.core.runtime import GpuPhaseWork
from repro.runtime.kernels import KernelSpec
from repro.runtime.system import System
from repro.units import KiB, MiB
from repro.workloads.base import FunctionalCheck, Workload
from repro.workloads.shared_memory import ReplicatedArray

#: Total data produced by the source GPU (Section IV-C).
DEFAULT_DATA_BYTES = 256 * MiB

#: Data generated per source thread block.
BYTES_PER_CTA = 4 * KiB


def memcpy_duplication_time(system: System, nbytes: int) -> float:
    """Analytic time to duplicate ``nbytes`` from GPU 0 to every peer.

    Copies from one GPU serialize on its DMA engine, each paying the
    host-side initiation overhead plus wire time at max-payload framing.
    """
    spec = system.spec
    fmt = spec.interconnect.fmt
    total = 0.0
    for dst in range(1, system.num_gpus):
        wire = fmt.message_wire_bytes(nbytes, fmt.max_payload)
        bandwidth = system.fabric.peak_p2p_bandwidth(0, dst)
        total += (spec.gpu.dma_init_overhead + wire / bandwidth
                  + spec.interconnect.latency)
    return total


class MicroBenchmark(Workload):
    """Tuned producer/consumer microbenchmark."""

    name = "micro"
    um_hint_fraction = 0.9
    um_touch_fraction = 1.0

    def __init__(self, data_bytes: int = DEFAULT_DATA_BYTES,
                 store_size: int = 8,
                 spatial_locality: float = 1.0,
                 readiness_shape: float = 1.0,
                 consumer_phase: bool = False) -> None:
        self.data_bytes = data_bytes
        self.store_size = store_size
        self.spatial_locality = spatial_locality
        self.readiness_shape = readiness_shape
        #: Add a second phase in which every destination GPU computes on
        #: the produced data (needed by consumer-pull paradigms).
        self.consumer_phase = consumer_phase

    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        gpu = system.gpus[0]
        compute_seconds = memcpy_duplication_time(system, self.data_bytes)
        flops = compute_seconds * gpu.spec.flops
        num_ctas = max(1, self.data_bytes // BYTES_PER_CTA)
        producer = GpuPhaseWork(
            kernel=KernelSpec("micro-producer", flops, 0.0, num_ctas),
            region_bytes=self.data_bytes if system.num_gpus > 1 else 0,
            store_size=self.store_size,
            spatial_locality=self.spatial_locality,
            readiness_shape=self.readiness_shape,
        )
        idle = GpuPhaseWork(
            kernel=KernelSpec("micro-idle", 0.0, 0.0, 1))
        phases = [[producer] + [idle] * (system.num_gpus - 1)]
        if self.consumer_phase:
            consumer = GpuPhaseWork(
                kernel=KernelSpec("micro-consumer", flops, 0.0, num_ctas))
            phases.append([consumer] * system.num_gpus)
        return phases

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          num_elements: int = 4096,
                          tolerance: float = 0.0) -> FunctionalCheck:
        """Producer fills a region; every consumer must see it all."""
        import numpy as np
        self._check_partitions(num_partitions)
        data = ReplicatedArray(num_elements, num_gpus=num_partitions)
        expected = np.sqrt(np.arange(num_elements, dtype=np.float64))
        data.write(0, slice(0, num_elements), expected)
        data.synchronize()
        data.assert_coherent()
        worst = 0.0
        for consumer in range(num_partitions):
            worst = max(worst, float(np.max(np.abs(
                data.local(consumer) - expected))))
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=1, max_abs_error=worst, passed=worst <= tolerance)
