"""Jacobi solver for banded linear systems (Section IV-C).

``x_new = (b - offdiag(A) x) / diag(A)`` iterated to convergence on a
diagonally dominant banded matrix (the structure of finite-element
problems).  Each GPU owns a contiguous slice of ``x`` and publishes it
each iteration.

Writes land densely in increasing address order, so inline remote stores
coalesce perfectly — this is one of the applications where the paper's
profiler picks PROACT-inline on Kepler and Pascal (Table II), with
decoupled polling winning on Volta only because the interconnect is fast
enough that decoupling's efficiency gain outweighs the software agent's
cost there.
"""

from __future__ import annotations

import math
import typing
from typing import List

from repro.core.runtime import GpuPhaseWork
from repro.runtime.kernels import KernelSpec
from repro.runtime.system import System
from repro.workloads.base import (
    FunctionalCheck,
    Workload,
    consumer_peer_fraction,
    imbalance_factor,
    partition_range,
    strip_final_phase_regions,
)
from repro.workloads.datasets import banded_matrix
from repro.workloads.shared_memory import ReplicatedArray

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class JacobiWorkload(Workload):
    """Banded Jacobi iteration at finite-element scale."""

    name = "Jacobi"
    um_hint_fraction = 0.9   # regular accesses hint beautifully
    um_touch_fraction = 0.3  # consumers only touch halo regions

    def __init__(self, num_unknowns: int = 8_000_000,
                 bandwidth: int = 50,
                 iterations: int = 6,
                 rows_per_cta: int = 2048) -> None:
        self.num_unknowns = num_unknowns
        self.bandwidth = bandwidth
        self.iterations = iterations
        self.rows_per_cta = rows_per_cta

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    #: Banded rows split almost perfectly evenly.
    imbalance = 0.04

    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        n = system.num_gpus
        rows = self.num_unknowns // n
        diagonals = 2 * self.bandwidth + 1
        # Per row: stream the band coefficients + gather x values + write.
        local_bytes = rows * (diagonals * 12 + 24)
        flops = rows * diagonals * 2
        num_ctas = math.ceil(rows / self.rows_per_cta)
        region_bytes = rows * 8 if n > 1 else 0
        works = []
        for gpu_id in range(n):
            skew = imbalance_factor(gpu_id, n, self.imbalance)
            works.append(GpuPhaseWork(
                kernel=KernelSpec("jacobi", flops * skew, local_bytes * skew,
                                  num_ctas),
                region_bytes=region_bytes,
                store_size=8,
                spatial_locality=1.0,   # dense, address-ordered writes
                readiness_shape=1.0,
                peer_fraction=consumer_peer_fraction(n, floor=0.2),
            ))
        return strip_final_phase_regions(
            [works for _ in range(self.iterations)])

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          size: int = 300, bandwidth: int = 4,
                          iterations: int = 60,
                          tolerance: float = 1e-9) -> FunctionalCheck:
        import numpy as np
        self._check_partitions(num_partitions)
        diagonals, offsets = banded_matrix(size, bandwidth, seed=47)
        rng = np.random.default_rng(53)
        rhs = rng.uniform(-1.0, 1.0, size=size)
        multi = _jacobi_partitioned(diagonals, offsets, rhs, iterations,
                                    num_partitions)
        reference = _jacobi_partitioned(diagonals, offsets, rhs, iterations,
                                        1)
        partition_error = float(np.max(np.abs(multi - reference)))
        # Also check the answer actually solves the system.
        dense = _densify(diagonals, offsets)
        residual = float(np.max(np.abs(dense @ multi - rhs)))
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=iterations, max_abs_error=partition_error,
            passed=partition_error <= tolerance and residual < 1e-6)


def _densify(diagonals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    import numpy as np
    size = diagonals.shape[1]
    dense = np.zeros((size, size))
    for diag, offset in zip(diagonals, offsets):
        for row in range(size):
            col = row + offset
            if 0 <= col < size:
                dense[row, col] = diag[row]
    return dense


def _apply_offdiagonal(diagonals: np.ndarray, offsets: np.ndarray,
                       x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """(offdiag(A) @ x)[start:stop] for the banded representation."""
    import numpy as np
    size = diagonals.shape[1]
    result = np.zeros(stop - start)
    rows = np.arange(start, stop)
    for diag, offset in zip(diagonals, offsets):
        if offset == 0:
            continue
        cols = rows + offset
        valid = (cols >= 0) & (cols < size)
        result[valid] += diag[rows[valid]] * x[cols[valid]]
    return result


def _jacobi_partitioned(diagonals: np.ndarray, offsets: np.ndarray,
                        rhs: np.ndarray, iterations: int,
                        num_partitions: int) -> np.ndarray:
    """Jacobi iteration over a PROACT-style replicated solution vector."""
    size = diagonals.shape[1]
    center = len(offsets) // 2
    x = ReplicatedArray(size, num_gpus=num_partitions)
    for _ in range(iterations):
        for part in range(num_partitions):
            start, stop = partition_range(size, num_partitions, part)
            local_x = x.local(part)
            off = _apply_offdiagonal(diagonals, offsets, local_x,
                                     start, stop)
            x.write(part, slice(start, stop),
                    (rhs[start:stop] - off) / diagonals[center][start:stop])
        x.synchronize()
        x.assert_coherent()
    return x.local(0).copy()
