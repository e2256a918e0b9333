"""2-D heat-diffusion stencil: a sixth application beyond the paper's five.

Iterative 5-point Jacobi relaxation of the heat equation on a square
grid with fixed (Dirichlet) boundaries — the archetypal HPC pattern the
paper's related-work section is full of auto-tuners for.  Each GPU owns
a contiguous block of rows and publishes it every sweep; consumers only
actually *read* the halo rows adjacent to their block, making this the
strongest case for UM's touch-driven migration and for PROACT's
per-peer mappings.

Like every workload here it is dual-layer: a NumPy functional layer
verified against a single-device reference (plus a discrete maximum
principle check), and a paper-scale timing layer.
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
    imbalance_factor,
    partition_range,
    strip_final_phase_regions,
)
from repro.workloads.shared_memory import ReplicatedArray

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class Heat2DWorkload(Workload):
    """5-point heat-diffusion stencil on a 2-D grid."""

    name = "Heat2D"
    um_hint_fraction = 0.9   # perfectly regular: hints cover everything
    um_touch_fraction = 0.2  # consumers read only halo rows

    #: Row blocks split almost evenly.
    imbalance = 0.04

    def __init__(self, grid_side: int = 16_384,
                 iterations: int = 6,
                 rows_per_cta: int = 8,
                 exchange_rows: int = 64) -> None:
        self.grid_side = grid_side
        self.iterations = iterations
        self.rows_per_cta = rows_per_cta
        #: Rows per block edge published to peers each sweep (the halo
        #: band plus the prefetch depth real stencil codes exchange).
        self.exchange_rows = exchange_rows

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        n = system.num_gpus
        rows = self.grid_side // n
        cells = rows * self.grid_side
        # Per cell: 5 gathered reads + 1 write of 8 B values, plus the
        # coefficients; flops: 5 multiply-adds.
        local_bytes = cells * 48
        flops = cells * 10
        num_ctas = math.ceil(rows / self.rows_per_cta)
        # Shared per sweep: the halo bands at both block edges.
        band_rows = min(rows, 2 * self.exchange_rows)
        region_bytes = band_rows * self.grid_side * 8 if n > 1 else 0
        # Only the two adjacent blocks consume a block's halo bands.
        stencil_peer_fraction = min(1.0, 2.0 / max(1, n - 1))
        works = []
        for gpu_id in range(n):
            skew = imbalance_factor(gpu_id, n, self.imbalance)
            works.append(GpuPhaseWork(
                kernel=KernelSpec("heat2d", flops * skew,
                                  local_bytes * skew, num_ctas),
                region_bytes=region_bytes,
                store_size=8,
                spatial_locality=1.0,   # row-major, address-ordered
                readiness_shape=1.0,
                peer_fraction=stencil_peer_fraction,
            ))
        return strip_final_phase_regions(
            [works for _ in range(self.iterations)])

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          grid_side: int = 48, iterations: int = 25,
                          tolerance: float = 1e-12) -> FunctionalCheck:
        import numpy as np
        self._check_partitions(num_partitions)
        multi = _heat_partitioned(grid_side, iterations, num_partitions)
        reference = _heat_partitioned(grid_side, iterations, 1)
        partition_error = float(np.max(np.abs(multi - reference)))
        # Discrete maximum principle: interior values stay within the
        # range spanned by the boundary/initial condition.
        principle_ok = bool(np.all(multi >= -1e-12)
                            and np.all(multi <= 1.0 + 1e-12))
        # Diffusion must actually spread heat into the interior.
        interior_warmed = float(multi[grid_side // 2, grid_side // 2]) > 0
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=iterations, max_abs_error=partition_error,
            passed=(partition_error <= tolerance and principle_ok
                    and interior_warmed))


def _initial_grid(side: int) -> np.ndarray:
    """Cold interior with a hot top edge (classic test problem)."""
    import numpy as np
    grid = np.zeros((side, side))
    grid[0, :] = 1.0
    return grid


def _heat_partitioned(side: int, iterations: int,
                      num_partitions: int) -> np.ndarray:
    """Heat relaxation over a PROACT-style replicated grid.

    Row blocks are owned by partitions; every sweep each partition
    recomputes its interior rows from the coherent previous grid and
    publishes them.
    """
    grid = ReplicatedArray((side, side), num_gpus=num_partitions)
    for part in range(num_partitions):
        start, stop = partition_range(side, num_partitions, part)
        grid.write(part, (slice(start, stop), slice(None)),
                   _initial_grid(side)[start:stop])
    grid.synchronize()
    for _ in range(iterations):
        for part in range(num_partitions):
            start, stop = partition_range(side, num_partitions, part)
            current = grid.local(part)
            new_rows = current[start:stop].copy()
            lo = max(start, 1)
            hi = min(stop, side - 1)
            if lo < hi:
                rows = slice(lo, hi)
                new_rows[lo - start:hi - start, 1:-1] = 0.25 * (
                    current[lo - 1:hi - 1, 1:-1]
                    + current[lo + 1:hi + 1, 1:-1]
                    + current[rows, :-2]
                    + current[rows, 2:])
            grid.write(part, (slice(start, stop), slice(None)), new_rows)
        grid.synchronize()
        grid.assert_coherent()
    return grid.local(0).copy()
