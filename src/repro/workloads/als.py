"""Alternating Least Squares matrix factorization (Section IV-C).

Two phases per iteration: fix the item factors and update user factors,
then vice versa.  Each GPU owns a slice of the factor matrix being
updated and must publish it to all peers before the opposite phase.

ALS is the paper's showcase for decoupled transfers: factor rows are
touched many times in rating order during the update, so inline remote
stores both scatter badly *and* repeat — the paper measures 26x more
store transactions inline than decoupled on 4x Volta.  The workload
models this as write amplification on the inline path via its low
spatial locality and repeated-update factor.
"""

from __future__ import annotations

import math
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
from repro.workloads.datasets import rating_matrix
from repro.workloads.shared_memory import ReplicatedArray

#: Ridge regularization for the functional solver.
REGULARIZATION = 0.1


class AlsWorkload(Workload):
    """ALS-based matrix factorization at HV15R scale."""

    name = "ALS"
    um_hint_fraction = 0.2
    um_touch_fraction = 1.0

    def __init__(self, num_users: int = 500_000,
                 num_items: int = 500_000,
                 num_ratings: int = 283_000_000,
                 factors: int = 16,
                 iterations: int = 3,
                 rows_per_cta: int = 128) -> None:
        self.num_users = num_users
        self.num_items = num_items
        self.num_ratings = num_ratings
        self.factors = factors
        self.iterations = iterations
        self.rows_per_cta = rows_per_cta

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    #: Rating partitions are skewed by user/item popularity.
    imbalance = 0.12

    def _phase(self, system: System, num_rows: int,
               label: str) -> List[GpuPhaseWork]:
        n = system.num_gpus
        rows = num_rows // n
        ratings = self.num_ratings // n
        row_bytes = self.factors * 8
        # Per rating: stream the rating record; the gathered factor rows
        # are cache-resident.  Per row: read + write its own factors.
        local_bytes = ratings * 24 + rows * row_bytes * 2
        flops = ratings * self.factors * 6
        num_ctas = math.ceil(rows / self.rows_per_cta)
        region_bytes = rows * row_bytes if n > 1 else 0
        works = []
        for gpu_id in range(n):
            skew = imbalance_factor(gpu_id, n, self.imbalance)
            works.append(GpuPhaseWork(
                kernel=KernelSpec(f"als-{label}", flops * skew,
                                  local_bytes * skew, num_ctas),
                region_bytes=region_bytes,
                store_size=8,
                spatial_locality=0.05,  # rating-order scatter
                readiness_shape=3.0,
                # SGD touches a factor row once per rating; inline pushes
                # every intermediate update over the interconnect, while
                # decoupled staging sends only the final row (the paper's
                # 26x store-transaction gap on 4x Volta).
                inline_write_amplification=2.0,
                peer_fraction=consumer_peer_fraction(n, floor=0.25),
            ))
        return works

    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        phases: List[List[GpuPhaseWork]] = []
        for _ in range(self.iterations):
            phases.append(self._phase(system, self.num_users, "users"))
            phases.append(self._phase(system, self.num_items, "items"))
        return strip_final_phase_regions(phases)

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          num_users: int = 120, num_items: int = 90,
                          num_ratings: int = 2500, factors: int = 4,
                          iterations: int = 6,
                          tolerance: float = 1e-9) -> FunctionalCheck:
        import numpy as np
        self._check_partitions(num_partitions)
        data = rating_matrix(num_users, num_items, num_ratings,
                             rank=factors, seed=41)
        multi, rmse_multi = _als_partitioned(
            data, num_users, num_items, factors, iterations, num_partitions)
        reference, rmse_ref = _als_partitioned(
            data, num_users, num_items, factors, iterations, 1)
        error = float(np.max(np.abs(multi - reference)))
        improved = rmse_multi[-1] < rmse_multi[0]
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=iterations, max_abs_error=error,
            passed=error <= tolerance and improved)


def _als_partitioned(data, num_users, num_items, factors, iterations,
                     num_partitions):
    """Alternating ridge solves over PROACT-style replicated factors."""
    import numpy as np
    user_ids, item_ids, ratings = data
    rng = np.random.default_rng(43)
    initial_users = rng.normal(scale=0.1, size=(num_users, factors))
    initial_items = rng.normal(scale=0.1, size=(num_items, factors))
    users = ReplicatedArray((num_users, factors), num_gpus=num_partitions)
    items = ReplicatedArray((num_items, factors), num_gpus=num_partitions)
    for part in range(num_partitions):
        start, stop = partition_range(num_users, num_partitions, part)
        users.write(part, slice(start, stop), initial_users[start:stop])
        start, stop = partition_range(num_items, num_partitions, part)
        items.write(part, slice(start, stop), initial_items[start:stop])
    users.synchronize()
    items.synchronize()

    def solve_side(owned, fixed, own_ids, fixed_ids, num_owned):
        for part in range(num_partitions):
            start, stop = partition_range(num_owned, num_partitions, part)
            fixed_local = fixed.local(part)
            updated = owned.local(part)[start:stop].copy()
            for row in range(start, stop):
                mask = own_ids == row
                if not np.any(mask):
                    continue
                design = fixed_local[fixed_ids[mask]]
                gram = design.T @ design + REGULARIZATION * np.eye(factors)
                rhs = design.T @ ratings[mask]
                updated[row - start] = np.linalg.solve(gram, rhs)
            owned.write(part, slice(start, stop), updated)
        owned.synchronize()
        owned.assert_coherent()

    def rmse():
        predictions = np.einsum(
            "ij,ij->i", users.local(0)[user_ids], items.local(0)[item_ids])
        return float(np.sqrt(np.mean((predictions - ratings) ** 2)))

    history = [rmse()]
    for _ in range(iterations):
        solve_side(users, items, user_ids, item_ids, num_users)
        solve_side(items, users, item_ids, user_ids, num_items)
        history.append(rmse())
    return users.local(0).copy(), history
