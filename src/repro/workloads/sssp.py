"""Single-Source Shortest Path via Bellman-Ford (Section IV-C).

Each iteration, every GPU relaxes the distances of its vertex partition
against the full (replicated) distance vector and publishes its slice.
Like PageRank, update order is sporadic, so the profiler favours
decoupled transfers everywhere (Table II); per-iteration communication is
moderate (distance + predecessor + active flag per vertex).
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
from repro.workloads.datasets import CsrGraph, road_like_graph
from repro.workloads.shared_memory import ReplicatedArray

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: Sentinel for unreachable vertices.
INFINITY = math.inf


class SsspWorkload(Workload):
    """Bellman-Ford SSSP on an HV15R-scale sparse graph."""

    name = "SSSP"
    um_hint_fraction = 0.25
    um_touch_fraction = 1.0

    def __init__(self, num_vertices: int = 2_017_169,
                 num_edges: int = 283_073_458,
                 iterations: int = 8,
                 vertices_per_cta: int = 256) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.iterations = iterations
        self.vertices_per_cta = vertices_per_cta

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    #: Sparse-matrix row partitions carry uneven nonzero counts.
    imbalance = 0.12

    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        n = system.num_gpus
        vertices = self.num_vertices // n
        edges = self.num_edges // n
        # Per edge: index read + gathered distance + weight (16 B);
        # per vertex: distance/predecessor/active state (24 B).
        local_bytes = edges * 16 + vertices * 24
        flops = edges * 2
        num_ctas = math.ceil(vertices / self.vertices_per_cta)
        region_bytes = vertices * 24 if n > 1 else 0
        works = []
        for gpu_id in range(n):
            skew = imbalance_factor(gpu_id, n, self.imbalance)
            works.append(GpuPhaseWork(
                kernel=KernelSpec("sssp", flops * skew, local_bytes * skew,
                                  num_ctas),
                region_bytes=region_bytes,
                store_size=8,
                spatial_locality=0.1,
                readiness_shape=2.5,
                # Bellman-Ford relaxes a vertex's distance several times
                # within one kernel; inline pushes every intermediate.
                inline_write_amplification=1.75,
                peer_fraction=consumer_peer_fraction(n, floor=0.25),
            ))
        return strip_final_phase_regions(
            [works for _ in range(self.iterations)])

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          num_vertices: int = 400,
                          source: int = 0,
                          tolerance: float = 0.0) -> FunctionalCheck:
        import numpy as np
        self._check_partitions(num_partitions)
        graph = road_like_graph(num_vertices, seed=31)
        weights = _edge_weights(graph)
        multi, iterations = _bellman_ford_partitioned(
            graph, weights, source, num_partitions)
        reference, _ = _bellman_ford_partitioned(graph, weights, source, 1)
        finite = np.isfinite(reference)
        error = float(np.max(np.abs(multi[finite] - reference[finite])))
        same_reachability = bool(np.all(np.isfinite(multi) == finite))
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=iterations, max_abs_error=error,
            passed=same_reachability and error <= tolerance)


def _edge_weights(graph: CsrGraph) -> np.ndarray:
    """Deterministic positive edge weights derived from endpoints."""
    import numpy as np
    sources = np.repeat(np.arange(graph.num_vertices), graph.out_degree())
    return 1.0 + ((sources * 31 + graph.indices * 17) % 97) / 97.0


def _transpose_with_weights(graph: CsrGraph, weights: np.ndarray):
    import numpy as np
    num_vertices = graph.num_vertices
    tindptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(tindptr[1:], graph.indices, 1)
    np.cumsum(tindptr, out=tindptr)
    tindices = np.empty(graph.num_edges, dtype=np.int64)
    tweights = np.empty(graph.num_edges)
    cursor = tindptr[:-1].copy()
    sources = np.repeat(np.arange(num_vertices), graph.out_degree())
    for src, dst, weight in zip(sources, graph.indices, weights):
        tindices[cursor[dst]] = src
        tweights[cursor[dst]] = weight
        cursor[dst] += 1
    return tindptr, tindices, tweights


def _bellman_ford_partitioned(graph: CsrGraph, weights: np.ndarray,
                              source: int, num_partitions: int):
    """Pull-based Bellman-Ford over PROACT-style replicated distances."""
    import numpy as np
    num_vertices = graph.num_vertices
    tindptr, tindices, tweights = _transpose_with_weights(graph, weights)
    distances = ReplicatedArray(num_vertices, num_gpus=num_partitions,
                                fill=INFINITY)
    for part in range(num_partitions):
        start, stop = partition_range(num_vertices, num_partitions, part)
        if start <= source < stop:
            distances.write(part, slice(source, source + 1), 0.0)
    distances.synchronize()
    for iteration in range(1, num_vertices + 1):
        changed = False
        for part in range(num_partitions):
            start, stop = partition_range(num_vertices, num_partitions, part)
            current = distances.local(part)[start:stop].copy()
            updated = current.copy()
            gathered = (distances.local(part)[
                tindices[tindptr[start]:tindptr[stop]]]
                + tweights[tindptr[start]:tindptr[stop]])
            segments = np.repeat(np.arange(stop - start),
                                 np.diff(tindptr[start:stop + 1]))
            np.minimum.at(updated, segments, gathered)
            if np.any(updated < current):
                changed = True
            distances.write(part, slice(start, stop), updated)
        distances.synchronize()
        distances.assert_coherent()
        if not changed:
            return distances.local(0).copy(), iteration
    return distances.local(0).copy(), num_vertices
