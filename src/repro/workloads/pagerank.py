"""PageRank (Section IV-C): rank scores over a web-scale link graph.

Communication pattern: every iteration, each GPU recomputes the ranks of
its vertex partition and must publish them to every peer (pull-based
PageRank reads the full rank/contribution vector).  Writes land in
sporadic order relative to transfer chunks and CTAs retire irregularly,
so inline stores coalesce poorly — the paper's profiler picks decoupled
transfers on every platform (Table II), and the tracking instrumentation
cost is the highest of all apps (~40 %, Figure 8) because the kernel is
short relative to its CTA count.
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
from repro.workloads.datasets import CsrGraph, power_law_graph
from repro.workloads.shared_memory import ReplicatedArray

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

#: PageRank damping factor.
DAMPING = 0.85


class PageRankWorkload(Workload):
    """PageRank on a Wikipedia-scale power-law graph."""

    name = "Pagerank"
    um_hint_fraction = 0.2   # sporadic pulls defeat prefetch hints
    um_touch_fraction = 1.0  # consumers read essentially every rank

    def __init__(self, num_vertices: int = 13_600_000,
                 num_edges: int = 437_000_000,
                 iterations: int = 5,
                 vertices_per_cta: int = 512) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.iterations = iterations
        self.vertices_per_cta = vertices_per_cta

    # ------------------------------------------------------------------
    # Timing layer
    # ------------------------------------------------------------------
    #: Power-law partitions are uneven: the worst GPU gets ~12% extra work.
    imbalance = 0.12

    def build_phases(self, system: System) -> List[List[GpuPhaseWork]]:
        n = system.num_gpus
        vertices = self.num_vertices // n
        edges = self.num_edges // n
        # Per edge: read a 4 B index and gather an 8 B contribution;
        # per vertex: write rank + contribution (16 B) and read degree.
        local_bytes = edges * 12 + vertices * 20
        flops = edges * 2
        num_ctas = math.ceil(vertices / self.vertices_per_cta)
        # Shared per iteration: the 8 B rank of every owned vertex.
        region_bytes = vertices * 8 if n > 1 else 0
        works = []
        for gpu_id in range(n):
            skew = imbalance_factor(gpu_id, n, self.imbalance)
            works.append(GpuPhaseWork(
                kernel=KernelSpec("pagerank", flops * skew,
                                  local_bytes * skew, num_ctas),
                region_bytes=region_bytes,
                store_size=8,
                spatial_locality=0.1,
                readiness_shape=2.5,
                peer_fraction=consumer_peer_fraction(n, floor=0.35),
            ))
        return strip_final_phase_regions(
            [works for _ in range(self.iterations)])

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def verify_functional(self, num_partitions: int = 4,
                          num_vertices: int = 1200,
                          iterations: int = 15,
                          tolerance: float = 1e-12) -> FunctionalCheck:
        import numpy as np
        self._check_partitions(num_partitions)
        graph = power_law_graph(num_vertices, avg_degree=6.0, seed=23)
        multi = _pagerank_partitioned(graph, num_partitions, iterations)
        reference = _pagerank_partitioned(graph, 1, iterations)
        error = float(np.max(np.abs(multi - reference)))
        return FunctionalCheck(
            workload=self.name, num_partitions=num_partitions,
            iterations=iterations, max_abs_error=error,
            passed=error <= tolerance)


def _transpose_csr(graph: CsrGraph):
    """In-edge CSR from an out-edge CSR."""
    import numpy as np
    num_vertices = graph.num_vertices
    tindptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(tindptr[1:], graph.indices, 1)
    np.cumsum(tindptr, out=tindptr)
    tindices = np.empty(graph.num_edges, dtype=np.int64)
    cursor = tindptr[:-1].copy()
    sources = np.repeat(np.arange(num_vertices), graph.out_degree())
    for src, dst in zip(sources, graph.indices):
        tindices[cursor[dst]] = src
        cursor[dst] += 1
    return tindptr, tindices


def _pagerank_partitioned(graph: CsrGraph, num_partitions: int,
                          iterations: int) -> np.ndarray:
    """Pull-based PageRank over PROACT-style replicated vectors."""
    import numpy as np
    num_vertices = graph.num_vertices
    tindptr, tindices = _transpose_csr(graph)
    out_degree = np.maximum(graph.out_degree(), 1)
    ranks = ReplicatedArray(num_vertices, num_gpus=num_partitions,
                            fill=1.0 / num_vertices)
    contrib = ReplicatedArray(num_vertices, num_gpus=num_partitions)
    base = (1.0 - DAMPING) / num_vertices
    for _ in range(iterations):
        # Phase A: each partition publishes its vertices' contributions.
        for part in range(num_partitions):
            start, stop = partition_range(num_vertices, num_partitions, part)
            local_ranks = ranks.local(part)[start:stop]
            contrib.write(part, slice(start, stop),
                          local_ranks / out_degree[start:stop])
        contrib.synchronize()
        contrib.assert_coherent()
        # Phase B: each partition recomputes and publishes its ranks.
        for part in range(num_partitions):
            start, stop = partition_range(num_vertices, num_partitions, part)
            sums = np.zeros(stop - start)
            segments = np.repeat(np.arange(stop - start),
                                 np.diff(tindptr[start:stop + 1]))
            gathered = contrib.local(part)[
                tindices[tindptr[start]:tindptr[stop]]]
            np.add.at(sums, segments, gathered)
            ranks.write(part, slice(start, stop), base + DAMPING * sums)
        ranks.synchronize()
        ranks.assert_coherent()
    return ranks.local(0).copy()
