"""Synthetic dataset generators standing in for the paper's datasets.

The paper evaluates on the Wikipedia link graph and the HV15R sparse
matrix from the SuiteSparse collection — neither is redistributable here,
so seeded generators produce graphs/matrices with the same *shape
statistics* that matter to PROACT: degree distribution (communication
volume per partition), bandedness (write locality), and density.

All generators are deterministic given their seed.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Tuple

from repro.errors import WorkloadError

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


@dataclass(frozen=True)
class CsrGraph:
    """A directed graph in CSR form."""

    indptr: np.ndarray   # int64, len = num_vertices + 1
    indices: np.ndarray  # int64, len = num_edges

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def out_degree(self) -> np.ndarray:
        import numpy as np
        return np.diff(self.indptr)


def power_law_graph(num_vertices: int, avg_degree: float = 8.0,
                    exponent: float = 2.1, seed: int = 7) -> CsrGraph:
    """A Chung-Lu-style power-law directed graph (web-graph-like).

    Degree weights follow ``rank^(-1/(exponent-1))``; edges land on
    vertices with probability proportional to weight, giving the heavy
    tail of real link graphs like Wikipedia's.
    """
    import numpy as np
    if num_vertices < 2:
        raise WorkloadError(f"need >= 2 vertices: {num_vertices}")
    if avg_degree <= 0:
        raise WorkloadError(f"average degree must be > 0: {avg_degree}")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    weights /= weights.sum()
    total_edges = int(num_vertices * avg_degree)
    out_degrees = rng.multinomial(total_edges, weights)
    rng.shuffle(out_degrees)  # decouple degree from vertex id
    targets = rng.choice(num_vertices, size=total_edges, p=weights)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(out_degrees, out=indptr[1:])
    return CsrGraph(indptr=indptr, indices=targets.astype(np.int64))


def road_like_graph(num_vertices: int, seed: int = 11) -> CsrGraph:
    """A low-degree, high-diameter graph (road-network-like, for SSSP).

    A ring with shortcuts: every vertex links to its two neighbours plus
    an occasional random long edge, mimicking sparse near-planar
    connectivity.
    """
    import numpy as np
    if num_vertices < 3:
        raise WorkloadError(f"need >= 3 vertices: {num_vertices}")
    rng = np.random.default_rng(seed)
    rows = []
    cols = []
    for vertex in range(num_vertices):
        rows.extend((vertex, vertex))
        cols.append((vertex + 1) % num_vertices)
        cols.append((vertex - 1) % num_vertices)
        if rng.random() < 0.2:
            rows.append(vertex)
            cols.append(int(rng.integers(num_vertices)))
    order = np.lexsort((np.array(cols), np.array(rows)))
    rows_arr = np.array(rows, dtype=np.int64)[order]
    cols_arr = np.array(cols, dtype=np.int64)[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(indptr[1:], rows_arr, 1)
    np.cumsum(indptr, out=indptr)
    return CsrGraph(indptr=indptr, indices=cols_arr)


def banded_matrix(size: int, bandwidth: int, seed: int = 13,
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """A diagonally dominant banded matrix as (diagonals, offsets).

    Returns ``diagonals`` of shape ``(2*bandwidth + 1, size)`` where row
    ``i`` holds the diagonal at ``offsets[i]``; guaranteed diagonally
    dominant so the Jacobi iteration converges.
    """
    import numpy as np
    if size < 1:
        raise WorkloadError(f"matrix size must be >= 1: {size}")
    if bandwidth < 0 or bandwidth >= size:
        raise WorkloadError(
            f"bandwidth must be in [0, size): {bandwidth} vs {size}")
    rng = np.random.default_rng(seed)
    num_diagonals = 2 * bandwidth + 1
    offsets = np.arange(-bandwidth, bandwidth + 1)
    diagonals = rng.uniform(-1.0, 1.0, size=(num_diagonals, size))
    off_diag_sum = np.abs(diagonals).sum(axis=0) - np.abs(
        diagonals[bandwidth])
    diagonals[bandwidth] = off_diag_sum + 1.0  # strict dominance
    return diagonals, offsets


def rating_matrix(num_users: int, num_items: int, num_ratings: int,
                  rank: int = 4, seed: int = 17,
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic ratings with planted low-rank structure (for ALS).

    Returns ``(user_ids, item_ids, ratings)`` where ratings come from a
    planted rank-``rank`` model plus noise, so factorization recovers a
    meaningful fit.
    """
    import numpy as np
    if num_users < 1 or num_items < 1:
        raise WorkloadError("need >= 1 user and item")
    if num_ratings < 1:
        raise WorkloadError(f"need >= 1 rating: {num_ratings}")
    rng = np.random.default_rng(seed)
    true_users = rng.normal(size=(num_users, rank)) / np.sqrt(rank)
    true_items = rng.normal(size=(num_items, rank)) / np.sqrt(rank)
    user_ids = rng.integers(num_users, size=num_ratings)
    item_ids = rng.integers(num_items, size=num_ratings)
    ratings = np.einsum("ij,ij->i", true_users[user_ids],
                        true_items[item_ids])
    ratings += rng.normal(scale=0.01, size=num_ratings)
    return user_ids, item_ids, ratings


def phantom_image(size: int) -> np.ndarray:
    """A simple 2-D CT phantom: nested rectangles of varying density."""
    import numpy as np
    if size < 8:
        raise WorkloadError(f"phantom must be >= 8 pixels: {size}")
    image = np.zeros((size, size), dtype=np.float64)
    quarter, eighth = size // 4, size // 8
    image[quarter:-quarter, quarter:-quarter] = 1.0
    image[quarter + eighth:-quarter - eighth,
          quarter + eighth:-quarter - eighth] = 0.5
    image[size // 2 - 2:size // 2 + 2, size // 2 - 2:size // 2 + 2] = 2.0
    return image
