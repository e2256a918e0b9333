"""Collective algorithm builders: direct, ring, and tree schedules.

Three algorithm families, mirroring the latency/bandwidth split that
collective libraries navigate:

* ``direct`` — every peer pair transfers at once, one round.  Minimal
  latency, but reduction collectives move ``(N-1) * bytes`` per GPU —
  the bulk-exchange baseline PROACT-style chunking is measured against.
* ``ring`` — bandwidth-optimal pipelined ring.  Reduction collectives
  move ``2 * (N-1)/N * bytes`` per GPU over ``2 * (N-1)`` rounds; the
  shard stream is further split at the PROACT chunk granularity so chunk
  *k+1* overlaps chunk *k*'s next hop.
* ``tree`` — latency-oriented logarithmic schedules: binomial broadcast,
  recursive doubling (all-gather), recursive halving (reduce-scatter),
  and halving-doubling (all-reduce).  ``O(log N)`` rounds, at the cost
  of more bytes than the ring for the reduction collectives.

All builders share one signature and return a
:class:`~repro.collectives.schedule.CollectiveSchedule`; chunk-level
dependencies come from the builder's last-writer map, so every schedule
is verifiable by :func:`~repro.collectives.schedule.verify_schedule`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CollectiveError
from repro.collectives.schedule import (
    ALL_COLLECTIVES,
    COLL_ALL_GATHER,
    COLL_ALL_REDUCE,
    COLL_BROADCAST,
    COLL_REDUCE_SCATTER,
    MODE_COPY,
    MODE_REDUCE,
    CollectiveSchedule,
    ScheduleBuilder,
)

ALGO_DIRECT = "direct"
ALGO_RING = "ring"
ALGO_TREE = "tree"
#: Cluster-only: reduce-scatter intra-node, ring all-reduce across node
#: leaders over the NICs, all-gather intra-node.  Built by
#: :mod:`repro.cluster.hierarchical`; requires a node geometry.
ALGO_HIERARCHICAL = "hierarchical"

ALL_ALGORITHMS: Tuple[str, ...] = (ALGO_DIRECT, ALGO_RING, ALGO_TREE)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def supported_algorithms(collective: str, num_gpus: int,
                         gpus_per_node: Optional[int] = None
                         ) -> Tuple[str, ...]:
    """The algorithms available for a collective at this GPU count.

    The recursive halving/doubling tree schedules need a power-of-two
    GPU count; binomial-tree broadcast works for any count.  Passing a
    cluster's ``gpus_per_node`` additionally admits ``hierarchical``
    all-reduce when the count splits into >= 2 whole nodes.
    """
    if collective not in ALL_COLLECTIVES:
        raise CollectiveError(
            f"unknown collective {collective!r}; expected {ALL_COLLECTIVES}")
    if collective != COLL_BROADCAST and not _is_power_of_two(num_gpus):
        supported: Tuple[str, ...] = (ALGO_DIRECT, ALGO_RING)
    else:
        supported = ALL_ALGORITHMS
    if (gpus_per_node is not None and collective == COLL_ALL_REDUCE
            and num_gpus % gpus_per_node == 0
            and num_gpus // gpus_per_node >= 2):
        supported = supported + (ALGO_HIERARCHICAL,)
    return supported


# ---------------------------------------------------------------------------
# Direct: one round, every pair at once
# ---------------------------------------------------------------------------

def _direct(builder: ScheduleBuilder) -> None:
    n = builder.num_gpus
    if builder.collective == COLL_BROADCAST:
        for dst in range(n):
            if dst != builder.root:
                _send_buffer(builder, 0, builder.root, dst, MODE_COPY)
    elif builder.collective == COLL_ALL_GATHER:
        for src in range(n):
            for dst in range(n):
                if dst != src:
                    builder.send_shard(0, src, dst, src, MODE_COPY)
    elif builder.collective == COLL_REDUCE_SCATTER:
        for src in range(n):
            for dst in range(n):
                if dst != src:
                    builder.send_shard(0, src, dst, dst, MODE_REDUCE)
    else:  # all_reduce: every GPU sends its whole contribution everywhere
        for src in range(n):
            for dst in range(n):
                if dst == src:
                    continue
                for shard in range(n):
                    builder.send_shard(0, src, dst, shard, MODE_REDUCE)


def _send_buffer(builder: ScheduleBuilder, step: int, src: int, dst: int,
                 mode: str) -> None:
    """Send the whole (unsharded) buffer as shard 0, chunk by chunk."""
    for chunk, size in enumerate(builder.chunk_sizes(builder.nbytes)):
        builder.send(step, src, dst, 0, chunk, size, mode)


# ---------------------------------------------------------------------------
# Ring: bandwidth-optimal pipelined rounds
# ---------------------------------------------------------------------------

def _ring(builder: ScheduleBuilder) -> None:
    n = builder.num_gpus
    if n == 1:
        return
    if builder.collective == COLL_BROADCAST:
        # A chunked chain root -> root+1 -> ... -> root+N-1: chunk k+1
        # rides the first hop while chunk k crosses the second.
        for hop in range(n - 1):
            src = (builder.root + hop) % n
            dst = (builder.root + hop + 1) % n
            _send_buffer(builder, hop, src, dst, MODE_COPY)
        return
    step = 0
    if builder.collective in (COLL_REDUCE_SCATTER, COLL_ALL_REDUCE):
        # Reduce-scatter rounds: shard x starts at GPU x+1 and accumulates
        # around the ring, ending fully reduced at its owner GPU x.
        for s in range(n - 1):
            for src in range(n):
                shard = (src - s - 1) % n
                builder.send_shard(step, src, (src + 1) % n, shard,
                                   MODE_REDUCE)
            step += 1
    if builder.collective in (COLL_ALL_GATHER, COLL_ALL_REDUCE):
        # All-gather rounds: each GPU forwards the shard it most recently
        # completed; after N-1 rounds everyone holds everything.
        for s in range(n - 1):
            for src in range(n):
                shard = (src - s) % n
                builder.send_shard(step, src, (src + 1) % n, shard,
                                   MODE_COPY)
            step += 1


# ---------------------------------------------------------------------------
# Tree: logarithmic rounds
# ---------------------------------------------------------------------------

def _tree(builder: ScheduleBuilder) -> None:
    n = builder.num_gpus
    if n == 1:
        return
    if builder.collective == COLL_BROADCAST:
        _binomial_broadcast(builder)
        return
    if not _is_power_of_two(n):
        raise CollectiveError(
            f"tree {builder.collective} needs a power-of-two GPU count, "
            f"got {n}")
    step = 0
    if builder.collective in (COLL_REDUCE_SCATTER, COLL_ALL_REDUCE):
        step = _recursive_halving(builder, list(range(n)), 0, n, step)
    if builder.collective == COLL_ALL_GATHER:
        _recursive_doubling(builder, {gpu: [gpu] for gpu in range(n)}, step)
    elif builder.collective == COLL_ALL_REDUCE:
        _recursive_doubling(builder, {gpu: [gpu] for gpu in range(n)}, step)


def _binomial_broadcast(builder: ScheduleBuilder) -> None:
    """Binomial tree: round r doubles the set of GPUs holding the data."""
    n = builder.num_gpus
    distance = 1
    step = 0
    while distance < n:
        for rel in range(distance):
            peer = rel + distance
            if peer >= n:
                break
            src = (builder.root + rel) % n
            dst = (builder.root + peer) % n
            _send_buffer(builder, step, src, dst, MODE_COPY)
        distance *= 2
        step += 1


def _recursive_halving(builder: ScheduleBuilder, ranks: List[int],
                       shard_lo: int, shard_hi: int, step: int) -> int:
    """Reduce-scatter by halving: each round exchanges half the range.

    Pairs across the two halves swap the shards the *other* half will
    own and fold them into their local reduction; the recursion then
    descends into each half with half the shard range, so GPU ``i`` ends
    holding shard ``i`` reduced over every GPU.
    """
    if len(ranks) == 1:
        return step
    half = len(ranks) // 2
    lower, upper = ranks[:half], ranks[half:]
    mid = shard_lo + (shard_hi - shard_lo) // 2
    for a, b in zip(lower, upper):
        for shard in range(mid, shard_hi):
            builder.send_shard(step, a, b, shard, MODE_REDUCE)
        for shard in range(shard_lo, mid):
            builder.send_shard(step, b, a, shard, MODE_REDUCE)
    step += 1
    deeper = _recursive_halving(builder, lower, shard_lo, mid, step)
    return max(deeper,
               _recursive_halving(builder, upper, mid, shard_hi, step))


def _recursive_doubling(builder: ScheduleBuilder,
                        held: Dict[int, List[int]], step: int) -> None:
    """All-gather by doubling: each round swaps everything held so far."""
    n = builder.num_gpus
    distance = 1
    while distance < n:
        snapshot = {gpu: list(shards) for gpu, shards in held.items()}
        for gpu in range(n):
            partner = gpu ^ distance
            for shard in snapshot[gpu]:
                builder.send_shard(step, gpu, partner, shard, MODE_COPY)
            held[gpu] = snapshot[gpu] + snapshot[partner]
        distance *= 2
        step += 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[ScheduleBuilder], None]] = {
    ALGO_DIRECT: _direct,
    ALGO_RING: _ring,
    ALGO_TREE: _tree,
}


def build_schedule(collective: str, algorithm: str, num_gpus: int,
                   nbytes: int, chunk_size: int, root: int = 0,
                   gpus_per_node: Optional[int] = None) -> CollectiveSchedule:
    """Compile a collective into a dependency-tagged transfer schedule."""
    if collective not in ALL_COLLECTIVES:
        raise CollectiveError(
            f"unknown collective {collective!r}; expected {ALL_COLLECTIVES}")
    if algorithm == ALGO_HIERARCHICAL:
        # Imported lazily: the cluster package builds on this module.
        from repro.cluster.hierarchical import build_hierarchical as build
    else:
        try:
            build = _BUILDERS[algorithm]
        except KeyError:
            raise CollectiveError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{ALL_ALGORITHMS + (ALGO_HIERARCHICAL,)}") from None
    if algorithm not in supported_algorithms(collective, num_gpus,
                                             gpus_per_node):
        raise CollectiveError(
            f"{algorithm} {collective} is unsupported on {num_gpus} GPUs "
            "(tree reductions need a power-of-two count; hierarchical "
            "all_reduce needs >= 2 whole nodes)")
    builder = ScheduleBuilder(collective, algorithm, num_gpus, nbytes,
                              chunk_size, root, gpus_per_node=gpus_per_node)
    if num_gpus > 1:
        build(builder)
    return builder.build()
