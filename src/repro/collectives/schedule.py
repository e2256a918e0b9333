"""The collective schedule model: transfer DAGs over the fabric.

A collective (broadcast, all-gather, reduce-scatter, all-reduce) is
compiled by an algorithm builder (:mod:`repro.collectives.algorithms`)
into a :class:`CollectiveSchedule` — an ordered list of
:class:`TransferOp` entries, each one ``Fabric.send`` with explicit data
dependencies on earlier ops.  The executor sends every op once its
dependencies have completed (a count per op, decremented by completion
callbacks) and the op then occupies real links, so contention,
multi-hop routing, and per-packet efficiency are modelled for free,
and PROACT-style chunk pipelining falls out of the dependency
structure: chunk *k+1* of a ring step can be in flight on the upstream
link while chunk *k* crosses the downstream hop.

Payloads are tracked symbolically.  Every op names the *shard* (a
contiguous slice of the collective buffer) and *chunk* (a PROACT-sized
slice of the shard) it moves, plus whether the receiver replaces its
copy (``copy``) or folds it into a reduction (``reduce``).
:func:`replay_payloads` re-executes a schedule over per-GPU contributor
sets and :func:`verify_schedule` asserts the collective's postcondition
— e.g. after all-reduce every GPU holds every shard with contributions
from every GPU — which is what the property tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import CollectiveError
from repro.workloads.base import partition_range

#: Collective kinds understood by the algorithm builders.
COLL_BROADCAST = "broadcast"
COLL_ALL_GATHER = "all_gather"
COLL_REDUCE_SCATTER = "reduce_scatter"
COLL_ALL_REDUCE = "all_reduce"

ALL_COLLECTIVES: Tuple[str, ...] = (
    COLL_BROADCAST, COLL_ALL_GATHER, COLL_REDUCE_SCATTER, COLL_ALL_REDUCE)

#: Receiver semantics of one transfer.
MODE_COPY = "copy"
MODE_REDUCE = "reduce"


@dataclass(frozen=True)
class TransferOp:
    """One ``Fabric.send`` with explicit data dependencies.

    ``deps`` are indices of earlier ops in the same schedule that must
    complete before this transfer may start (the data being sent — or
    the receiver's accumulation target — is produced by them).  Builders
    only ever reference earlier indices, so a schedule's op list is
    already in topological order.
    """

    index: int
    step: int
    src: int
    dst: int
    nbytes: int
    shard: int
    chunk: int
    mode: str
    deps: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise CollectiveError(f"negative transfer size: {self.nbytes}")
        if self.mode not in (MODE_COPY, MODE_REDUCE):
            raise CollectiveError(f"unknown transfer mode {self.mode!r}")
        if any(dep >= self.index for dep in self.deps):
            raise CollectiveError(
                f"op {self.index} depends on a later op: {self.deps}")


@dataclass(frozen=True)
class CollectiveSchedule:
    """A compiled collective: every transfer, with dependencies."""

    collective: str
    algorithm: str
    num_gpus: int
    nbytes: int
    chunk_size: int
    root: int
    ops: Tuple[TransferOp, ...]

    def sent_bytes(self, gpu: int) -> int:
        """Total payload bytes this GPU sources."""
        return sum(op.nbytes for op in self.ops if op.src == gpu)

    def per_gpu_sent_bytes(self) -> Tuple[int, ...]:
        """Payload bytes sourced by every GPU, in one pass over the ops.

        Equivalent to ``sent_bytes(g) for g in range(num_gpus)`` but
        O(ops) instead of O(gpus * ops) — the difference between
        milliseconds and minutes on a 1024-GPU, two-million-op schedule.
        """
        totals = [0] * self.num_gpus
        for op in self.ops:
            totals[op.src] += op.nbytes
        return tuple(totals)

    def total_bytes(self) -> int:
        """Total payload bytes moved by the whole schedule."""
        return sum(op.nbytes for op in self.ops)

    def num_steps(self) -> int:
        """Number of algorithm rounds (0 for an empty schedule)."""
        if not self.ops:
            return 0
        return max(op.step for op in self.ops) + 1


class ScheduleBuilder:
    """Accumulates ops, deriving dependencies from a last-writer map.

    A transfer of ``(shard, chunk)`` depends on whatever op last
    delivered or updated that chunk at the *source* (the data must have
    arrived before it can be forwarded) and — so reductions fold into a
    settled value — whatever op last wrote it at the *destination*.
    Chunks that have never been written are original local data and
    carry no dependency.
    """

    def __init__(self, collective: str, algorithm: str, num_gpus: int,
                 nbytes: int, chunk_size: int, root: int = 0,
                 gpus_per_node: Optional[int] = None) -> None:
        if num_gpus < 1:
            raise CollectiveError(f"need >= 1 GPU: {num_gpus}")
        if nbytes < 0:
            raise CollectiveError(f"negative payload: {nbytes}")
        if chunk_size < 1:
            raise CollectiveError(f"chunk size must be >= 1: {chunk_size}")
        if not 0 <= root < num_gpus:
            raise CollectiveError(
                f"root {root} out of range 0..{num_gpus - 1}")
        if gpus_per_node is not None and (
                gpus_per_node < 1 or num_gpus % gpus_per_node != 0):
            raise CollectiveError(
                f"gpus_per_node {gpus_per_node} must divide "
                f"num_gpus {num_gpus}")
        #: Node geometry for hierarchical builders; ``None`` = one box.
        self.gpus_per_node = gpus_per_node
        self.collective = collective
        self.algorithm = algorithm
        self.num_gpus = num_gpus
        self.nbytes = nbytes
        self.chunk_size = chunk_size
        self.root = root
        self._ops: List[TransferOp] = []
        self._writer: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Payload geometry
    # ------------------------------------------------------------------
    def shard_bytes(self, shard: int) -> int:
        """Size of one shard (1/N of the buffer, remainder to the front)."""
        start, stop = partition_range(self.nbytes, self.num_gpus, shard)
        return stop - start

    def chunk_sizes(self, total_bytes: int) -> List[int]:
        """Split a byte count into PROACT-chunk-sized pieces."""
        if total_bytes == 0:
            return [0]
        sizes = []
        remaining = total_bytes
        while remaining > 0:
            piece = min(remaining, self.chunk_size)
            sizes.append(piece)
            remaining -= piece
        return sizes

    # ------------------------------------------------------------------
    # Op emission
    # ------------------------------------------------------------------
    def send(self, step: int, src: int, dst: int, shard: int, chunk: int,
             nbytes: int, mode: str) -> int:
        """Emit one transfer; returns its op index."""
        deps = []
        src_writer = self._writer.get((src, shard, chunk))
        if src_writer is not None:
            deps.append(src_writer)
        dst_writer = self._writer.get((dst, shard, chunk))
        if dst_writer is not None and dst_writer not in deps:
            deps.append(dst_writer)
        op = TransferOp(index=len(self._ops), step=step, src=src, dst=dst,
                        nbytes=nbytes, shard=shard, chunk=chunk, mode=mode,
                        deps=tuple(deps))
        self._ops.append(op)
        self._writer[(dst, shard, chunk)] = op.index
        return op.index

    def send_shard(self, step: int, src: int, dst: int, shard: int,
                   mode: str) -> None:
        """Emit one transfer per chunk of ``shard``."""
        for chunk, size in enumerate(self.chunk_sizes(self.shard_bytes(shard))):
            self.send(step, src, dst, shard, chunk, size, mode)

    def build(self) -> CollectiveSchedule:
        return CollectiveSchedule(
            collective=self.collective, algorithm=self.algorithm,
            num_gpus=self.num_gpus, nbytes=self.nbytes,
            chunk_size=self.chunk_size, root=self.root,
            ops=tuple(self._ops))


# ---------------------------------------------------------------------------
# Symbolic replay and verification
# ---------------------------------------------------------------------------

#: Per-GPU buffer state: (shard, chunk) -> set of contributing GPUs.
Buffers = List[Dict[Tuple[int, int], FrozenSet[int]]]


def _initial_buffers(schedule: CollectiveSchedule) -> Buffers:
    n = schedule.num_gpus
    builder = ScheduleBuilder(
        schedule.collective, schedule.algorithm, n, schedule.nbytes,
        schedule.chunk_size, schedule.root)
    buffers: Buffers = [{} for _ in range(n)]
    if schedule.collective == COLL_BROADCAST:
        chunks = builder.chunk_sizes(schedule.nbytes)
        for chunk in range(len(chunks)):
            buffers[schedule.root][(0, chunk)] = frozenset((schedule.root,))
        return buffers
    for gpu in range(n):
        for shard in range(n):
            owns_only_self = schedule.collective == COLL_ALL_GATHER
            if owns_only_self and shard != gpu:
                continue
            chunks = builder.chunk_sizes(builder.shard_bytes(shard))
            for chunk in range(len(chunks)):
                buffers[gpu][(shard, chunk)] = frozenset((gpu,))
    return buffers


def replay_payloads(schedule: CollectiveSchedule) -> Buffers:
    """Re-execute a schedule symbolically, tracking contributor sets.

    Ops are applied in index order, which is a topological order of the
    dependency DAG by construction.  Raises :class:`CollectiveError` if
    an op sends data its source never held.
    """
    buffers = _initial_buffers(schedule)
    for op in schedule.ops:
        key = (op.shard, op.chunk)
        payload = buffers[op.src].get(key)
        if payload is None:
            raise CollectiveError(
                f"op {op.index}: GPU {op.src} sends ({op.shard}, {op.chunk}) "
                "it never received")
        if op.mode == MODE_COPY:
            buffers[op.dst][key] = payload
        else:
            existing = buffers[op.dst].get(key)
            if existing is None:
                raise CollectiveError(
                    f"op {op.index}: GPU {op.dst} reduces into "
                    f"({op.shard}, {op.chunk}) it does not hold")
            buffers[op.dst][key] = payload | existing
    return buffers


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CollectiveError(message)


def verify_schedule(schedule: CollectiveSchedule) -> Buffers:
    """Replay a schedule and assert the collective's postcondition.

    * ``broadcast`` — every GPU holds the root's whole buffer.
    * ``all_gather`` — every GPU holds every shard, each carrying its
      owner's contribution.
    * ``reduce_scatter`` — GPU *i* holds shard *i* reduced over all GPUs.
    * ``all_reduce`` — every GPU holds every shard reduced over all GPUs.

    Returns the final buffers so callers can make further assertions.
    """
    buffers = replay_payloads(schedule)
    n = schedule.num_gpus
    everyone = frozenset(range(n))
    builder = ScheduleBuilder(
        schedule.collective, schedule.algorithm, n, schedule.nbytes,
        schedule.chunk_size, schedule.root)
    name = f"{schedule.collective}/{schedule.algorithm}"

    if schedule.collective == COLL_BROADCAST:
        chunk_count = len(builder.chunk_sizes(schedule.nbytes))
        for gpu in range(n):
            for chunk in range(chunk_count):
                _expect((0, chunk) in buffers[gpu],
                        f"{name}: GPU {gpu} missing chunk {chunk}")
        return buffers

    for shard in range(n):
        chunk_count = len(builder.chunk_sizes(builder.shard_bytes(shard)))
        for chunk in range(chunk_count):
            key = (shard, chunk)
            if schedule.collective == COLL_ALL_GATHER:
                for gpu in range(n):
                    _expect(buffers[gpu].get(key) == frozenset((shard,)),
                            f"{name}: GPU {gpu} shard {shard} chunk {chunk} "
                            f"is {buffers[gpu].get(key)}")
            elif schedule.collective == COLL_REDUCE_SCATTER:
                _expect(buffers[shard].get(key) == everyone,
                        f"{name}: GPU {shard} shard {shard} chunk {chunk} "
                        f"is {buffers[shard].get(key)}, not fully reduced")
            elif schedule.collective == COLL_ALL_REDUCE:
                for gpu in range(n):
                    _expect(buffers[gpu].get(key) == everyone,
                            f"{name}: GPU {gpu} shard {shard} chunk {chunk} "
                            f"is {buffers[gpu].get(key)}, not fully reduced")
            else:
                raise CollectiveError(
                    f"unknown collective {schedule.collective!r}")
    return buffers
