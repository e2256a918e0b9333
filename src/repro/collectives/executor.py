"""Execute collective schedules on the fabric.

A launch walks the schedule's dependency DAG with completion callbacks.
Every :class:`~repro.collectives.schedule.TransferOp` whose dependencies
have completed occupies the real route with ``Fabric.send`` — so link
contention, multi-hop pipelining, and per-packet framing efficiency all
come from the interconnect model, not from an analytic formula.  No
process or event exists per op: the launch keeps each op's count of
pending dependencies, and an op's completion decrements its successors
and sends each one that reaches zero.

That handling runs one zero-delay engine entry after the delivery
(``Engine._call(0.0, ...)``), never inside it, so a successor's send
comes after every entry already due at that instant, and its quanta
queue behind the ones those entries offer.  Link service times and
route latencies are positive, so nothing else joins the instant at
zero delay, and the one FIFO step keeps same-instant completions in
delivery order (see ``docs/MODELING.md``).

Each op emits a span into the owning GPU's ``coll`` trace lane, which
is what makes ring pipelining visible in the Chrome-trace export: the
chunk stream staircases across the GPUs' lanes.
"""

from __future__ import annotations

import typing
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

from repro.collectives.schedule import (
    COLL_ALL_GATHER,
    COLL_ALL_REDUCE,
    COLL_BROADCAST,
    COLL_REDUCE_SCATTER,
    CollectiveSchedule,
)
from repro.errors import CollectiveError
from repro.sim.events import Event
from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System


@dataclass(frozen=True)
class CollectiveResult:
    """Timing and accounting for one completed collective."""

    collective: str
    algorithm: str
    num_gpus: int
    nbytes: int
    chunk_size: int
    start_time: float
    end_time: float
    op_count: int
    #: Payload bytes each GPU sourced onto the fabric.
    sent_bytes: Tuple[int, ...]

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def algorithm_bandwidth(self) -> float:
        """``nbytes / duration`` — nccl-tests' *algbw*."""
        if self.duration <= 0:
            return 0.0
        return self.nbytes / self.duration

    @property
    def bus_bandwidth(self) -> float:
        """nccl-tests' *busbw*: algbw scaled to per-link wire pressure.

        The factor normalizes each collective to the bytes a
        bandwidth-optimal algorithm must cross every GPU's link, making
        numbers comparable across collectives and GPU counts.
        """
        n = self.num_gpus
        if n <= 1:
            return self.algorithm_bandwidth
        factors = {
            COLL_ALL_REDUCE: 2.0 * (n - 1) / n,
            COLL_ALL_GATHER: (n - 1) / n,
            COLL_REDUCE_SCATTER: (n - 1) / n,
            COLL_BROADCAST: 1.0,
        }
        return self.algorithm_bandwidth * factors[self.collective]


class CollectiveExecutor:
    """Runs compiled schedules on one system's engine and fabric."""

    def __init__(self, system: "System",
                 access_size: Optional[int] = None) -> None:
        self.system = system
        self.access_size = access_size if access_size is not None \
            else system.fabric.collective_access_size

    def launch(self, schedule: CollectiveSchedule) -> Process:
        """Start a schedule; the returned process yields the result."""
        if schedule.num_gpus != self.system.num_gpus:
            raise CollectiveError(
                f"schedule built for {schedule.num_gpus} GPUs cannot run "
                f"on a {self.system.num_gpus}-GPU system")
        if self.system.validating:
            # Under --validate every executed schedule is first replayed
            # symbolically: verify_schedule raises if any GPU would end
            # the collective without its full contributor set.
            from repro.collectives.schedule import verify_schedule
            verify_schedule(schedule)
        return self.system.engine.process(
            self._drive(schedule),
            name=f"coll:{schedule.collective}:{schedule.algorithm}")

    def _drive(self, schedule: CollectiveSchedule):
        engine = self.system.engine
        start = engine.now
        if schedule.ops:
            finished = Event(engine)
            _Launch(self, schedule, finished)
            yield finished
        result = CollectiveResult(
            collective=schedule.collective,
            algorithm=schedule.algorithm,
            num_gpus=schedule.num_gpus,
            nbytes=schedule.nbytes,
            chunk_size=schedule.chunk_size,
            start_time=start,
            end_time=engine.now,
            op_count=len(schedule.ops),
            sent_bytes=schedule.per_gpu_sent_bytes())
        tracer = engine.tracer
        if tracer.enabled:
            tracer.span(start, engine.now, "collective",
                        f"{schedule.collective}:{schedule.algorithm}",
                        payload={"bytes": schedule.nbytes,
                                 "chunk_size": schedule.chunk_size,
                                 "ops": len(schedule.ops)})
        if engine.metrics.enabled:
            engine.metrics.observe(
                "collective_runtime_ms", result.duration * 1e3,
                collective=schedule.collective,
                algorithm=schedule.algorithm)
            engine.metrics.inc(
                "collective_bytes", sum(result.sent_bytes),
                collective=schedule.collective,
                algorithm=schedule.algorithm)
        return result


class _Launch:
    """One schedule in flight: the dependency DAG walked by callbacks.

    The successor table is compressed: op ``i``'s successors, in index
    order, are ``succ[first[i]:first[i + 1]]``.  ``pending[i]`` counts
    the dependencies of op ``i`` that have not completed yet.
    """

    __slots__ = ("engine", "fabric", "access_size", "schedule", "ops",
                 "first", "succ", "pending", "left", "finished")

    def __init__(self, executor: CollectiveExecutor,
                 schedule: CollectiveSchedule, finished: Event) -> None:
        system = executor.system
        self.engine = system.engine
        self.fabric = system.fabric
        self.access_size = executor.access_size
        self.schedule = schedule
        self.ops = ops = schedule.ops
        self.left = len(ops)
        self.finished = finished
        self.pending = pending = array("i", [0]) * len(ops)
        first = array("i", [0]) * (len(ops) + 1)
        for op in ops:
            pending[op.index] = len(op.deps)
            for dep in op.deps:
                first[dep + 1] += 1
        for i in range(len(ops)):
            first[i + 1] += first[i]
        self.first = first
        self.succ = succ = array("i", [0]) * first[-1]
        slot = first[:-1]
        for op in ops:
            for dep in op.deps:
                succ[slot[dep]] = op.index
                slot[dep] += 1
        for op in ops:
            if not op.deps:
                self._send(op.index)

    def _send(self, index: int) -> None:
        op = self.ops[index]
        self.fabric.send(op.src, op.dst, op.nbytes, self.access_size,
                         then=partial(self._delivered, index,
                                      self.engine._now))

    def _delivered(self, index: int, started: float) -> None:
        """Defer the op's completion by one zero-delay entry."""
        self.engine._call(0.0, partial(self._completed, index, started))

    def _completed(self, index: int, started: float) -> None:
        """Trace the op, release its successors, finish the launch."""
        engine = self.engine
        tracer = engine.tracer
        if tracer.enabled:
            op = self.ops[index]
            schedule = self.schedule
            tracer.span(
                started, engine._now, f"gpu{op.src}.coll",
                f"{schedule.collective}:{schedule.algorithm} "
                f"s{op.step} shard{op.shard}.{op.chunk}->gpu{op.dst}",
                payload={"bytes": op.nbytes, "step": op.step})
        pending, succ = self.pending, self.succ
        for k in range(self.first[index], self.first[index + 1]):
            successor = succ[k]
            pending[successor] -= 1
            if pending[successor] == 0:
                self._send(successor)
        self.left -= 1
        if self.left == 0:
            self.finished.succeed()
