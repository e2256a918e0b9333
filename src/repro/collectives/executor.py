"""Execute collective schedules as simulated processes on the fabric.

Every :class:`~repro.collectives.schedule.TransferOp` becomes one
engine process: wait for the op's dependencies, then occupy the real
route with ``Fabric.send`` — so link contention, multi-hop pipelining,
and per-packet framing efficiency all come from the interconnect model,
not from an analytic formula.  Each op emits a span into the owning
GPU's ``coll`` trace lane, which is what makes ring pipelining visible
in the Chrome-trace export: the chunk stream staircases across the
GPUs' lanes.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.collectives.schedule import (
    COLL_ALL_GATHER,
    COLL_ALL_REDUCE,
    COLL_BROADCAST,
    COLL_REDUCE_SCATTER,
    CollectiveSchedule,
)
from repro.errors import CollectiveError
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

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _op_process(self, schedule: CollectiveSchedule, op, done):
        engine = self.system.engine
        if op.deps:
            yield engine.all_of([done[dep] for dep in op.deps])
        started = engine.now
        yield self.system.fabric.send(op.src, op.dst, op.nbytes,
                                      self.access_size)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.span(
                started, engine.now, f"gpu{op.src}.coll",
                f"{schedule.collective}:{schedule.algorithm} "
                f"s{op.step} shard{op.shard}.{op.chunk}->gpu{op.dst}",
                payload={"bytes": op.nbytes, "step": op.step})
        done[op.index].succeed()

    def _drive(self, schedule: CollectiveSchedule):
        engine = self.system.engine
        start = engine.now
        done = [engine.event() for _ in schedule.ops]
        for op in schedule.ops:
            engine.process(
                self._op_process(schedule, op, done),
                name=f"collop:{op.src}->{op.dst}@{op.step}")
        if done:
            yield engine.all_of(done)
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
