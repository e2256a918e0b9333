"""The polling transfer agent (Section III-C, "Polling").

A small number of warps are specialized into a long-lived kernel that
spins on the readiness bitmap and copies ready chunks to peer GPUs.  Two
costs are modelled:

* **Resource steal** — while resident, the agent's warps plus its spin
  loops occupy a fraction of GPU throughput
  (``threads/max_threads + spec.polling_overhead_fraction``), slowing
  co-running compute kernels.  The paper finds this devastating on
  Kepler and mild on Pascal/Volta.
* **Poll latency** — a chunk becoming ready waits for the next bitmap
  scan before its transfer starts.

Per chunk, the poll tick is one engine callback.  The tick appends the
chunk to the agent's dispatch queue, whose head is served by one
``CHUNK_DISPATCH_OVERHEAD`` callback; that callback starts the next
chunk's dispatch before it sends its own chunk, so chunks found at one
instant leave the agent one dispatch overhead apart, in arrival order.
"""

from __future__ import annotations

import math
import typing
from collections import deque
from functools import partial
from typing import Deque, List, Optional, Tuple

from repro.core.agents import DecoupledAgent
from repro.core.config import ProactConfig
from repro.errors import ProactError
from repro.hw.fluid import FluidTask
from repro.units import usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System

#: Per-chunk dispatch work inside the polling agent (bitmap scan hit,
#: address generation, copy-loop setup) — serialized within the agent's
#: warp group.  This is what makes very fine chunks initiation-bound
#: even for polling.
CHUNK_DISPATCH_OVERHEAD = usec(0.5)


class PollingAgent(DecoupledAgent):
    """Long-lived polling kernel performing decoupled transfers."""

    def __init__(self, system: "System", src_id: int, config: ProactConfig,
                 destinations: List[int],
                 elide_transfers: bool = False,
                 peer_fraction: float = 1.0,
                 access_size: int | None = None) -> None:
        super().__init__(system, src_id, config, destinations,
                         elide_transfers, peer_fraction,
                         **({} if access_size is None
                            else {"access_size": access_size}))
        self._started = False
        self._resident_task: FluidTask | None = None
        self._started_at: float | None = None
        # Chunks the bitmap scan found, in arrival order.  Per-chunk
        # dispatch work serializes within the agent's warp group: the
        # head chunk is being dispatched, the rest wait behind it.
        self._pending: Deque[Tuple[int, Optional[int]]] = deque()

    # ------------------------------------------------------------------
    # Residency (resource steal)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the persistent polling kernel on the source GPU."""
        if self._started:
            raise ProactError("polling agent already started")
        self._started = True
        if self.fluid_contention:
            gpu = self.system.gpus[self.src_id]
            demand = (gpu.spec.transfer_thread_demand(
                          self.config.transfer_threads)
                      + gpu.spec.polling_overhead_fraction)
            self._resident_task = gpu.compute.launch(
                f"gpu{self.src_id}.polling-agent", work=math.inf,
                demand=min(demand, 1.0))
        self._started_at = self.system.engine.now

    def stop(self) -> None:
        """Terminate the polling kernel, releasing its GPU resources."""
        if not self._started:
            raise ProactError("polling agent not started")
        if self._resident_task is not None:
            gpu = self.system.gpus[self.src_id]
            gpu.compute.stop(self._resident_task)
            self._resident_task = None
        self._started = False

    @property
    def is_resident(self) -> bool:
        return self._resident_task is not None

    # ------------------------------------------------------------------
    # Chunk dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, nbytes: int, chunk=None) -> None:
        if not self._started:
            raise ProactError("chunk_ready() before the agent started")
        self._begin_send()
        engine = self.system.engine
        # The chunk waits for the next bitmap scan tick.
        period = self.config.poll_period
        assert self._started_at is not None
        elapsed = engine.now - self._started_at
        wait = period - math.fmod(elapsed, period)
        engine._call(wait, partial(self._polled, nbytes, chunk, wait))

    def _polled(self, nbytes: int, chunk, wait: float) -> None:
        """The bitmap scan found the chunk: queue it for dispatch."""
        engine = self.system.engine
        # The bitmap scan that found this chunk is an agent wakeup.
        if engine.tracer.enabled:
            engine.tracer.record(
                engine.now, f"gpu{self.src_id}.agent", "poll",
                payload={"waited_s": wait})
        if engine.metrics.enabled:
            engine.metrics.inc("agent_polls", src=self.src_id)
            engine.metrics.observe("poll_wait_us", wait * 1e6,
                                   src=self.src_id)
        pending = self._pending
        pending.append((nbytes, chunk))
        if len(pending) == 1:
            engine._call(CHUNK_DISPATCH_OVERHEAD, self._dispatched)

    def _dispatched(self) -> None:
        """The head chunk's dispatch work is done: start the next
        chunk's, then send this one."""
        pending = self._pending
        nbytes, chunk = pending.popleft()
        if pending:
            self.system.engine._call(CHUNK_DISPATCH_OVERHEAD,
                                     self._dispatched)
        self._send_chunk(nbytes, chunk, self._end_send)
