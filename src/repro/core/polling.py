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

Per tick instant, the poll tick is one engine callback: the chunks that
become ready before one bitmap scan ride that scan's entry, in arrival
order.  The tick appends them to the agent's dispatch queue, whose head
is served by one ``CHUNK_DISPATCH_OVERHEAD`` callback; that callback
starts the next chunk's dispatch before it sends its own chunk, so
chunks found at one instant leave the agent one dispatch overhead
apart, in arrival order.
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
    from repro.hw.specs import GpuSpec
    from repro.runtime.system import System

#: Per-chunk dispatch work inside the polling agent (bitmap scan hit,
#: address generation, copy-loop setup) — serialized within the agent's
#: warp group.  This is what makes very fine chunks initiation-bound
#: even for polling.
CHUNK_DISPATCH_OVERHEAD = usec(0.5)

#: A chunk the bitmap scan finds: ``(bytes, chunk index, poll wait)``.
_Found = Tuple[int, Optional[int], float]


def resident_demand(spec: "GpuSpec", threads: int) -> float:
    """The resident polling kernel's share of its GPU's compute.

    Its transfer threads plus the spin loops' overhead, capped at the
    whole GPU.
    """
    return min(spec.transfer_thread_demand(threads)
               + spec.polling_overhead_fraction, 1.0)


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
        # Chunks the bitmap scan found, in arrival order, each as
        # (bytes, chunk, poll wait).  Per-chunk dispatch work serializes
        # within the agent's warp group: the head chunk is being
        # dispatched, the rest wait behind it.
        self._pending: Deque[_Found] = deque()
        # The latest scheduled scan: its instant and the chunks it finds.
        self._tick_at = math.nan
        self._tick: List[_Found] = []

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
            self._resident_task = gpu.compute.launch(
                f"gpu{self.src_id}.polling-agent", work=math.inf,
                demand=resident_demand(gpu.spec,
                                       self.config.transfer_threads))
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
        tick = engine.now + wait
        if tick == self._tick_at:
            self._tick.append((nbytes, chunk, wait))
            return
        self._tick_at = tick
        self._tick = [(nbytes, chunk, wait)]
        engine._call(wait, partial(self._polled, self._tick))

    def _polled(self, found: List[_Found]) -> None:
        """The bitmap scan found these chunks: queue them for dispatch."""
        engine = self.system.engine
        if found is self._tick:
            self._tick_at = math.nan
        if not self._pending:
            engine._call(CHUNK_DISPATCH_OVERHEAD, self._dispatched)
        self._pending.extend(found)
        for _nbytes, _chunk, wait in found:
            # Each chunk the scan found is an agent wakeup.
            if engine.tracer.enabled:
                engine.tracer.record(
                    engine.now, f"gpu{self.src_id}.agent", "poll",
                    payload={"waited_s": wait})
            if engine.metrics.enabled:
                engine.metrics.inc("agent_polls", src=self.src_id)
                engine.metrics.observe("poll_wait_us", wait * 1e6,
                                       src=self.src_id)

    def _dispatched(self) -> None:
        """The head chunk's dispatch work is done: start the next
        chunk's, then send this one."""
        pending = self._pending
        nbytes, chunk, _wait = pending.popleft()
        if pending:
            self.system.engine._call(CHUNK_DISPATCH_OVERHEAD,
                                     self._dispatched)
        self._send_chunk(nbytes, chunk, self._end_send)
