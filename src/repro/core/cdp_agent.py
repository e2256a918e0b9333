"""The CUDA-Dynamic-Parallelism transfer agent (Section III-C, "CDP").

When a chunk's counter reaches zero, the producer kernel launches a child
kernel that copies the chunk to every destination GPU.  Compared with
polling, CDP consumes compute resources only *during* copies — but every
launch pays a driver-serialized initiation latency, which is substantial
and architecture-dependent (highest on Volta, Section V-A).

The agent queues each chunk's child launch on its device's CDP launch
queue (:meth:`~repro.runtime.device.Device.enqueue_cdp_launch`), the
same FIFO ``Device.cdp_launch`` uses.  When the launch is up, a copy
task joins the GPU's fluid share until the chunk's last destination
transfer delivers.
"""

from __future__ import annotations

import typing
from functools import partial
from typing import List

from repro.core.agents import DecoupledAgent
from repro.core.config import ProactConfig
from repro.hw.fluid import FluidTask

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System


class CdpAgent(DecoupledAgent):
    """Transfer agent using dynamic child-kernel launches."""

    def __init__(self, system: "System", src_id: int, config: ProactConfig,
                 destinations: List[int],
                 elide_transfers: bool = False,
                 peer_fraction: float = 1.0,
                 access_size: int | None = None) -> None:
        super().__init__(system, src_id, config, destinations,
                         elide_transfers, peer_fraction,
                         **({} if access_size is None
                            else {"access_size": access_size}))
        self._device = system.devices[src_id]

    def _dispatch(self, nbytes: int, chunk=None) -> None:
        self._begin_send()
        # Dynamic kernel launches funnel through the host driver one at a
        # time; this is the initiation-bound region of Figure 6.
        self._device.enqueue_cdp_launch(
            partial(self._launched, nbytes, chunk, self.system.engine.now))

    def _launched(self, nbytes: int, chunk, requested: float) -> None:
        """The child kernel is up: copy the chunk to every peer."""
        engine = self.system.engine
        if engine.tracer.enabled:
            engine.tracer.span(
                requested, engine.now,
                f"gpu{self.src_id}.agent", "cdp-launch",
                payload={"bytes": nbytes})
        if engine.metrics.enabled:
            engine.metrics.inc("cdp_launches", src=self.src_id)
        # While the copy kernel runs, its threads occupy GPU resources —
        # unless the fluid_contention ablation turned that cost off.
        if not self.fluid_contention:
            self._send_chunk(nbytes, chunk, self._end_send)
            return
        gpu = self.system.gpus[self.src_id]
        demand = gpu.spec.transfer_thread_demand(
            self.config.transfer_threads)
        copy_task = gpu.compute.launch(
            f"gpu{self.src_id}.cdp-copy", work=float("inf"),
            demand=max(demand, 1e-6))
        self._send_chunk(nbytes, chunk, partial(self._copied, copy_task))

    def _copied(self, copy_task: FluidTask) -> None:
        """The copy kernel exits, releasing its share of the GPU."""
        self.system.gpus[self.src_id].compute.stop(copy_task)
        self._end_send()
