"""Hardware PROACT (Section III-D): the design the paper leaves to
future work, realized in the simulator.

With hardware support, readiness counters live in a dedicated structure
updated automatically by local writes (no instrumentation instructions in
the producer kernel), and a counter reaching zero signals a simplified
DMA-style transfer engine whose descriptors the PROACT runtime prepared
in advance.  Consequences, relative to the software prototype:

* **no tracking overhead** on the compute kernel (Figure 8 goes to ~0),
* **no SM resources consumed** by transfer threads or polling loops,
* **tiny initiation cost** per chunk (a descriptor fetch, not a CDP
  launch or a poll-loop pass), with no host-driver involvement,
* transfers still ride the same interconnect, so wire time is unchanged.

Per chunk, the descriptor fetch is one engine callback that sends the
chunk to every peer.

The paper argues a hardware implementation would outperform the inline
variant in all cases; the ablation harness
(:mod:`repro.experiments.ablations`) quantifies that claim on this model.
"""

from __future__ import annotations

import typing
from functools import partial
from typing import List

from repro.core.agents import DecoupledAgent
from repro.core.config import ProactConfig
from repro.units import usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System

#: Descriptor fetch + engine kick-off per chunk transfer.
HW_DESCRIPTOR_LATENCY = usec(0.4)


class HardwareAgent(DecoupledAgent):
    """A dedicated hardware transfer engine.

    Unlike the polling and CDP agents it consumes no GPU compute
    resources and needs no driver round trips; its only cost beyond the
    wire itself is a per-chunk descriptor latency.  The engine's copy
    bandwidth matches DMA-class hardware, so the configured transfer
    thread count is irrelevant (the throttle link never bottlenecks).
    """

    def __init__(self, system: "System", src_id: int, config: ProactConfig,
                 destinations: List[int],
                 elide_transfers: bool = False,
                 peer_fraction: float = 1.0,
                 access_size: int | None = None) -> None:
        # Hardware engines move data at full link speed: model the
        # internal path as wide enough to feed every destination link.
        engine_config = ProactConfig(
            mechanism=config.mechanism,
            chunk_size=config.chunk_size,
            transfer_threads=_engine_equivalent_threads(system, src_id),
            poll_period=config.poll_period)
        super().__init__(system, src_id, engine_config, destinations,
                         elide_transfers, peer_fraction,
                         **({} if access_size is None
                            else {"access_size": access_size}))

    def _dispatch(self, nbytes: int, chunk=None) -> None:
        self._begin_send()
        self.system.engine._call(
            HW_DESCRIPTOR_LATENCY,
            partial(self._descriptor_fetched, nbytes, chunk))

    def _descriptor_fetched(self, nbytes: int, chunk=None) -> None:
        engine = self.system.engine
        if engine.tracer.enabled:
            engine.tracer.record(
                engine.now, f"gpu{self.src_id}.agent", "hw-descriptor",
                payload={"bytes": nbytes})
        if engine.metrics.enabled:
            engine.metrics.inc("hw_descriptors", src=self.src_id)
        self._send_chunk(nbytes, chunk, self._end_send)


def _engine_equivalent_threads(system: "System", src_id: int) -> int:
    """Thread count whose aggregate copy bandwidth saturates every link."""
    spec = system.devices[src_id].spec
    per_gpu_unidir = system.fabric.spec.unidir_bw_per_gpu
    threads = int(2 * per_gpu_unidir / spec.copy_thread_bandwidth) + 1
    return max(threads, 1)
