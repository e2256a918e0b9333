"""A device: the runtime's view of one GPU plus its engines.

:class:`Device` wraps a :class:`~repro.hw.gpu.Gpu` with the operations a
CUDA-like runtime exposes:

* ``launch_kernel`` — kernel launch latency, then fluid-share execution,
  with externally visible progress-milestone events.  A milestone
  event's waiters run in the heap entry of the fluid task's own
  milestone, so a milestone costs no entry of its own.
* ``memcpy_peer`` — DMA-engine bulk copy: host-side initiation overhead,
  engine serialization, then a max-payload-efficiency fabric transfer.
* ``cdp_launch`` — CUDA Dynamic Parallelism: a driver-serialized launch
  delay, then a child task on the GPU's compute fabric.  The driver is
  one FIFO of launch callbacks per device, each served by one
  ``Engine._call(cdp_launch_latency)``; CDP transfer agents queue their
  child launches on it too (``enqueue_cdp_launch``).
"""

from __future__ import annotations

import typing
from collections import deque
from functools import partial
from typing import Callable, Deque, Optional, Sequence

from repro.errors import RuntimeApiError
from repro.hw.gpu import Gpu
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System


class KernelLaunch:
    """Handle to a launched kernel.

    ``done`` fires when the kernel completes; ``milestone_events[i]``
    fires when execution crosses the i-th requested progress fraction.
    """

    def __init__(self, device: "Device", name: str, work: float,
                 demand: float, milestones: Sequence[float]) -> None:
        engine = device.system.engine
        self.device = device
        self.name = name
        self.work = work
        self.milestone_events = tuple(Event(engine) for _ in milestones)
        self._milestones = tuple(milestones)
        self._demand = demand
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done: Process = engine.process(self._run(), name=f"kernel:{name}")

    def _run(self):
        device = self.device
        engine = device.system.engine
        yield engine._sleep(device.gpu.spec.kernel_launch_latency)
        self.started_at = engine.now
        task = device.gpu.compute.launch(
            self.name, self.work, self._demand, self._milestones)
        # Each milestone's waiters run in the entry of the task's own
        # milestone, not one entry later.
        for external, internal in zip(self.milestone_events,
                                      task.milestone_events):
            assert internal.callbacks is not None
            internal.callbacks.append(
                lambda event, ext=external: ext._fire_now(event._value))
        yield task.done
        self.finished_at = engine.now
        return self


class Device:
    """The runtime's handle to one GPU."""

    def __init__(self, system: "System", gpu: Gpu,
                 dma_engines: int = 1) -> None:
        self.system = system
        self.gpu = gpu
        engine = system.engine
        # Copy engines per GPU: cudaMemcpys beyond this count serialize
        # (one on most parts; Tesla-class GPUs ship two or three).
        self.dma_engine = Resource(engine, capacity=dma_engines)
        # Dynamic kernel launches funnel through the host driver one at
        # a time: the callables of queued launches, the head one's launch
        # in progress.
        self._cdp_queue: Deque[Callable[[], None]] = deque()
        self.memcpy_count = 0
        self.cdp_launch_count = 0

    @property
    def device_id(self) -> int:
        return self.gpu.gpu_id

    @property
    def spec(self):
        return self.gpu.spec

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def launch_kernel(self, name: str, work: float, demand: float = 1.0,
                      milestones: Sequence[float] = ()) -> KernelLaunch:
        """Launch a kernel taking ``work`` uncontended seconds."""
        if work < 0:
            raise RuntimeApiError(f"negative kernel work: {work}")
        return KernelLaunch(self, name, work, demand, milestones)

    # ------------------------------------------------------------------
    # DMA bulk copies (cudaMemcpy peer-to-peer)
    # ------------------------------------------------------------------
    def memcpy_peer(self, dst: "Device", nbytes: int) -> Process:
        """Bulk DMA copy to a peer device; returns the completion process."""
        if dst.system is not self.system:
            raise RuntimeApiError("memcpy_peer across different systems")
        if dst.device_id == self.device_id:
            raise RuntimeApiError("memcpy_peer to the same device")
        if nbytes < 0:
            raise RuntimeApiError(f"negative copy size: {nbytes}")
        return self.system.engine.process(
            self._memcpy(dst, nbytes),
            name=f"memcpy:{self.device_id}->{dst.device_id}")

    def _memcpy(self, dst: "Device", nbytes: int):
        engine = self.system.engine
        yield self.dma_engine.request()
        try:
            yield engine._sleep(self.spec.dma_init_overhead)
            fmt = self.system.fabric.spec.fmt
            receipt = yield self.system.fabric.send(
                self.device_id, dst.device_id, nbytes,
                access_size=fmt.max_payload)
        finally:
            self.dma_engine.release()
        self.memcpy_count += 1
        return receipt

    # ------------------------------------------------------------------
    # CUDA Dynamic Parallelism
    # ------------------------------------------------------------------
    def enqueue_cdp_launch(self, launched: Callable[[], None]) -> None:
        """Queue a dynamic kernel launch at the host driver.

        The driver launches one kernel at a time, in request order, each
        taking ``spec.cdp_launch_latency``; ``launched()`` runs when this
        one is up.
        """
        queue = self._cdp_queue
        queue.append(launched)
        if len(queue) == 1:
            self.system.engine._call(self.spec.cdp_launch_latency,
                                     self._cdp_launched)

    def _cdp_launched(self) -> None:
        """The head launch is up: start the next one, then run it."""
        queue = self._cdp_queue
        launched = queue.popleft()
        if queue:
            self.system.engine._call(self.spec.cdp_launch_latency,
                                     self._cdp_launched)
        self.cdp_launch_count += 1
        launched()

    def cdp_launch(self, name: str, work: float, demand: float) -> Event:
        """Launch a dynamic (child) kernel; returns its completion event."""
        if work < 0:
            raise RuntimeApiError(f"negative CDP work: {work}")
        done = Event(self.system.engine)
        self.enqueue_cdp_launch(
            partial(self._cdp_run, name, work, demand, done))
        return done

    def _cdp_run(self, name: str, work: float, demand: float,
                 done: Event) -> None:
        if work > 0:
            task = self.gpu.compute.launch(f"cdp:{name}", work, demand)
            task.done.callbacks.append(lambda _event: done.succeed(self))
        else:
            done.succeed(self)

    def __repr__(self) -> str:
        return f"<Device {self.device_id} {self.spec.name}>"
