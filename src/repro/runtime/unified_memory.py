"""Unified Memory cost model (the paper's UM baseline, Section IV-B).

Unified Memory lets kernels access remote data transparently; the runtime
migrates pages on demand.  Its costs, as modelled here:

* **Demand faults** (Pascal/Volta): a GPU touching a non-resident page
  stalls while the host driver services the fault and migrates the page.
  Faults are serviced in batches — the driver overlaps a limited number —
  so total fault time is ``pages * fault_latency / batch``, plus the page
  migration traffic itself on the fabric.
* **Hints** (``cudaMemAdvise``/prefetch): an expert can pre-fetch a
  fraction of the working set in bulk before the kernel, avoiding faults
  for those pages (but not overlapping the prefetch with compute).
* **Legacy UM** (Kepler): no GPU page-fault hardware; the driver mirrors
  dirty data through host memory around every kernel launch at 40% of
  the link bandwidth, regardless of hints.
"""

from __future__ import annotations

import math
import typing
from functools import partial

from repro.errors import RuntimeApiError
from repro.sim.events import PRIORITY_URGENT, Event
from repro.units import KiB

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.device import Device

#: Demand faults land at GPU page granularity — far smaller than a bulk
#: prefetch — which is what makes fault-driven access so expensive.
UM_FAULT_PAGE_SIZE = 4 * KiB

#: Page faults the driver services concurrently (batching factor).
UM_FAULT_BATCH = 8

#: Legacy (pre-Pascal) UM stages through host memory at 40% of link
#: speed: the mirror moves 2.5x the bytes.
UM_LEGACY_BANDWIDTH_FACTOR = 0.4


class UnifiedMemoryModel:
    """Executes UM migrations for one system.

    Each migration is a chain of engine callbacks, not a process: a
    driver delay, then a fabric send whose completion callable takes
    the next step.  Every method returns an event that fires with the
    migrated byte count.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.pages_faulted = 0
        self.bytes_migrated = 0

    def _bulk(self, dst: "Device", src: "Device", nbytes: int,
              wire_payload: int, delay: float) -> Event:
        """After ``delay``, send ``wire_payload`` bytes as DMA-sized
        accesses; the event fires with ``nbytes`` once they arrive."""
        engine = self.system.engine
        fabric = self.system.fabric
        done = Event(engine)

        def finish() -> None:
            self.bytes_migrated += nbytes
            done.succeed(nbytes)

        def send() -> None:
            if nbytes > 0:
                fabric.send(src.device_id, dst.device_id, wire_payload,
                            access_size=fabric.spec.fmt.max_payload,
                            then=finish)
            else:
                finish()

        # An urgent zero-delay start, then the delay: the same entries a
        # process's start and first sleep take.
        engine._call(0.0, partial(engine._call, delay, send),
                     PRIORITY_URGENT)
        return done

    def prefetch(self, dst: "Device", src: "Device", nbytes: int) -> Event:
        """Bulk prefetch (`cudaMemPrefetchAsync`): no per-page faults.

        Modelled as a DMA-style transfer; one driver call per region.
        """
        if nbytes < 0:
            raise RuntimeApiError(f"negative prefetch size: {nbytes}")
        return self._bulk(dst, src, nbytes, nbytes,
                          dst.spec.dma_init_overhead)

    def demand_migrate(self, dst: "Device", src: "Device",
                       nbytes: int) -> Event:
        """Fault-driven migration of ``nbytes`` from ``src`` to ``dst``.

        Pages fault in batches of :data:`UM_FAULT_BATCH`; each batch
        waits one fault latency, then migrates over the fabric, and its
        arrival starts the next batch.
        """
        if nbytes < 0:
            raise RuntimeApiError(f"negative migration size: {nbytes}")
        engine = self.system.engine
        fabric = self.system.fabric
        fault_latency = dst.spec.um_fault_latency
        done = Event(engine)
        remaining = nbytes

        def next_batch() -> None:
            if remaining > 0:
                # One fault latency covers the whole overlapped batch.
                engine._call(fault_latency, send_batch)
                return
            self.pages_faulted += math.ceil(nbytes / UM_FAULT_PAGE_SIZE)
            self.bytes_migrated += nbytes
            done.succeed(nbytes)

        def send_batch() -> None:
            nonlocal remaining
            batch_pages = min(UM_FAULT_BATCH, math.ceil(
                remaining / UM_FAULT_PAGE_SIZE))
            batch_bytes = min(remaining, batch_pages * UM_FAULT_PAGE_SIZE)
            remaining -= batch_bytes
            fabric.send(src.device_id, dst.device_id, batch_bytes,
                        access_size=UM_FAULT_PAGE_SIZE, then=next_batch)

        engine._call(0.0, next_batch, PRIORITY_URGENT)
        return done

    def legacy_mirror(self, dst: "Device", src: "Device",
                      nbytes: int) -> Event:
        """Kepler-era UM: stage through the host at reduced bandwidth.

        Host staging cuts effective bandwidth to 40% of the link's: the
        wire-time equivalent of ``nbytes / UM_LEGACY_BANDWIDTH_FACTOR``
        (2.5x the bytes) crosses the same route, after two DMA set-ups
        (one per hop).
        """
        if nbytes < 0:
            raise RuntimeApiError(f"negative mirror size: {nbytes}")
        return self._bulk(dst, src, nbytes,
                          int(nbytes / UM_LEGACY_BANDWIDTH_FACTOR),
                          dst.spec.dma_init_overhead * 2)
