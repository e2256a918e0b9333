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
  dirty data through host memory around every kernel launch at roughly
  half the link bandwidth, regardless of hints.
"""

from __future__ import annotations

import math
import typing

from repro.errors import RuntimeApiError
from repro.sim.process import Process
from repro.units import KiB

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.device import Device

#: UM migration granularity for prefetches (the driver moves 64 KiB blocks).
UM_PAGE_SIZE = 64 * KiB

#: Demand faults land at GPU page granularity — far smaller than the
#: migration block — which is what makes fault-driven access so expensive.
UM_FAULT_PAGE_SIZE = 4 * KiB

#: Page faults the driver services concurrently (batching factor).
UM_FAULT_BATCH = 8

#: Legacy (pre-Pascal) UM stages through host memory at half link speed.
UM_LEGACY_BANDWIDTH_FACTOR = 0.4


class UnifiedMemoryModel:
    """Executes UM migrations for one system."""

    def __init__(self, system) -> None:
        self.system = system
        self.pages_faulted = 0
        self.bytes_migrated = 0

    def prefetch(self, dst: "Device", src: "Device", nbytes: int) -> Process:
        """Bulk prefetch (`cudaMemPrefetchAsync`): no per-page faults.

        Modelled as a DMA-style transfer; one driver call per region.
        """
        if nbytes < 0:
            raise RuntimeApiError(f"negative prefetch size: {nbytes}")
        return self.system.engine.process(
            self._prefetch(dst, src, nbytes),
            name=f"um-prefetch:{src.device_id}->{dst.device_id}")

    def _prefetch(self, dst: "Device", src: "Device", nbytes: int):
        engine = self.system.engine
        yield engine._sleep(dst.spec.dma_init_overhead)
        if nbytes > 0:
            fmt = self.system.fabric.spec.fmt
            yield self.system.fabric.send(
                src.device_id, dst.device_id, nbytes,
                access_size=fmt.max_payload)
        self.bytes_migrated += nbytes
        return nbytes

    def demand_migrate(self, dst: "Device", src: "Device",
                       nbytes: int) -> Process:
        """Fault-driven migration of ``nbytes`` from ``src`` to ``dst``."""
        if nbytes < 0:
            raise RuntimeApiError(f"negative migration size: {nbytes}")
        return self.system.engine.process(
            self._demand_migrate(dst, src, nbytes),
            name=f"um-fault:{src.device_id}->{dst.device_id}")

    def _demand_migrate(self, dst: "Device", src: "Device", nbytes: int):
        engine = self.system.engine
        fabric = self.system.fabric
        pages = math.ceil(nbytes / UM_FAULT_PAGE_SIZE)
        remaining = nbytes
        while remaining > 0:
            batch_pages = min(UM_FAULT_BATCH, math.ceil(
                remaining / UM_FAULT_PAGE_SIZE))
            batch_bytes = min(remaining, batch_pages * UM_FAULT_PAGE_SIZE)
            # One fault latency covers the whole overlapped batch.
            yield engine._sleep(dst.spec.um_fault_latency)
            yield fabric.send(src.device_id, dst.device_id, batch_bytes,
                              access_size=UM_FAULT_PAGE_SIZE)
            remaining -= batch_bytes
        self.pages_faulted += pages
        self.bytes_migrated += nbytes
        return nbytes

    def legacy_mirror(self, dst: "Device", src: "Device",
                      nbytes: int) -> Process:
        """Kepler-era UM: stage through the host at reduced bandwidth."""
        if nbytes < 0:
            raise RuntimeApiError(f"negative mirror size: {nbytes}")
        return self.system.engine.process(
            self._legacy_mirror(dst, src, nbytes),
            name=f"um-legacy:{src.device_id}->{dst.device_id}")

    def _legacy_mirror(self, dst: "Device", src: "Device", nbytes: int):
        engine = self.system.engine
        yield engine._sleep(dst.spec.dma_init_overhead * 2)  # two hops
        if nbytes > 0:
            fmt = self.system.fabric.spec.fmt
            # Host staging halves effective bandwidth: send the wire-time
            # equivalent of twice the payload across the same route.
            yield self.system.fabric.send(
                src.device_id, dst.device_id,
                int(nbytes / UM_LEGACY_BANDWIDTH_FACTOR),
                access_size=fmt.max_payload)
        self.bytes_migrated += nbytes
        return nbytes
