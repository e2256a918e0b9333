"""Fine-grained P2P *loads* (the paper's Figure 1(b) paradigm).

Instead of producers pushing data, consumer kernels read peer memory
directly.  Two costs make this the paradigm the paper argues against in
Section II-B:

* remote loads cross the interconnect at load granularity (32-byte
  sectors), paying heavy packetization overhead, and
* unlike stores, loads carry a dependence: once the GPU's latency-hiding
  capacity is exhausted, warps *stall*, eating issue slots that
  computation needed.  This is modelled as a stall task occupying a
  fraction of the consumer GPU's throughput while its remote reads are
  streaming.

PROACT keeps the fine-grained programming model but converts these loads
into local reads of proactively pushed data — Figure 1(d).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.agents import THROTTLE_FORMAT
from repro.core.runtime import GpuPhaseWork
from repro.interconnect.link import Link
from repro.interconnect.route import Route
from repro.paradigms.base import Paradigm, ParadigmResult, launch_phase_kernels
from repro.runtime.system import System
from repro.units import KiB

#: Remote loads fetch 32-byte sectors.
REMOTE_LOAD_ACCESS = 32

#: Fraction of GPU throughput consumed by load-stall bubbles while remote
#: reads are in flight (multithreading hides the rest).
LOAD_STALL_DEMAND = 1.0

#: Effective outstanding remote-load bytes a GPU sustains; divided by the
#: interconnect latency this caps remote-read goodput (Little's law) —
#: the "load stalls build up" effect of Section II-B.
LOAD_OUTSTANDING_BYTES = 16 * KiB


class P2pLoadParadigm(Paradigm):
    """Consumers read producer data through fine-grained remote loads."""

    name = "P2P-loads"

    def _drive(self, system: System, workload,
               phases: Sequence[Sequence[GpuPhaseWork]],
               result: ParadigmResult):
        engine = system.engine
        previous_works: Sequence[GpuPhaseWork] = ()
        for works in phases:
            phase_start = engine.now
            launches = launch_phase_kernels(system, works)
            # Each consumer streams the previous phase's remote data in
            # during its kernel, stalling part of its throughput.
            read_processes = []
            for dst_id in range(system.num_gpus):
                incoming = [
                    (src_id, int(produced.region_bytes
                                 * produced.peer_fraction))
                    for src_id, produced in enumerate(previous_works)
                    if src_id != dst_id and produced.region_bytes > 0]
                total_in = sum(nbytes for _src, nbytes in incoming)
                if total_in <= 0:
                    continue
                read_processes.append(engine.process(
                    self._stream_reads(system, dst_id, incoming),
                    name=f"p2p-reads:gpu{dst_id}"))
            waits = [launch.done for launch in launches] + read_processes
            yield engine.all_of(waits)
            result.phase_durations.append(engine.now - phase_start)
            previous_works = works

    def _stream_reads(self, system: System, dst_id: int, incoming):
        engine = system.engine
        gpu = system.gpus[dst_id]
        # Little's law: outstanding bytes over the interconnect latency
        # bounds the consumer's aggregate remote-read rate.
        read_cap = LOAD_OUTSTANDING_BYTES / system.fabric.spec.latency
        throttle = Link(engine, f"gpu{dst_id}.load-mshr", read_cap,
                        THROTTLE_FORMAT)
        stall = gpu.compute.launch(
            f"gpu{dst_id}.load-stalls", work=math.inf,
            demand=LOAD_STALL_DEMAND)
        try:
            reads = []
            for src_id, nbytes in incoming:
                fabric_route = system.fabric.route(src_id, dst_id)
                route = Route(engine, src_id, dst_id,
                              [throttle, *fabric_route.links],
                              fabric_route.latency)
                reads.append(route.transfer(
                    nbytes, access_size=REMOTE_LOAD_ACCESS))
            yield engine.all_of(reads)
        finally:
            gpu.compute.stop(stall)
