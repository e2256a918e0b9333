"""The top-level simulated multi-GPU system.

:class:`System` assembles one engine, the GPUs of a
:class:`~repro.hw.platform.PlatformSpec`, the interconnect fabric, and
per-GPU devices.  Every simulation in this library — microbenchmark,
profiler run, end-to-end application — starts by building a ``System``.

    system = Session("4x_pascal").system()
    kernel = system.devices[0].launch_kernel("produce", work=1e-3)
    system.run(until=kernel.done)
"""

from __future__ import annotations

import typing
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.hw.gpu import Gpu
from repro.hw.platform import PlatformSpec
from repro.interconnect.fabric import Fabric
from repro.interconnect.packet import raw_format
from repro.obs.capture import active as active_observation
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.runtime.device import Device
from repro.sim.engine import Engine
from repro.sim.trace import NULL_TRACER, Tracer
from repro.validate.sanitizer import ReadinessSanitizer
from repro.validate.scope import active as active_validation

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import Mechanisms


class System:
    """One complete simulated multi-GPU machine.

    Observability: pass ``tracer``/``metrics`` explicitly, or build the
    system inside an ambient :func:`repro.obs.capture` scope and it
    receives a fresh tracer plus the scope's shared metrics registry
    automatically.  Both default to shared no-ops, so an unobserved
    simulation pays nothing.  Call
    :meth:`repro.api.Session.finish` after a hand-driven run to flush
    derived lanes (merged link occupancy) and run totals into them.
    """

    def __init__(self, spec: PlatformSpec, infinite_bw: bool = False,
                 num_gpus: Optional[int] = None,
                 dma_engines: int = 1,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 sanitizer: Optional[ReadinessSanitizer] = None,
                 mechanisms: Optional[Mechanisms] = None) -> None:
        if num_gpus is not None:
            spec = spec.with_num_gpus(num_gpus)
        if dma_engines < 1:
            raise ConfigurationError(
                f"need >= 1 DMA engine per GPU: {dma_engines}")
        self.spec = spec
        if mechanisms is None:
            # Imported lazily: repro.core imports this module at top level.
            from repro.core.config import DEFAULT_MECHANISMS
            mechanisms = DEFAULT_MECHANISMS
        #: The mechanism-toggle policy every component of this system
        #: consults (:class:`repro.core.config.Mechanisms`); defaults to
        #: everything enabled.
        self.mechanisms = mechanisms
        observation = active_observation()
        if tracer is None:
            tracer = (observation.new_tracer(spec.name)
                      if observation is not None else NULL_TRACER)
        elif observation is not None and tracer.enabled:
            observation.adopt_tracer(spec.name, tracer)
        if metrics is None:
            metrics = (observation.metrics if observation is not None
                       else NULL_METRICS)
        if sanitizer is None:
            validation = active_validation()
            if validation is not None:
                sanitizer = validation.new_sanitizer(spec.name)
        self.tracer = tracer
        self.metrics = metrics
        self._observation_finished = False
        self.engine = Engine(tracer=tracer, metrics=metrics,
                             sanitizer=sanitizer)
        self.gpus: List[Gpu] = [
            Gpu(self.engine, i, spec.gpu) for i in range(spec.num_gpus)]
        if spec.is_cluster:
            # Imported lazily: the cluster package builds on this module's
            # dependencies (fabric, platform specs).
            from repro.cluster.fabric import ClusterFabric
            self.fabric: Fabric = ClusterFabric(
                self.engine, spec, infinite=infinite_bw)
        else:
            fmt = (None if self.mechanisms.packet_overhead
                   else raw_format(spec.interconnect.fmt))
            self.fabric = Fabric(self.engine, spec.interconnect,
                                 spec.num_gpus, infinite=infinite_bw,
                                 fmt=fmt)
        self.devices: List[Device] = [
            Device(self, gpu, dma_engines=dma_engines) for gpu in self.gpus]
        self.checker = None
        if self.engine.sanitizer.enabled:
            from repro.validate.conservation import ConservationChecker
            self.checker = ConservationChecker(self)

    @property
    def num_gpus(self) -> int:
        return self.spec.num_gpus

    @property
    def validating(self) -> bool:
        """Whether this system runs under the readiness sanitizer."""
        return self.engine.sanitizer.enabled

    @property
    def now(self) -> float:
        return self.engine.now

    def device(self, device_id: int) -> Device:
        if not 0 <= device_id < self.num_gpus:
            raise ConfigurationError(
                f"device id {device_id} out of range 0..{self.num_gpus - 1}")
        return self.devices[device_id]

    def run(self, until=None):
        """Advance the simulation (see :meth:`repro.sim.Engine.run`)."""
        return self.engine.run(until)

    def collective(self, collective: str, nbytes: int,
                   algorithm: str = "ring",
                   chunk_size: Optional[int] = None,
                   root: int = 0,
                   access_size: Optional[int] = None):
        """Launch a collective over the fabric; returns its process.

        The schedule is compiled by
        :func:`repro.collectives.build_schedule` and executed on this
        system's links by completion callbacks (one process for the
        whole collective, none per transfer), so contention and
        per-packet efficiency are modelled.  ``chunk_size`` defaults to
        the PROACT default granularity
        (:data:`repro.core.config.DEFAULT_CONFIG`).  The returned
        process yields a
        :class:`~repro.collectives.executor.CollectiveResult`::

            proc = system.collective("all_reduce", 16 * MiB)
            result = system.run(until=proc)
        """
        from repro.collectives.algorithms import build_schedule
        from repro.collectives.executor import CollectiveExecutor
        if chunk_size is None:
            from repro.core.config import DEFAULT_CONFIG
            chunk_size = DEFAULT_CONFIG.chunk_size
        schedule = build_schedule(
            collective, algorithm, self.num_gpus, nbytes, chunk_size,
            root=root,
            gpus_per_node=getattr(self.spec, "gpus_per_node", None))
        executor = CollectiveExecutor(self, access_size=access_size)
        return executor.launch(schedule)

    def _finish(self) -> None:
        """End of run: audit conservation, flush link lanes and totals.

        A validating system checks byte conservation over every link.
        Link occupancy is accumulated as intervals during the run (one
        per service quantum) and exported here as *merged* busy spans —
        one trace span per contiguous busy stretch — so even
        quantum-heavy runs produce compact traces.  Safe to call from
        every run-shaped entry point; the flush happens once.
        """
        if self.checker is not None:
            self.checker.check(self.now)
        if self._observation_finished:
            return
        self._observation_finished = True
        if self.tracer.enabled:
            for link in self.fabric.links:
                channel = f"gpu{link.owner_gpu}.link:{link.name}" \
                    if link.owner_gpu is not None else f"link:{link.name}"
                for start, end in link.busy.merged():
                    self.tracer.span(start, end, channel, "busy")
        if self.metrics.enabled:
            self.metrics.set_gauge("sim_runtime_s", self.now,
                                   platform=self.spec.name)
            self.metrics.inc("engine_events_scheduled",
                             self.engine.events_scheduled)
            self.metrics.inc("engine_events_fired",
                             self.engine.events_fired)
            for link in self.fabric.links:
                if link.wire_bytes == 0:
                    continue
                self.metrics.inc("link_wire_bytes", link.wire_bytes,
                                 link=link.name)
                self.metrics.inc("link_goodput_bytes", link.goodput_bytes,
                                 link=link.name)
                self.metrics.observe("link_utilization",
                                     link.utilization(self.now))
            self.metrics.inc("fabric_goodput_bytes",
                             self.fabric.total_goodput_bytes())
            self.metrics.inc("fabric_wire_bytes",
                             self.fabric.total_wire_bytes())

    def __repr__(self) -> str:
        return (f"<System {self.spec.name}: {self.num_gpus}x "
                f"{self.spec.gpu.name} over {self.spec.interconnect.name}>")
