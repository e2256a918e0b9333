"""The PROACT phase executor: producer kernels + proactive transfers.

This is the runtime heart of the reproduction.  One *phase* is the unit
the paper's applications iterate: every GPU runs a producer kernel whose
writes to its PROACT region must reach every peer before the next phase.

For each GPU the executor:

1. computes the instrumented kernel work (base + tracking overhead for
   decoupled mechanisms, base + store-issue work for inline),
2. derives the chunk readiness schedule from the region's block mapping
   and the CTA wave model,
3. launches the kernel with a milestone per chunk,
4. feeds ready chunks to the configured transfer agent (polling / CDP) or
   emits inline store segments,
5. completes when every GPU's kernel has retired *and* every byte has
   been delivered (the phase barrier).

``elide_transfers`` keeps all instrumentation and initiation costs but
skips the wire time — the methodology behind the paper's Figures 8 and 9.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, replace
from typing import List, Sequence

from repro.core.agents import DecoupledAgent
from repro.core.cdp_agent import CdpAgent
from repro.core.config import (
    DEFAULT_MECHANISMS,
    MECH_CDP,
    MECH_HARDWARE,
    MECH_INLINE,
    MECH_POLLING,
    ProactConfig,
)
from repro.core.hardware import HardwareAgent
from repro.core.inline import (
    INLINE_SEGMENTS,
    INLINE_STORE_QUEUE_SEGMENTS,
    inline_access_size,
    store_issue_work,
)
from repro.core.mapping import ContiguousMapping
from repro.core.polling import PollingAgent
from repro.core.region import MappingFactory, ProactRegion
from repro.core.tracker import tracking_overhead
from repro.errors import ConfigurationError, ProactError
from repro.runtime.kernels import KernelSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.system import System


@dataclass(frozen=True)
class GpuPhaseWork:
    """One GPU's contribution to a phase."""

    kernel: KernelSpec
    region_bytes: int = 0
    store_size: int = 8
    spatial_locality: float = 1.0
    readiness_shape: float = 1.0
    #: How many times each shared byte is re-written during the kernel
    #: (e.g. Bellman-Ford relaxes a distance repeatedly).  Inline stores
    #: push every intermediate value over the wire; decoupled transfers
    #: coalesce them in time and send only the final one.
    inline_write_amplification: float = 1.0
    #: Fraction of the region each *individual* peer consumes.  PROACT's
    #: per-peer block mappings (and UM's touch-driven migration) move only
    #: the data a consumer will read; ``cudaMemcpy`` duplication always
    #: copies whole structures.  1.0 at small GPU counts (everyone reads
    #: everything); below 1.0 at scale, where each consumer processes a
    #: shrinking slice of the problem.
    peer_fraction: float = 1.0
    mapping_factory: MappingFactory = ContiguousMapping

    def __post_init__(self) -> None:
        if self.region_bytes < 0:
            raise ProactError(f"negative region size: {self.region_bytes}")
        if self.inline_write_amplification < 1.0:
            raise ProactError(
                "inline write amplification must be >= 1.0: "
                f"{self.inline_write_amplification}")
        if not 0.0 < self.peer_fraction <= 1.0:
            raise ProactError(
                f"peer fraction out of (0, 1]: {self.peer_fraction}")

    def without_region(self) -> "GpuPhaseWork":
        """The same kernel with no shared-region output (final phases)."""
        return replace(self, region_bytes=0)


@dataclass
class GpuPhaseOutcome:
    """Timing observed for one GPU during a phase."""

    gpu_id: int
    kernel_start: float = 0.0
    kernel_end: float = 0.0
    transfers_end: float = 0.0
    bytes_sent: int = 0
    chunks_sent: int = 0


@dataclass
class PhaseResult:
    """Timing observed for a whole phase."""

    start: float
    end: float
    outcomes: List[GpuPhaseOutcome] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def last_kernel_end(self) -> float:
        return max(outcome.kernel_end for outcome in self.outcomes)

    @property
    def exposed_transfer_time(self) -> float:
        """Transfer time not hidden under any GPU's computation."""
        return max(0.0, self.end - self.last_kernel_end)

    @property
    def total_bytes_sent(self) -> int:
        return sum(outcome.bytes_sent for outcome in self.outcomes)


class ProactPhaseExecutor:
    """Executes phases on a system under one PROACT configuration."""

    def __init__(self, system: "System", config: ProactConfig,
                 elide_transfers: bool = False) -> None:
        self.system = system
        self.config = config
        self.elide_transfers = elide_transfers
        #: The system's mechanism-toggle policy; the single choke point
        #: for the decoupled-agent ablation.
        self.mechanisms = getattr(system, "mechanisms", DEFAULT_MECHANISMS)
        if not self.mechanisms.decoupled_agent and config.is_decoupled:
            raise ConfigurationError(
                f"mechanism {config.mechanism!r} needs a decoupled "
                "transfer agent, but the decoupled_agent mechanism is "
                "ablated — use an inline configuration")
        self._phase_index = 0

    def execute(self, works: Sequence[GpuPhaseWork]):
        """Run one phase; returns the completion process (PhaseResult)."""
        if len(works) != self.system.num_gpus:
            raise ProactError(
                f"phase specifies {len(works)} GPUs but the system has "
                f"{self.system.num_gpus}")
        return self.system.engine.process(
            self._execute(works), name="proact-phase")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute(self, works: Sequence[GpuPhaseWork]):
        engine = self.system.engine
        phase_name = f"phase{self._phase_index}"
        self._phase_index += 1
        result = PhaseResult(start=engine.now, end=engine.now)
        per_gpu = []
        # Everything published while this phase is in flight — agent
        # polls, chunk sends, transfer bytes — is attributed to it.
        with engine.metrics.phase(phase_name):
            for gpu_id, work in enumerate(works):
                outcome = GpuPhaseOutcome(gpu_id=gpu_id)
                result.outcomes.append(outcome)
                per_gpu.append(engine.process(
                    self._run_gpu(gpu_id, work, outcome),
                    name=f"phase-gpu{gpu_id}"))
            yield engine.all_of(per_gpu)
        result.end = engine.now
        if engine.sanitizer.enabled:
            # The phase barrier is the consumers' read point: audit that
            # every ready chunk's bytes landed everywhere they must, then
            # audit the links' byte accounting.
            engine.sanitizer.phase_end(
                engine.now, self._expected_destinations(works))
            checker = getattr(self.system, "checker", None)
            if checker is not None:
                checker.check(engine.now)
        self._observe_phase(phase_name, result)
        return result

    def _expected_destinations(self, works: Sequence[GpuPhaseWork]):
        """Destinations every producer's chunks must reach by the barrier."""
        expected = {}
        for gpu_id, work in enumerate(works):
            destinations = self._destinations(gpu_id)
            if (work.region_bytes > 0 and destinations
                    and self.config.mechanism != MECH_INLINE):
                expected[gpu_id] = tuple(destinations)
        return expected

    def _observe_phase(self, phase_name: str, result: PhaseResult) -> None:
        engine = self.system.engine
        if engine.tracer.enabled:
            engine.tracer.span(
                result.start, result.end, "phase", phase_name,
                payload={
                    "mechanism": self.config.mechanism,
                    "exposed_transfer_s": result.exposed_transfer_time,
                    "bytes_sent": result.total_bytes_sent,
                })
        if engine.metrics.enabled:
            engine.metrics.inc("phases", mechanism=self.config.mechanism)
            engine.metrics.observe(
                "phase_duration_ms", result.duration * 1e3,
                mechanism=self.config.mechanism)
            engine.metrics.observe(
                "exposed_transfer_ms", result.exposed_transfer_time * 1e3,
                mechanism=self.config.mechanism)

    def _destinations(self, gpu_id: int) -> List[int]:
        return [d for d in range(self.system.num_gpus) if d != gpu_id]

    def _run_gpu(self, gpu_id: int, work: GpuPhaseWork,
                 outcome: GpuPhaseOutcome):
        destinations = self._destinations(gpu_id)
        has_comm = work.region_bytes > 0 and destinations
        if not has_comm:
            yield from self._run_compute_only(gpu_id, work, outcome)
        elif self.config.mechanism == MECH_INLINE:
            yield from self._run_inline(gpu_id, work, outcome, destinations)
        else:
            yield from self._run_decoupled(gpu_id, work, outcome,
                                           destinations)

    def _observe_gpu(self, gpu_id: int, work: GpuPhaseWork,
                     outcome: GpuPhaseOutcome) -> None:
        """Publish one GPU's kernel and transfer-drain lanes."""
        engine = self.system.engine
        if engine.tracer.enabled:
            engine.tracer.span(
                outcome.kernel_start, outcome.kernel_end,
                f"gpu{gpu_id}.kernel", work.kernel.name,
                payload={"region_bytes": work.region_bytes})
            if outcome.transfers_end > outcome.kernel_end:
                engine.tracer.span(
                    outcome.kernel_end, outcome.transfers_end,
                    f"gpu{gpu_id}.agent", "drain",
                    payload={"mechanism": self.config.mechanism})
        if engine.metrics.enabled:
            engine.metrics.observe(
                "kernel_ms",
                (outcome.kernel_end - outcome.kernel_start) * 1e3,
                gpu=gpu_id)

    def _run_compute_only(self, gpu_id: int, work: GpuPhaseWork,
                          outcome: GpuPhaseOutcome):
        device = self.system.devices[gpu_id]
        gpu = self.system.gpus[gpu_id]
        launch = device.launch_kernel(
            work.kernel.name, work.kernel.uncontended_time(gpu))
        outcome.kernel_start = self.system.engine.now
        yield launch.done
        outcome.kernel_end = self.system.engine.now
        outcome.transfers_end = outcome.kernel_end
        self._observe_gpu(gpu_id, work, outcome)

    # -- decoupled (polling / CDP) -------------------------------------
    def _make_agent(self, gpu_id: int, destinations: List[int],
                    peer_fraction: float,
                    access_size: typing.Optional[int] = None
                    ) -> DecoupledAgent:
        if self.config.mechanism == MECH_POLLING:
            return PollingAgent(self.system, gpu_id, self.config,
                                destinations, self.elide_transfers,
                                peer_fraction=peer_fraction,
                                access_size=access_size)
        if self.config.mechanism == MECH_CDP:
            return CdpAgent(self.system, gpu_id, self.config, destinations,
                            elide_transfers=self.elide_transfers,
                            peer_fraction=peer_fraction,
                            access_size=access_size)
        if self.config.mechanism == MECH_HARDWARE:
            return HardwareAgent(self.system, gpu_id, self.config,
                                 destinations,
                                 elide_transfers=self.elide_transfers,
                                 peer_fraction=peer_fraction,
                                 access_size=access_size)
        raise ProactError(
            f"no decoupled agent for mechanism {self.config.mechanism!r}")

    def _run_decoupled(self, gpu_id: int, work: GpuPhaseWork,
                       outcome: GpuPhaseOutcome, destinations: List[int]):
        engine = self.system.engine
        device = self.system.devices[gpu_id]
        gpu = self.system.gpus[gpu_id]
        region = ProactRegion(
            work.region_bytes, self.config.chunk_size,
            mapping_factory=work.mapping_factory,
            readiness_shape=work.readiness_shape)
        schedule = region.readiness_schedule(gpu, work.kernel)
        tracking = self.mechanisms.readiness_tracking
        if not tracking:
            # No readiness counters: every chunk becomes transferable only
            # when the producer kernel retires (zero overlap).  A fresh
            # list — the original schedule is memoized per region shape.
            schedule = [replace(item, fraction=1.0) for item in schedule]
        agent_access = None
        if not self.mechanisms.write_coalescing:
            # Un-coalesced agents issue the application's natural store
            # pattern instead of packed 256 B batches.
            agent_access = inline_access_size(
                work.store_size, work.spatial_locality)
        agent = self._make_agent(gpu_id, destinations, work.peer_fraction,
                                 access_size=agent_access)
        polling = isinstance(agent, PollingAgent)
        if polling:
            agent.start()
        kernel_work = work.kernel.uncontended_time(gpu)
        if tracking and self.config.mechanism != MECH_HARDWARE:
            # Hardware PROACT tracks readiness in dedicated structures
            # updated by the memory system — no instrumentation cost.
            kernel_work += tracking_overhead(gpu.spec, work.kernel.num_ctas)
        launch = device.launch_kernel(
            work.kernel.name, kernel_work,
            milestones=region.milestone_fractions(schedule))
        sanitizer = engine.sanitizer
        if sanitizer.enabled:
            for item in schedule:
                sanitizer.register_chunk(gpu_id, item.chunk, item.nbytes,
                                         engine.now)
        for event, item in zip(launch.milestone_events, schedule):
            assert event.callbacks is not None
            if sanitizer.enabled:
                # The milestone is the readiness counter's zero crossing;
                # record it before the agent reacts so the sanitizer sees
                # signal -> transfer in order.
                event.callbacks.append(
                    lambda _e, chunk=item.chunk:
                    sanitizer.chunk_ready(gpu_id, chunk, engine.now))
            event.callbacks.append(
                lambda _e, nbytes=item.nbytes, chunk=item.chunk:
                agent.chunk_ready(nbytes, chunk=chunk))
        outcome.kernel_start = engine.now
        yield launch.done
        outcome.kernel_end = engine.now
        yield agent.close()
        if polling:
            agent.stop()
        outcome.transfers_end = engine.now
        outcome.bytes_sent = agent.stats.bytes_sent
        outcome.chunks_sent = agent.stats.chunks_sent
        self._observe_gpu(gpu_id, work, outcome)

    # -- inline ---------------------------------------------------------
    def _run_inline(self, gpu_id: int, work: GpuPhaseWork,
                    outcome: GpuPhaseOutcome, destinations: List[int]):
        """Inline stores: the kernel emits remote writes as it computes.

        Execution is modelled as a pipeline of compute segments, each
        followed by its remote-store traffic.  A segment's stores must
        drain within a bounded window (the GPU's store-queue capacity)
        before computation can run further ahead — when the interconnect
        cannot absorb the inflated fine-grained traffic, the *kernel
        itself* stalls, which is exactly why inline stores lose on
        low-locality applications.
        """
        engine = self.system.engine
        device = self.system.devices[gpu_id]
        gpu = self.system.gpus[gpu_id]
        access = inline_access_size(work.store_size, work.spatial_locality)
        wire_payload = int(work.region_bytes
                           * work.inline_write_amplification
                           * work.peer_fraction)
        compute_work = work.kernel.uncontended_time(gpu)
        compute_work += store_issue_work(
            wire_payload, len(destinations), gpu.spec.mem_bandwidth)
        segments = min(INLINE_SEGMENTS, max(1, work.region_bytes // 4096))
        segment_work = compute_work / segments
        yield engine._sleep(gpu.spec.kernel_launch_latency)
        outcome.kernel_start = engine.now
        in_flight: List = []
        for segment in range(segments):
            task = gpu.compute.launch(
                f"{work.kernel.name}[{segment}]", segment_work)
            yield task.done
            first = segment * wire_payload // segments
            last = (segment + 1) * wire_payload // segments
            nbytes = last - first
            if nbytes > 0 and not self.elide_transfers:
                sends = [self.system.fabric.send(
                    gpu_id, dst, nbytes, access_size=access)
                    for dst in destinations]
                in_flight.append(engine.all_of(sends))
            # Store-queue capacity: computation may run at most this many
            # segments ahead of its un-drained remote stores.
            while len(in_flight) > INLINE_STORE_QUEUE_SEGMENTS:
                yield in_flight.pop(0)
        outcome.kernel_end = engine.now
        for pending in in_flight:
            yield pending
        outcome.transfers_end = engine.now
        outcome.bytes_sent = (int(work.region_bytes * work.peer_fraction)
                              * len(destinations))
        outcome.chunks_sent = segments
        if engine.metrics.enabled:
            engine.metrics.inc("inline_segments", segments, gpu=gpu_id)
            engine.metrics.inc("bytes_sent", outcome.bytes_sent,
                               src=gpu_id, mechanism=MECH_INLINE)
        self._observe_gpu(gpu_id, work, outcome)
