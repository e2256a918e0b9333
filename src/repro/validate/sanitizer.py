"""The readiness sanitizer: per-chunk lifecycle ordering checks.

PROACT's correctness claim is an *ordering* claim: a chunk's readiness
counter may signal only after every writer CTA retired, a transfer may
start only after the signal, a consumer may read a staged chunk only
after its bytes were delivered.  The simulator's components already emit
all of these moments (tracker decrements, milestone callbacks, agent
sends, phase barriers); :class:`ReadinessSanitizer` records them per
``(gpu, chunk)`` and raises a structured
:class:`~repro.errors.ValidationError` the instant any pair happens out
of order — with the chunk id, GPU, and simulation time attached.

The sanitizer is installed on the engine (``engine.sanitizer``) the same
way the tracer and metrics registry are: a shared disabled instance
(:data:`NULL_SANITIZER`) by default, so an unvalidated simulation pays
one attribute check per hook site and nothing else.

Chunk lifecycle (every arrow is a checked ordering)::

    register -> [writer_retired x N] -> chunk_ready -> transfer_started
             -> bytes_delivered(dst) -> readable_signalled(dst)
             -> consumer_read(dst) -> phase_end
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ValidationError

#: The invariant tags carried by raised :class:`ValidationError`\ s.
INV_PREMATURE_READY = "signal-before-writers-retired"
INV_DOUBLE_READY = "double-ready-signal"
INV_TRANSFER_BEFORE_READY = "transfer-before-ready"
INV_DELIVERY_BEFORE_TRANSFER = "delivery-before-transfer"
INV_SIGNAL_BEFORE_DELIVERY = "signal-before-delivery"
INV_READ_BEFORE_READY = "read-before-ready"
INV_BARRIER_BEFORE_DELIVERY = "phase-barrier-before-delivery"
INV_BYTES_IN_FLIGHT = "bytes-still-in-flight-at-phase-end"
INV_REREGISTERED = "chunk-reregistered-within-phase"
INV_UNKNOWN_CHUNK = "event-on-unregistered-chunk"
INV_TIME_REGRESSION = "event-time-regression"

#: The running totals :meth:`ReadinessSanitizer.summary` reports.
SUMMARY_KEYS: Tuple[str, ...] = (
    "chunks_checked", "events_checked", "phases_checked",
    "bytes_injected", "bytes_delivered", "violations")


@dataclass
class ChunkState:
    """Everything observed about one chunk within the current phase."""

    gpu: int
    chunk: int
    nbytes: int
    registered_at: float
    #: ``None`` means the writer count is unknown at this layer (the
    #: executor registers chunks whose CTA mapping lives in the region).
    expected_writers: Optional[int] = None
    writers_retired: int = 0
    ready_at: Optional[float] = None
    transfer_started_at: Optional[float] = None
    #: Per-destination payload bytes delivered / acknowledged readable.
    delivered: Dict[int, int] = field(default_factory=dict)
    readable: Dict[int, float] = field(default_factory=dict)
    read: Dict[int, float] = field(default_factory=dict)


class ReadinessSanitizer:
    """Records chunk lifecycle events and enforces their ordering.

    All hooks are no-ops when ``enabled`` is false, so the shared
    :data:`NULL_SANITIZER` can sit on every engine for free.  State is
    per phase: :meth:`phase_end` audits and clears it (chunk indices
    repeat across phases); the byte totals survive for reporting.
    """

    def __init__(self, label: str = "sim", enabled: bool = True) -> None:
        self.label = label
        self.enabled = enabled
        self._chunks: Dict[Tuple[int, int], ChunkState] = {}
        self._last_time = 0.0
        # Running totals across phases, for summaries/CI artifacts.
        self.chunks_checked = 0
        self.events_checked = 0
        self.phases_checked = 0
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.violations = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str, *, gpu: Optional[int],
              chunk: Optional[int], time: float) -> None:
        self.violations += 1
        raise ValidationError(message, invariant=invariant, gpu=gpu,
                              chunk=chunk, time=time)

    def _tick(self, time: float, gpu: Optional[int],
              chunk: Optional[int]) -> None:
        self.events_checked += 1
        if time < self._last_time - 1e-12:
            self._fail(INV_TIME_REGRESSION,
                       f"event at t={time:.9g}s arrived after an event at "
                       f"t={self._last_time:.9g}s",
                       gpu=gpu, chunk=chunk, time=time)
        self._last_time = max(self._last_time, time)

    def _state(self, gpu: int, chunk: int, time: float,
               event: str) -> ChunkState:
        state = self._chunks.get((gpu, chunk))
        if state is None:
            self._fail(INV_UNKNOWN_CHUNK,
                       f"{event} for a chunk never registered this phase",
                       gpu=gpu, chunk=chunk, time=time)
        return state

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by tracker / agents / executor)
    # ------------------------------------------------------------------
    def register_chunk(self, gpu: int, chunk: int, nbytes: int, time: float,
                       expected_writers: Optional[int] = None) -> None:
        """A chunk enters the current phase's protocol."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        if (gpu, chunk) in self._chunks:
            self._fail(INV_REREGISTERED,
                       "chunk registered twice without a phase_end between",
                       gpu=gpu, chunk=chunk, time=time)
        self._chunks[(gpu, chunk)] = ChunkState(
            gpu=gpu, chunk=chunk, nbytes=nbytes, registered_at=time,
            expected_writers=expected_writers)
        self.chunks_checked += 1

    def writer_retired(self, gpu: int, chunk: int, time: float) -> None:
        """One writer CTA of the chunk finished its stores."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "writer_retired")
        if state.ready_at is not None:
            self._fail(INV_PREMATURE_READY,
                       "a writer CTA retired after the readiness counter "
                       f"already signalled at t={state.ready_at:.9g}s — the "
                       "signal fired before all writers were done",
                       gpu=gpu, chunk=chunk, time=time)
        state.writers_retired += 1

    def chunk_ready(self, gpu: int, chunk: int, time: float) -> None:
        """The chunk's readiness counter signalled (reached zero)."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "chunk_ready")
        if state.ready_at is not None:
            self._fail(INV_DOUBLE_READY,
                       "readiness signalled twice for the same chunk "
                       f"(first at t={state.ready_at:.9g}s)",
                       gpu=gpu, chunk=chunk, time=time)
        if (state.expected_writers is not None
                and state.writers_retired < state.expected_writers):
            self._fail(INV_PREMATURE_READY,
                       f"readiness signalled after only "
                       f"{state.writers_retired} of "
                       f"{state.expected_writers} writer CTAs retired",
                       gpu=gpu, chunk=chunk, time=time)
        state.ready_at = time

    def transfer_started(self, gpu: int, chunk: int, time: float) -> None:
        """An agent began moving the chunk to its destinations."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "transfer_started")
        if state.ready_at is None:
            self._fail(INV_TRANSFER_BEFORE_READY,
                       "a transfer started before the readiness counter "
                       "signalled",
                       gpu=gpu, chunk=chunk, time=time)
        if state.transfer_started_at is None:
            state.transfer_started_at = time

    def bytes_injected_for(self, gpu: int, chunk: int, dst: int,
                           nbytes: int, time: float) -> None:
        """Payload bytes entered the wire toward ``dst``."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "bytes_injected")
        if state.transfer_started_at is None:
            self._fail(INV_TRANSFER_BEFORE_READY,
                       "bytes injected before the chunk's transfer started",
                       gpu=gpu, chunk=chunk, time=time)
        self.bytes_injected += nbytes

    def bytes_delivered_to(self, gpu: int, chunk: int, dst: int,
                           nbytes: int, time: float) -> None:
        """Payload bytes fully landed in ``dst``'s staging region."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "bytes_delivered")
        if state.transfer_started_at is None:
            self._fail(INV_DELIVERY_BEFORE_TRANSFER,
                       "bytes delivered for a chunk whose transfer never "
                       "started",
                       gpu=gpu, chunk=chunk, time=time)
        state.delivered[dst] = state.delivered.get(dst, 0) + nbytes
        self.bytes_delivered += nbytes

    def readable_signalled(self, gpu: int, chunk: int, dst: int,
                           time: float) -> None:
        """The consumer-side ready flag for ``dst`` was raised."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "readable_signalled")
        if state.delivered.get(dst, 0) <= 0:
            self._fail(INV_SIGNAL_BEFORE_DELIVERY,
                       f"destination gpu{dst} was signalled readable before "
                       "any byte of the chunk was delivered there",
                       gpu=gpu, chunk=chunk, time=time)
        state.readable[dst] = time

    def consumer_read(self, gpu: int, chunk: int, dst: int,
                      time: float) -> None:
        """A consumer on ``dst`` read the staged chunk."""
        if not self.enabled:
            return
        self._tick(time, gpu, chunk)
        state = self._state(gpu, chunk, time, "consumer_read")
        if dst not in state.readable:
            self._fail(INV_READ_BEFORE_READY,
                       f"consumer gpu{dst} read the staged chunk before it "
                       "was signalled readable (delivered="
                       f"{state.delivered.get(dst, 0)} bytes)",
                       gpu=gpu, chunk=chunk, time=time)
        state.read[dst] = time

    def phase_end(self, time: float,
                  expected_destinations: Optional[Dict[int, Tuple[int, ...]]]
                  = None) -> None:
        """The phase barrier: audit every chunk, then reset phase state.

        ``expected_destinations`` optionally maps producer GPU ids to
        the destinations each of its chunks must have fully reached by
        the barrier.  Chunks that never became ready (e.g. the phase was
        cut short) are reported too — the barrier means *all* bytes
        landed.
        """
        if not self.enabled:
            return
        self._tick(time, None, None)
        for (gpu, chunk), state in sorted(self._chunks.items()):
            if state.ready_at is None:
                self._fail(INV_BARRIER_BEFORE_DELIVERY,
                           "the phase barrier completed but this chunk "
                           "never signalled ready",
                           gpu=gpu, chunk=chunk, time=time)
            destinations: Tuple[int, ...] = ()
            if expected_destinations is not None:
                destinations = expected_destinations.get(gpu, ())
            for dst in destinations:
                if state.delivered.get(dst, 0) <= 0:
                    self._fail(INV_BARRIER_BEFORE_DELIVERY,
                               "the phase barrier completed before the "
                               f"chunk's bytes reached gpu{dst}",
                               gpu=gpu, chunk=chunk, time=time)
            # The barrier is the implicit consumer read: every delivered
            # destination is read here, and must have been readable.
            for dst in state.readable:
                state.read.setdefault(dst, time)
        in_flight = self.bytes_injected - self.bytes_delivered
        if in_flight != 0:
            self._fail(INV_BYTES_IN_FLIGHT,
                       f"{in_flight} payload bytes were injected but never "
                       "delivered (injected="
                       f"{self.bytes_injected}, delivered="
                       f"{self.bytes_delivered})",
                       gpu=None, chunk=None, time=time)
        self._chunks.clear()
        self.phases_checked += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def open_chunks(self) -> int:
        """Chunks registered in the current phase and not yet audited."""
        return len(self._chunks)

    def summary(self) -> Dict[str, int]:
        """Counters for CI artifacts and experiment scalars."""
        return {key: getattr(self, key) for key in SUMMARY_KEYS}

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<ReadinessSanitizer {self.label} {state}: "
                f"{self.chunks_checked} chunks, "
                f"{self.events_checked} events>")


#: Shared disabled sanitizer: the default on every engine.
NULL_SANITIZER = ReadinessSanitizer(label="null", enabled=False)
