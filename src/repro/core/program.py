"""The PROACT programming model, functionally (the paper's Listing 1).

This module executes PROACT's user-facing contract on real data:

* ``ProactDataStructure`` is ``u_proact_ds``: a replicated region with a
  1:1 local/remote correspondence, chunked at the configured granularity,
  with one atomic counter per chunk;
* :func:`proact_init` loads the counters with each chunk's writer count,
  exactly as Listing 1's ``proact_init`` does;
* :meth:`ProactDataStructure.run_producer_kernel` executes a user
  "kernel" CTA by CTA.  Each CTA writes its mapped chunks through a
  :class:`CtaContext` (writes outside the mapping violate PROACT's
  deterministic-stores requirement and raise); when a CTA's decrement
  drives a counter to zero, the chunk is **pushed to every peer
  immediately** — the proactive transfer — so remote GPUs observe data
  *before* the global barrier;
* :meth:`ProactDataStructure.barrier` is the ``sys``-scoped release: it
  verifies every chunk was produced and every replica is coherent.

The timing layer (:mod:`repro.core.runtime`) prices this exact protocol;
this module proves the protocol preserves program semantics.
"""

from __future__ import annotations

import typing
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.mapping import BlockMapping, ContiguousMapping
from repro.core.region import MappingFactory
from repro.core.tracker import ReadinessTracker
from repro.errors import ProactError
from repro.sim.engine import Engine
from repro.workloads.shared_memory import ReplicatedArray

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class CtaContext:
    """What one CTA may do: write its mapped slice of the region."""

    def __init__(self, ds: "ProactDataStructure", gpu: int,
                 cta_index: int, allowed_chunks: Sequence[int]) -> None:
        self._ds = ds
        self._gpu = gpu
        self.cta_index = cta_index
        self._allowed = frozenset(allowed_chunks)
        self._wrote = False

    @property
    def allowed_chunks(self) -> frozenset:
        return self._allowed

    def chunk_range(self, chunk: int) -> Tuple[int, int]:
        """Element range of one of this CTA's chunks."""
        if chunk not in self._allowed:
            raise ProactError(
                f"CTA {self.cta_index} asked about chunk {chunk}, outside "
                f"its mapping {sorted(self._allowed)}")
        return self._ds.chunk_bounds(chunk)

    def write(self, start: int, values) -> None:
        """Write ``values`` at element offset ``start`` of the region.

        The written span must stay inside the CTA's mapped chunks —
        PROACT requires a deterministic, mapping-respecting store
        pattern (Section III-B).
        """
        import numpy as np
        values = np.asarray(values)
        stop = start + len(values)
        if start < 0 or stop > self._ds.num_elements:
            raise ProactError(
                f"write [{start}, {stop}) outside region of "
                f"{self._ds.num_elements} elements")
        touched = self._ds.chunks_overlapping(start, stop)
        illegal = [chunk for chunk in touched if chunk not in self._allowed]
        if illegal:
            raise ProactError(
                f"CTA {self.cta_index} wrote chunks {illegal} outside its "
                "mapping — PROACT requires deterministic writes")
        self._ds.local_write(self._gpu, start, values)
        self._wrote = True


#: A user kernel body: called once per CTA with its context.
CtaFunction = Callable[[CtaContext], None]


class ProactDataStructure:
    """Listing 1's ``u_proact_ds``, executing functionally.

    The region's chunks are partitioned across GPUs; each GPU's producer
    kernel writes its owned chunk range (through a per-GPU block
    mapping), and completed chunks propagate to every replica
    immediately.
    """

    def __init__(self, num_elements: int, num_gpus: int,
                 chunk_elements: int,
                 mapping_factory: MappingFactory = ContiguousMapping,
                 dtype=float) -> None:
        if num_elements < 1:
            raise ProactError(f"region needs >= 1 element: {num_elements}")
        if chunk_elements < 1:
            raise ProactError(
                f"chunk needs >= 1 element: {chunk_elements}")
        self.num_elements = num_elements
        self.num_gpus = num_gpus
        self.chunk_elements = chunk_elements
        self.mapping_factory = mapping_factory
        self.region = ReplicatedArray(num_elements, dtype=dtype,
                                      num_gpus=num_gpus)
        self.num_chunks = -(-num_elements // chunk_elements)
        if self.num_chunks < num_gpus:
            raise ProactError(
                f"{self.num_chunks} chunks cannot be partitioned over "
                f"{num_gpus} producer GPUs")
        self._engine = Engine()  # readiness events only; no time passes
        self._trackers: Dict[int, ReadinessTracker] = {}
        self._mappings: Dict[int, BlockMapping] = {}
        self.transfers: List[Tuple[int, int, int]] = []  # (gpu, chunk, bytes)
        self._initialized = False

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def chunk_bounds(self, chunk: int) -> Tuple[int, int]:
        if not 0 <= chunk < self.num_chunks:
            raise ProactError(
                f"chunk {chunk} out of range 0..{self.num_chunks - 1}")
        start = chunk * self.chunk_elements
        return start, min(start + self.chunk_elements, self.num_elements)

    def chunks_overlapping(self, start: int, stop: int) -> List[int]:
        first = start // self.chunk_elements
        last = (stop - 1) // self.chunk_elements
        return list(range(first, last + 1))

    def owned_chunks(self, gpu: int) -> Tuple[int, int]:
        """The [first, stop) global chunk range GPU ``gpu`` produces."""
        if not 0 <= gpu < self.num_gpus:
            raise ProactError(
                f"GPU {gpu} out of range 0..{self.num_gpus - 1}")
        base, remainder = divmod(self.num_chunks, self.num_gpus)
        first = gpu * base + min(gpu, remainder)
        stop = first + base + (1 if gpu < remainder else 0)
        return first, stop

    # ------------------------------------------------------------------
    # Listing 1 protocol
    # ------------------------------------------------------------------
    def init(self, num_ctas: int) -> None:
        """``proact_init``: size each GPU's counters from its mapping."""
        if num_ctas < 1:
            raise ProactError(f"kernel needs >= 1 CTA: {num_ctas}")
        for gpu in range(self.num_gpus):
            first, stop = self.owned_chunks(gpu)
            mapping = self.mapping_factory(num_ctas, stop - first)
            self._mappings[gpu] = mapping
            self._trackers[gpu] = ReadinessTracker(self._engine, mapping)
        self._initialized = True

    def run_producer_kernel(self, gpu: int, cta_fn: CtaFunction) -> None:
        """Execute every CTA of one GPU's producer kernel.

        Chunks are pushed to all peers as soon as their counters hit
        zero — PROACT's proactive transfer — not at the barrier.
        """
        if not self._initialized:
            raise ProactError("run_producer_kernel() before init()")
        tracker = self._trackers[gpu]
        mapping = self._mappings[gpu]
        first, _stop = self.owned_chunks(gpu)
        for cta_index in range(mapping.num_ctas):
            allowed = [first + local
                       for local in mapping.chunks_of_cta(cta_index)]
            context = CtaContext(self, gpu, cta_index, allowed)
            cta_fn(context)
            for local_chunk in tracker.cta_complete(cta_index):
                self._push_chunk(gpu, first + local_chunk)

    def barrier(self) -> None:
        """Global synchronization: everything produced, replicas agree."""
        if not self._initialized:
            raise ProactError("barrier() before init()")
        for gpu, tracker in self._trackers.items():
            if not tracker.all_ready:
                first, _stop = self.owned_chunks(gpu)
                missing = [first + local
                           for local in range(tracker.num_chunks)
                           if not tracker.is_ready(local)]
                raise ProactError(
                    f"barrier with unproduced chunks on GPU {gpu}: "
                    f"{missing[:8]}{'...' if len(missing) > 8 else ''}")
        self.region.assert_coherent()

    # ------------------------------------------------------------------
    # Data movement internals
    # ------------------------------------------------------------------
    def local_write(self, gpu: int, start: int, values: np.ndarray) -> None:
        """A staged local write: peers do NOT see it yet."""
        self.region.local(gpu)[start:start + len(values)] = values

    def _push_chunk(self, gpu: int, chunk: int) -> None:
        """Proactively propagate one completed chunk to every peer."""
        start, stop = self.chunk_bounds(chunk)
        values = self.region.local(gpu)[start:stop]
        for peer in range(self.num_gpus):
            if peer == gpu:
                continue
            self.region.local(peer)[start:stop] = values
        self.transfers.append((gpu, chunk, int(values.nbytes)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_chunk_visible_at(self, peer: int, gpu: int, chunk: int) -> bool:
        """Whether ``peer`` already sees ``gpu``'s data for ``chunk``."""
        import numpy as np
        start, stop = self.chunk_bounds(chunk)
        return bool(np.array_equal(self.region.local(peer)[start:stop],
                                   self.region.local(gpu)[start:stop]))

    def counters(self, gpu: int) -> List[int]:
        """Current atomic-counter values for one GPU's owned chunks."""
        if not self._initialized:
            raise ProactError("counters() before init()")
        return list(self._trackers[gpu].counters)

    @property
    def bytes_transferred(self) -> int:
        """Payload proactively pushed so far (per destination replica)."""
        return sum(nbytes for _gpu, _chunk, nbytes in self.transfers)


def proact_init(ds: ProactDataStructure, num_ctas: int,
                ) -> ProactDataStructure:
    """Module-level spelling of Listing 1's ``proact_init``."""
    ds.init(num_ctas)
    return ds
