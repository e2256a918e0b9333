"""Functional replicated shared memory: PROACT's 1:1 regions on NumPy.

A :class:`ReplicatedArray` keeps one copy of an array per virtual GPU.
Producers write slices of their local copy through :meth:`write`; the
writes are tracked, and :meth:`synchronize` propagates every partition's
written ranges to all other copies — the functional contract PROACT's
runtime provides ("all the local writes to a PROACT-enabled region are
sent to the remote GPUs", Section III-B).

The workloads' functional layers run real algorithms on top of this
class, proving that an application written against PROACT's programming
model computes the same result as a single-device implementation.
"""

from __future__ import annotations

import typing
from typing import List, Optional, Tuple

from repro.errors import WorkloadError

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class ReplicatedArray:
    """An array with one coherent-on-synchronize copy per virtual GPU."""

    def __init__(self, shape, dtype=float, num_gpus: int = 4,
                 fill: float = 0.0) -> None:
        import numpy as np
        if num_gpus < 1:
            raise WorkloadError(f"need >= 1 GPU: {num_gpus}")
        self.num_gpus = num_gpus
        self._copies = [np.full(shape, fill, dtype=dtype)
                        for _ in range(num_gpus)]
        self._pending: List[List[Tuple[slice, ...]]] = [
            [] for _ in range(num_gpus)]
        self.sync_count = 0
        self.bytes_synchronized = 0

    @property
    def shape(self):
        return self._copies[0].shape

    @property
    def dtype(self):
        return self._copies[0].dtype

    def local(self, gpu: int) -> np.ndarray:
        """Read-only view semantics: direct reads of the local copy."""
        self._check_gpu(gpu)
        return self._copies[gpu]

    def write(self, gpu: int, region, values) -> None:
        """Write ``values`` into ``region`` of GPU ``gpu``'s local copy.

        ``region`` is anything NumPy accepts as an index (typically a
        slice).  The write is tracked for propagation at the next
        synchronize — writing and forgetting is impossible by design.
        """
        self._check_gpu(gpu)
        self._copies[gpu][region] = values
        key = region if isinstance(region, tuple) else (region,)
        self._pending[gpu].append(key)

    def synchronize(self) -> None:
        """Propagate all tracked writes to every other copy (the barrier).

        Overlapping writes from different GPUs to the same location are a
        data race under PROACT's model and are rejected.
        """
        import numpy as np
        self._check_for_conflicts()
        for gpu in range(self.num_gpus):
            for region in self._pending[gpu]:
                values = self._copies[gpu][region]
                nbytes = np.asarray(values).nbytes
                for other in range(self.num_gpus):
                    if other == gpu:
                        continue
                    self._copies[other][region] = values
                    self.bytes_synchronized += nbytes
            self._pending[gpu] = []
        self.sync_count += 1

    def assert_coherent(self, atol: float = 0.0) -> None:
        """Raise unless every copy holds identical contents."""
        import numpy as np
        reference = self._copies[0]
        for gpu in range(1, self.num_gpus):
            if not np.allclose(self._copies[gpu], reference, atol=atol,
                               rtol=0.0):
                raise WorkloadError(
                    f"copy on GPU {gpu} diverged from GPU 0 "
                    "(missing synchronize?)")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise WorkloadError(
                f"GPU index {gpu} out of range 0..{self.num_gpus - 1}")

    def _check_for_conflicts(self) -> None:
        """Detect two GPUs writing overlapping element sets."""
        import numpy as np
        touched: Optional[np.ndarray] = None
        for gpu in range(self.num_gpus):
            if not self._pending[gpu]:
                continue
            mask = np.zeros(self.shape, dtype=bool)
            for region in self._pending[gpu]:
                mask[region] = True
            if touched is None:
                touched = mask
            else:
                if np.any(touched & mask):
                    raise WorkloadError(
                        "conflicting writes from multiple GPUs to the same "
                        "elements; PROACT regions require disjoint writers")
                touched |= mask
