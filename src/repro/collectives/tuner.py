"""Autotuned collective algorithm selection, PROACT-profiler style.

The paper's compile-time profiler brute-forces PROACT's configuration
space per (application, platform) and bakes in the winner.
:class:`CollectiveTuner` is the same idea for collectives: sweep
(algorithm x chunk size) per platform and payload size by *running*
each candidate on the simulated fabric and pick the fastest with a
deterministic tie-break.

Sweeps run through the profiler's
:class:`~repro.core.profiler.SweepPool`, so
``CollectiveTuner(platform, jobs=4)`` fans the grid over warm worker
processes yet returns byte-identical measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api import Session
from repro.collectives.algorithms import supported_algorithms
from repro.collectives.schedule import ALL_COLLECTIVES, COLL_ALL_REDUCE
from repro.core.config import PROFILE_CHUNK_SIZES
from repro.core.profiler import SweepPool
from repro.errors import CollectiveError
from repro.hw.platform import PlatformSpec
from repro.obs.capture import active as active_observation
from repro.obs.capture import suppress as suppress_observation


@dataclass(frozen=True)
class CollectiveChoice:
    """One tuned pick: which algorithm, at which chunk granularity."""

    algorithm: str
    chunk_size: int


@dataclass(frozen=True)
class CollectiveMeasurement:
    """One swept candidate and its simulated runtime."""

    algorithm: str
    chunk_size: int
    runtime: float

    @property
    def choice(self) -> CollectiveChoice:
        return CollectiveChoice(self.algorithm, self.chunk_size)


def _measurement_order(entry: CollectiveMeasurement
                       ) -> Tuple[float, int, str]:
    """Total order for winners: runtime, then smallest chunk, then name.

    Mirrors the profiler's tie-breaking so the pick never depends on
    the order candidates were measured in (serial vs. process pool).
    """
    return (entry.runtime, entry.chunk_size, entry.algorithm)


@dataclass
class CollectiveTuneResult:
    """Outcome of one (platform, collective, payload) sweep."""

    collective: str
    nbytes: int
    entries: List[CollectiveMeasurement]

    @property
    def best(self) -> CollectiveMeasurement:
        if not self.entries:
            raise CollectiveError("tuner sweep produced no entries")
        return min(self.entries, key=_measurement_order)

    @property
    def best_choice(self) -> CollectiveChoice:
        return self.best.choice

    def best_for_algorithm(self, algorithm: str) -> CollectiveMeasurement:
        candidates = [entry for entry in self.entries
                      if entry.algorithm == algorithm]
        if not candidates:
            raise CollectiveError(f"no entries for algorithm {algorithm!r}")
        return min(candidates, key=_measurement_order)

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for entry in self.entries:
            if entry.algorithm not in seen:
                seen.append(entry.algorithm)
        return seen


#: One sweep task: everything a worker needs to measure one candidate.
_TuneTask = Tuple[PlatformSpec, str, int, str, int]


def measure_candidate(task: _TuneTask) -> CollectiveMeasurement:
    """Measure one (algorithm, chunk size) candidate (picklable)."""
    platform, collective, nbytes, algorithm, chunk_size = task
    result = Session(platform).collective(
        collective, nbytes, algorithm=algorithm, chunk_size=chunk_size)
    return CollectiveMeasurement(algorithm=algorithm, chunk_size=chunk_size,
                                 runtime=result.duration)


class CollectiveTuner:
    """(algorithm x chunk size) search for one platform and collective."""

    def __init__(self, platform: PlatformSpec,
                 collective: str = COLL_ALL_REDUCE,
                 algorithms: Optional[Sequence[str]] = None,
                 chunk_sizes: Sequence[int] = PROFILE_CHUNK_SIZES,
                 jobs: int = 1) -> None:
        if collective not in ALL_COLLECTIVES:
            raise CollectiveError(
                f"unknown collective {collective!r}; "
                f"expected {ALL_COLLECTIVES}")
        supported = supported_algorithms(
            collective, platform.num_gpus,
            getattr(platform, "gpus_per_node", None))
        if algorithms is None:
            algorithms = supported
        else:
            unsupported = [a for a in algorithms if a not in supported]
            if unsupported:
                raise CollectiveError(
                    f"algorithms {unsupported} unsupported for "
                    f"{collective} on {platform.num_gpus} GPUs")
        if not algorithms or not chunk_sizes:
            raise CollectiveError("tuner needs non-empty sweep ranges")
        if jobs < 1:
            raise CollectiveError(f"need >= 1 job: {jobs}")
        for axis, values in (("algorithms", algorithms),
                             ("chunk_sizes", chunk_sizes)):
            if len(set(values)) != len(values):
                raise CollectiveError(f"duplicate {axis}: {tuple(values)}")
        self.platform = platform
        self.collective = collective
        self.algorithms = tuple(algorithms)
        self.chunk_sizes = tuple(sorted(chunk_sizes))
        self.jobs = jobs

    def tune(self, nbytes: int) -> CollectiveTuneResult:
        """Sweep the grid for one payload size."""
        tasks: List[_TuneTask] = [
            (self.platform, self.collective, nbytes, algorithm, chunk_size)
            for algorithm in self.algorithms
            for chunk_size in self.chunk_sizes]
        # Candidate runs build throwaway systems; keep them out of the
        # ambient trace so observed runs look identical at any job count
        # (workers never see the parent's scope).
        with suppress_observation(), \
                SweepPool(measure_candidate, self.jobs) as pool:
            entries = pool.map(tasks)
        result = CollectiveTuneResult(collective=self.collective,
                                      nbytes=nbytes, entries=entries)
        self._observe(nbytes, entries)
        return result

    def _observe(self, nbytes: int,
                 entries: Sequence[CollectiveMeasurement]) -> None:
        observation = active_observation()
        if observation is None:
            return
        for order, entry in enumerate(entries):
            observation.ambient_tracer.record(
                float(order), "collective-tuner",
                f"{self.collective}:{entry.algorithm}@{entry.chunk_size}",
                payload={"runtime_s": entry.runtime, "nbytes": nbytes,
                         "platform": self.platform.name})
            observation.metrics.observe(
                "collective_candidate_runtime_ms", entry.runtime * 1e3,
                platform=self.platform.name, collective=self.collective,
                algorithm=entry.algorithm)
            observation.metrics.inc(
                "collective_candidates", platform=self.platform.name,
                collective=self.collective, algorithm=entry.algorithm)
