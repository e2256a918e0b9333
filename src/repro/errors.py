"""Exception hierarchy for the PROACT reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations

import functools


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """Raised when the engine runs out of events while processes still wait."""


class ConfigurationError(ReproError):
    """Raised for invalid hardware, interconnect, or PROACT configuration."""


class RuntimeApiError(ReproError):
    """Raised for misuse of the simulated GPU runtime API."""


class ProactError(ReproError):
    """Raised for misuse of the PROACT runtime (regions, agents, profiler)."""


class WorkloadError(ReproError):
    """Raised for invalid workload construction or partitioning."""


class CollectiveError(ReproError):
    """Raised for invalid collective schedules or algorithm selection."""


class ValidationError(ReproError):
    """Raised by the opt-in simulation sanitizers (``repro.validate``).

    Carries the violated invariant plus enough structure — GPU, chunk,
    simulation time — for a failing CI run to point at the exact moment
    the protocol broke, not just that it did.
    """

    def __init__(self, message: str, *, invariant: str = "invariant",
                 gpu: "int | None" = None, chunk: "int | None" = None,
                 time: "float | None" = None) -> None:
        parts = [f"[{invariant}]"]
        if gpu is not None:
            parts.append(f"gpu={gpu}")
        if chunk is not None:
            parts.append(f"chunk={chunk}")
        if time is not None:
            parts.append(f"t={time:.9g}s")
        super().__init__(f"{' '.join(parts)} {message}")
        self.detail = message
        self.invariant = invariant
        self.gpu = gpu
        self.chunk = chunk
        self.time = time

    def __reduce__(self):
        # Rebuild from the unprefixed message so unpickling (e.g. across
        # a worker pool) does not prefix it twice; ``__dict__`` carries
        # any notes and ``sim_time`` along.
        rebuild = functools.partial(
            type(self), self.detail, invariant=self.invariant,
            gpu=self.gpu, chunk=self.chunk, time=self.time)
        return rebuild, (), self.__dict__
