"""Opt-in simulation correctness layer (sanitizers + oracle).

Three instruments, all riding hooks the simulator already exposes:

* :class:`~repro.validate.sanitizer.ReadinessSanitizer` — per-chunk
  lifecycle ordering (writers retired -> counter signalled -> transfer
  -> delivery -> readable -> consumer read), raising a structured
  :class:`~repro.errors.ValidationError` on any read-before-ready or
  signal-before-delivery.
* :class:`~repro.validate.conservation.ConservationChecker` — per-link
  byte conservation, occupancy bounds, and fabric-total agreement at
  every phase barrier.
* :class:`~repro.validate.oracle.DifferentialOracle` — replays one
  workload under bulk / UM / inline / decoupled / infinite-BW paradigms
  (and collectives under their symbolic payload verifier) and asserts
  the runs agree wherever the models must.

Enable ambiently with :func:`validation` (what the runner's
``--validate`` flag does) or per session via
``Session(..., validate=True)``.
"""

from repro.validate.conservation import ConservationChecker
from repro.validate.sanitizer import (
    NULL_SANITIZER,
    ChunkState,
    ReadinessSanitizer,
)
from repro.validate.scope import Validation, active, validation

__all__ = [
    "ChunkState",
    "ConservationChecker",
    "DifferentialOracle",
    "NULL_SANITIZER",
    "OracleReport",
    "ReadinessSanitizer",
    "Validation",
    "active",
    "validation",
]


def __getattr__(name):
    # The oracle imports the paradigm layer, which imports the engine;
    # the engine imports this package for NULL_SANITIZER.  Loading the
    # oracle lazily keeps that cycle open.
    if name in ("DifferentialOracle", "OracleReport"):
        from repro.validate import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
