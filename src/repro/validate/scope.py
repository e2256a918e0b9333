"""Ambient validation scope: sanitize every system built inside it.

Mirrors :mod:`repro.obs.capture`: experiments build
:class:`~repro.runtime.system.System` objects deep inside paradigm and
profiler code, so the sanitizer cannot be threaded as an explicit
argument without touching every harness.  A :class:`Validation` installs
itself as the ambient scope (:func:`validation`); any ``System``
constructed while it is active receives a fresh
:class:`~repro.validate.sanitizer.ReadinessSanitizer` (each system has
its own clock, so each gets its own lifecycle state) and a
:class:`~repro.validate.conservation.ConservationChecker`.

The scope is a :mod:`contextvars` variable, so the runner's worker
threads each see their own validation (or none).  Process-pool workers
validate each task in a scope of their own and the parent folds the
counters in (:meth:`Validation.fold`).
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.validate.sanitizer import SUMMARY_KEYS, ReadinessSanitizer


class Validation:
    """A validation in progress: one sanitizer per system built."""

    def __init__(self) -> None:
        self.sanitizers: List[Tuple[str, ReadinessSanitizer]] = []
        #: Counters of systems validated elsewhere (pool workers).
        self._folded = dict.fromkeys(("systems_validated",) + SUMMARY_KEYS,
                                     0)

    def new_sanitizer(self, label: str) -> ReadinessSanitizer:
        """A fresh enabled sanitizer registered under ``label``."""
        sanitizer = ReadinessSanitizer(label=label)
        self.sanitizers.append((label, sanitizer))
        return sanitizer

    def fold(self, counters: Dict[str, int]) -> None:
        """Add another scope's :meth:`summary` into this one."""
        for key, value in counters.items():
            self._folded[key] += value

    def summary(self) -> Dict[str, int]:
        """Aggregate counters over every system validated in the scope.

        Every counter is present, zero when nothing was validated.
        """
        totals = dict(self._folded)
        totals["systems_validated"] += len(self.sanitizers)
        for _label, sanitizer in self.sanitizers:
            for key, value in sanitizer.summary().items():
                totals[key] += value
        return totals


_ACTIVE: contextvars.ContextVar[Optional[Validation]] = \
    contextvars.ContextVar("repro_validation", default=None)


def active() -> Optional[Validation]:
    """The ambient validation, if a :func:`validation` scope is active."""
    return _ACTIVE.get()


@contextmanager
def validation() -> Iterator[Validation]:
    """Validate every system built inside the scope.

    ::

        with validation() as val:
            fig7_endtoend.experiment(ctx)   # raises ValidationError on
                                            # any protocol violation
        print(val.summary())
    """
    with validating(Validation()) as scope:
        yield scope


@contextmanager
def validating(scope: Validation) -> Iterator[Validation]:
    """Install an *existing* validation as the ambient scope.

    :func:`validation` creates a fresh :class:`Validation` per scope; a
    :class:`repro.api.Session` instead owns one for its whole lifetime
    and re-installs it around every entry point, so the violation
    summary accumulates across successive runs.
    """
    token = _ACTIVE.set(scope)
    try:
        yield scope
    finally:
        _ACTIVE.reset(token)
