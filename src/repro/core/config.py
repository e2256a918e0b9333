"""PROACT configuration: transfer mechanism, granularity, thread count.

These are the three knobs the paper's compile-time profiler tunes
(Section III-A, Table II).  ``ProactConfig.label()`` renders a config in
Table II's notation, e.g. ``"D 128kB 2048 Poll"``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Tuple

from repro.errors import ConfigurationError
from repro.units import KiB, MiB

#: Transfer mechanisms (Section III-C), plus the envisioned hardware
#: engine (Section III-D).
MECH_INLINE = "inline"
MECH_POLLING = "polling"
MECH_CDP = "cdp"
MECH_HARDWARE = "hardware"

DECOUPLED_MECHANISMS: Tuple[str, ...] = (MECH_POLLING, MECH_CDP,
                                         MECH_HARDWARE)
#: The software prototype's mechanisms — what the paper's profiler sweeps.
ALL_MECHANISMS: Tuple[str, ...] = (MECH_INLINE, MECH_POLLING, MECH_CDP)
#: Every mechanism, including the future-work hardware engine.
ALL_MECHANISMS_WITH_HW: Tuple[str, ...] = (*ALL_MECHANISMS, MECH_HARDWARE)

#: Granularity range studied by the profiler (Table II caption).
PROFILE_CHUNK_SIZES: Tuple[int, ...] = (
    4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB,
    1 * MiB, 4 * MiB, 16 * MiB)

#: Transfer-thread range studied by the profiler (Table II caption).
PROFILE_THREAD_COUNTS: Tuple[int, ...] = (
    32, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Default polling agent scan period.
DEFAULT_POLL_PERIOD = 4e-6


@dataclass(frozen=True)
class Mechanisms:
    """PROACT's component mechanisms as typed ablatable switches.

    Every simulation honors these switches: thread an instance through
    :class:`repro.api.Session`, a paradigm constructor, or
    :class:`~repro.runtime.system.System` and the corresponding model
    component is enabled (the default) or *ablated*.  The ablation
    harness (:mod:`repro.ablation`) flips one switch at a time to
    measure how much each component contributes to PROACT's speedup
    (the paper's Table II mechanism-selection story).

    Ablated semantics, per field:

    ``write_coalescing``
        Off: decoupled transfer agents lose their tightly-packed 256 B
        store batches (Listing 1) and issue the application's natural
        fine-grained accesses instead, paying per-access packet
        overhead exactly like inline stores.
    ``decoupled_agent``
        Off: no decoupled transfer agent exists.  The profiler and the
        auto paradigm consider only inline remote stores; explicitly
        constructing a decoupled executor raises
        :class:`~repro.errors.ConfigurationError`.
    ``readiness_tracking``
        Off: chunk readiness counters are gone, so no transfer can
        start until the producer kernel retires (zero compute/transfer
        overlap) — but kernels also shed the tracking-instrumentation
        overhead.
    ``fluid_contention``
        Off: transfer agents stop stealing SM resources from co-running
        kernels (the FluidShare residency/copy-kernel demands are not
        charged).  Removes a modelled cost, so ablating it
        *under*-estimates runtime.
    ``packet_overhead``
        Off: the interconnect carries raw payload — no headers, no
        granule padding — so wire bytes equal goodput bytes.  Another
        modelled cost; ablating it collapses Figure 2's efficiency
        story.
    ``profiler_pruning``
        Off: the compile-time profiler's configuration selection is
        disabled; the framework runs the hard-wired
        :data:`DEFAULT_CONFIG` instead of the per-app, per-platform
        tuned configuration.
    """

    write_coalescing: bool = True
    decoupled_agent: bool = True
    readiness_tracking: bool = True
    fluid_contention: bool = True
    packet_overhead: bool = True
    profiler_pruning: bool = True

    @classmethod
    def component_names(cls) -> Tuple[str, ...]:
        """Every switch name, in declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def ablate(cls, *components: str) -> "Mechanisms":
        """All-on mechanisms with the named components switched off."""
        names = cls.component_names()
        for component in components:
            if component not in names:
                raise ConfigurationError(
                    f"unknown mechanism component {component!r}; "
                    f"expected one of {names}")
        return cls(**{component: False for component in components})

    def flip(self, component: str) -> "Mechanisms":
        """A copy with one component toggled."""
        if component not in self.component_names():
            raise ConfigurationError(
                f"unknown mechanism component {component!r}; "
                f"expected one of {self.component_names()}")
        return replace(self, **{component: not getattr(self, component)})

    @property
    def ablated(self) -> Tuple[str, ...]:
        """The switched-off components, in declaration order."""
        return tuple(f.name for f in fields(self)
                     if not getattr(self, f.name))

    @property
    def all_enabled(self) -> bool:
        return not self.ablated

    def describe(self) -> str:
        """Human-readable summary (``"all mechanisms on"`` or the flips)."""
        if self.all_enabled:
            return "all mechanisms on"
        return "ablated: " + ", ".join(self.ablated)


#: The unablated model — what every simulation runs unless told otherwise.
DEFAULT_MECHANISMS = Mechanisms()


@dataclass(frozen=True)
class ProactConfig:
    """One point in PROACT's configuration space."""

    mechanism: str
    chunk_size: int
    transfer_threads: int
    poll_period: float = DEFAULT_POLL_PERIOD

    def __post_init__(self) -> None:
        if self.mechanism not in ALL_MECHANISMS_WITH_HW:
            raise ConfigurationError(
                f"unknown mechanism {self.mechanism!r}; "
                f"expected one of {ALL_MECHANISMS_WITH_HW}")
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk size must be >= 1: {self.chunk_size}")
        if self.transfer_threads < 1:
            raise ConfigurationError(
                f"transfer threads must be >= 1: {self.transfer_threads}")
        if self.poll_period <= 0:
            raise ConfigurationError(
                f"poll period must be > 0: {self.poll_period}")

    @property
    def is_decoupled(self) -> bool:
        return self.mechanism in DECOUPLED_MECHANISMS

    def label(self) -> str:
        """Table II notation for this configuration."""
        if self.mechanism == MECH_INLINE:
            return "I"
        size = self.chunk_size
        if size >= MiB and size % MiB == 0:
            size_text = f"{size // MiB}MB"
        else:
            size_text = f"{size // KiB}kB"
        if self.mechanism == MECH_HARDWARE:
            return f"HW {size_text}"
        mech_text = "Poll" if self.mechanism == MECH_POLLING else "CDP"
        return f"D {size_text} {self.transfer_threads} {mech_text}"


#: A sensible default when no profile has been run.
DEFAULT_CONFIG = ProactConfig(
    mechanism=MECH_POLLING, chunk_size=128 * KiB, transfer_threads=2048)
