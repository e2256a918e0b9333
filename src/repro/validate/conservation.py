"""Byte-conservation and occupancy checks over the interconnect model.

Where the :class:`~repro.validate.sanitizer.ReadinessSanitizer` checks
the *protocol* (orderings between readiness events), the
:class:`ConservationChecker` checks the *accounting*: every link's
counters must describe a physically possible history.  A link that
reports more wire bytes than its bandwidth could carry in its busy time,
busy time its wire bytes do not fill (work conservation: the two agree
to 1e-9 relative plus one byte), a busy interval outside the simulated
clock, or goodput exceeding wire bytes all mean the timing model
silently corrupted itself — exactly the class of bug that would
fabricate a speedup.

Checks run at every phase barrier (cheap: one pass over the links) and
once more at the end of a run via :meth:`repro.api.Session.finish`.
"""

from __future__ import annotations

import typing
from typing import Dict, List

from repro.errors import ValidationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.interconnect.link import Link
    from repro.runtime.system import System

#: Relative slack for float accumulation across many service quanta.
_REL_TOL = 1e-6
#: Absolute slack (seconds / bytes) for single-op rounding.
_ABS_TOL = 1e-9
#: Relative slack of work conservation's lower side: a link busy for
#: ``busy`` seconds carried ``bandwidth * busy`` wire bytes.  The quick
#: suite's worst gap is below 1e-10.
_WORK_REL_TOL = 1e-9


class ConservationChecker:
    """Audits link/fabric byte accounting against physical limits."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.checks_run = 0

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _check_link(self, link: "Link", now: float) -> None:
        name = link.name
        if link.goodput_bytes < 0 or link.wire_bytes < 0:
            raise ValidationError(
                f"link {name} accounted negative bytes "
                f"(goodput={link.goodput_bytes}, wire={link.wire_bytes})",
                invariant="negative-byte-counter", time=now)
        if link.goodput_bytes > link.wire_bytes:
            raise ValidationError(
                f"link {name} reports more goodput "
                f"({link.goodput_bytes}) than wire bytes "
                f"({link.wire_bytes}) — payload cannot exceed what "
                "crossed the wire",
                invariant="goodput-exceeds-wire", time=now)
        busy = link.busy.busy_time()
        if busy < 0:
            raise ValidationError(
                f"link {name} reports negative busy time {busy}",
                invariant="negative-occupancy", time=now)
        if busy > now * (1 + _REL_TOL) + _ABS_TOL:
            raise ValidationError(
                f"link {name} was busy {busy:.9g}s but only {now:.9g}s "
                "have been simulated",
                invariant="occupancy-exceeds-clock", time=now)
        capacity = link.bandwidth * busy
        if link.wire_bytes > capacity * (1 + _REL_TOL) + 1.0:
            raise ValidationError(
                f"link {name} carried {link.wire_bytes} wire bytes in "
                f"{busy:.9g}s of busy time — beyond its "
                f"{link.bandwidth:.3g} B/s capacity "
                f"({capacity:.1f} bytes)",
                invariant="bytes-exceed-capacity", time=now)
        if capacity - link.wire_bytes > (
                _WORK_REL_TOL * link.wire_bytes + 1.0):
            raise ValidationError(
                f"link {name} was busy {busy:.9g}s but carried only "
                f"{link.wire_bytes} wire bytes — {capacity:.1f} bytes "
                f"at its {link.bandwidth:.3g} B/s: busy time is not "
                "work conserving",
                invariant="busy-exceeds-wire-time", time=now)
        for start, end in link.busy.intervals:
            if start < -_ABS_TOL or end > now * (1 + _REL_TOL) + _ABS_TOL \
                    or end < start:
                raise ValidationError(
                    f"link {name} has a busy interval "
                    f"[{start:.9g}, {end:.9g}] outside the simulated "
                    f"clock [0, {now:.9g}]",
                    invariant="interval-outside-clock", time=now)

    def _check_fabric_totals(self, now: float) -> None:
        fabric = self.system.fabric
        goodput = sum(link.goodput_bytes for link in fabric.links)
        wire = sum(link.wire_bytes for link in fabric.links)
        if goodput != fabric.total_goodput_bytes() \
                or wire != fabric.total_wire_bytes():
            raise ValidationError(
                "fabric totals disagree with the per-link sums "
                f"(goodput {fabric.total_goodput_bytes()} vs {goodput}, "
                f"wire {fabric.total_wire_bytes()} vs {wire})",
                invariant="fabric-total-mismatch", time=now)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def check(self, now: float) -> None:
        """Audit every link and the fabric totals at time ``now``."""
        for link in self.system.fabric.links:
            self._check_link(link, now)
        self._check_fabric_totals(now)
        self.checks_run += 1

    def link_report(self, now: float) -> List[Dict[str, float]]:
        """Per-link accounting snapshot (for debugging failed checks)."""
        return [{
            "name": link.name,
            "goodput_bytes": link.goodput_bytes,
            "wire_bytes": link.wire_bytes,
            "busy_s": link.busy.busy_time(),
            "utilization": link.utilization(now),
        } for link in self.system.fabric.links]
