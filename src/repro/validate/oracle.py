"""The differential oracle: independent models must agree.

The five paradigms (bulk memcpy, UM, PROACT-inline, PROACT-decoupled,
infinite BW) simulate the *same* workload through mostly disjoint code
paths, and the byte accounting of several of them is computable in
closed form from the workload alone.  The oracle exploits both facts:

* replay one workload under every paradigm and assert the structural
  agreements that must hold (equal phase counts, the infinite-BW bound
  really is a lower bound, per-paradigm goodput exactly matches the
  closed-form expectation, UM stays within the duplication envelope);
* replay a collective schedule symbolically
  (:func:`~repro.collectives.schedule.verify_schedule`) and assert the
  executed run's per-GPU byte accounting equals the schedule's;
* re-run a workload's functional verification at several partition
  counts and assert every partitioning converges to the reference.

Every paradigm replay happens inside a :func:`repro.validate.validation`
scope, so the readiness sanitizer and conservation checker are live
while the oracle compares outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DEFAULT_CONFIG, ProactConfig
from repro.core.region import ProactRegion
from repro.errors import ValidationError
from repro.hw.platform import PlatformSpec
from repro.paradigms.base import Paradigm, ParadigmResult
from repro.paradigms.bulk import BulkMemcpyParadigm
from repro.paradigms.infinite import InfiniteBandwidthParadigm
from repro.paradigms.proact import (
    ProactDecoupledParadigm,
    ProactInlineParadigm,
)
from repro.paradigms.um import UnifiedMemoryParadigm
from repro.runtime.system import System
from repro.validate.scope import validation

#: Runtimes are floats accumulated over many events; equality checks on
#: them use this relative tolerance.
_REL_TOL = 1e-9


@dataclass
class OracleReport:
    """Everything one :meth:`compare_paradigms` call established."""

    workload: str
    platform: str
    results: Dict[str, ParadigmResult] = field(default_factory=dict)
    #: Human-readable record of each agreement that was verified.
    checks: List[str] = field(default_factory=list)

    @property
    def paradigms(self) -> List[str]:
        return list(self.results)


class DifferentialOracle:
    """Cross-checks independent simulations of the same computation."""

    def __init__(self, config: ProactConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Closed-form byte expectations
    # ------------------------------------------------------------------
    @staticmethod
    def _hop_counts(system: System) -> Dict[Tuple[int, int], int]:
        """Links per (src, dst) route — goodput is accounted per hop."""
        hops = {}
        for src in range(system.num_gpus):
            for dst in range(system.num_gpus):
                if src != dst:
                    hops[(src, dst)] = len(system.fabric.route(src, dst).links)
        return hops

    def _expected_bytes(self, phases, hops) -> Dict[str, int]:
        """Exact fabric goodput each mechanism must account for."""
        decoupled = memcpy = inline = 0
        for works in phases:
            for src, work in enumerate(works):
                peers = [d for (s, d) in hops if s == src]
                if work.region_bytes <= 0 or not peers:
                    continue
                route_hops = sum(hops[(src, dst)] for dst in peers)
                # Decoupled agents send each chunk's per-peer share once.
                region = ProactRegion(
                    work.region_bytes, self.config.chunk_size,
                    mapping_factory=work.mapping_factory,
                    readiness_shape=work.readiness_shape)
                per_dest = sum(
                    max(1, round(region.chunk_bytes(chunk)
                                 * work.peer_fraction))
                    for chunk in range(region.num_chunks))
                decoupled += per_dest * route_hops
                # Bulk memcpy duplicates the whole region to every peer.
                memcpy += work.region_bytes * route_hops
                # Inline stores push every intermediate value of the
                # consumed share over the wire.
                inline += int(work.region_bytes
                              * work.inline_write_amplification
                              * work.peer_fraction) * route_hops
        return {"decoupled": decoupled, "memcpy": memcpy, "inline": inline}

    # ------------------------------------------------------------------
    # Paradigm agreement
    # ------------------------------------------------------------------
    def compare_paradigms(self, workload,
                          platform: PlatformSpec) -> OracleReport:
        """Replay ``workload`` under every paradigm; assert agreement."""
        report = OracleReport(workload=workload.name, platform=platform.name)
        paradigms: Sequence[Paradigm] = (
            BulkMemcpyParadigm(),
            UnifiedMemoryParadigm(),
            ProactInlineParadigm(),
            ProactDecoupledParadigm(self.config),
            InfiniteBandwidthParadigm(),
        )
        with validation():
            for paradigm in paradigms:
                report.results[paradigm.name] = paradigm.execute(
                    workload, platform)

        results = report.results
        phase_counts = {name: len(result.phase_durations)
                        for name, result in results.items()}
        if len(set(phase_counts.values())) != 1:
            raise ValidationError(
                f"paradigms disagree on the phase structure of "
                f"{workload.name!r}: {phase_counts}",
                invariant="phase-count-mismatch")
        report.checks.append(
            f"all {len(results)} paradigms ran "
            f"{next(iter(phase_counts.values()))} phases")

        for name, result in results.items():
            if not result.runtime > 0 or result.runtime != result.runtime:
                raise ValidationError(
                    f"paradigm {name!r} reported a non-positive runtime "
                    f"{result.runtime!r}",
                    invariant="degenerate-runtime")

        infinite = results["Infinite BW"]
        if infinite.wire_bytes != 0:
            raise ValidationError(
                "the infinite-bandwidth bound moved "
                f"{infinite.wire_bytes} wire bytes; transfers must be free",
                invariant="infinite-bw-moved-bytes")
        slowest_allowed = infinite.runtime * (1 + _REL_TOL)
        for name, result in results.items():
            if result.runtime < infinite.runtime * (1 - _REL_TOL):
                raise ValidationError(
                    f"paradigm {name!r} ran in {result.runtime:.9g}s, "
                    "beating the infinite-bandwidth lower bound "
                    f"({infinite.runtime:.9g}s)",
                    invariant="faster-than-infinite-bw")
        del slowest_allowed
        report.checks.append("infinite BW is a true runtime lower bound")

        probe = System(platform)
        hops = self._hop_counts(probe)
        expected = self._expected_bytes(workload.build_phases(probe), hops)
        exact = {"PROACT-decoupled": expected["decoupled"],
                 "cudaMemcpy": expected["memcpy"],
                 "PROACT-inline": expected["inline"]}
        for name, want in exact.items():
            got = results[name].bytes_moved
            if got != want:
                raise ValidationError(
                    f"paradigm {name!r} accounted {got} goodput bytes; the "
                    f"workload's closed-form expectation is {want}",
                    invariant="goodput-mismatch")
            report.checks.append(
                f"{name} goodput matches closed form ({want} bytes)")

        um = results["UM"]
        migrated = um.details.get("bytes_migrated", 0.0)
        if migrated < 0 or migrated > expected["memcpy"]:
            raise ValidationError(
                f"UM migrated {migrated:.0f} bytes, outside the full "
                f"duplication envelope [0, {expected['memcpy']}]",
                invariant="um-outside-duplication-envelope")
        report.checks.append("UM migration stays within duplication bytes")
        return report

    # ------------------------------------------------------------------
    # Collective agreement
    # ------------------------------------------------------------------
    def check_collective(self, platform: PlatformSpec, collective: str,
                         algorithm: str, nbytes: int,
                         chunk_size: Optional[int] = None,
                         root: int = 0,
                         num_gpus: Optional[int] = None):
        """Execute one collective and assert it matches its schedule.

        The schedule is first replayed symbolically (contributor-set
        oracle); the executed run's per-GPU sent bytes and the fabric's
        goodput accounting must then agree with the schedule exactly.
        Returns the :class:`~repro.collectives.executor.CollectiveResult`.
        """
        from repro.collectives.algorithms import build_schedule
        from repro.collectives.executor import CollectiveExecutor
        from repro.collectives.schedule import (
            COLL_ALL_REDUCE,
            verify_schedule,
        )
        from repro.errors import CollectiveError
        if chunk_size is None:
            chunk_size = self.config.chunk_size
        with validation():
            system = System(platform, num_gpus=num_gpus)
            schedule = build_schedule(collective, algorithm,
                                      system.num_gpus, nbytes, chunk_size,
                                      root=root,
                                      gpus_per_node=getattr(
                                          system.spec, "gpus_per_node", None))
            try:
                verify_schedule(schedule)
            except CollectiveError as exc:
                raise ValidationError(
                    f"{algorithm} {collective} schedule failed its "
                    f"symbolic payload replay: {exc}",
                    invariant="schedule-verifier-disagreement") from exc
            proc = CollectiveExecutor(system).launch(schedule)
            system.run(until=proc)
            system._finish()
            result = proc.value

        for gpu in range(schedule.num_gpus):
            if result.sent_bytes[gpu] != schedule.sent_bytes(gpu):
                raise ValidationError(
                    f"executed collective sourced "
                    f"{result.sent_bytes[gpu]} bytes from gpu{gpu}; the "
                    f"schedule says {schedule.sent_bytes(gpu)}",
                    invariant="collective-bytes-mismatch", gpu=gpu,
                    time=result.end_time)
        # Hop counts only for the pairs the schedule actually uses: an
        # all-pairs walk is quadratic in GPUs and would dominate the
        # check at cluster scale (1024 GPUs -> ~1M lazy cross-node
        # routes for a schedule that touches a few thousand pairs).
        pairs = {(op.src, op.dst) for op in schedule.ops
                 if op.src != op.dst}
        hops = {pair: len(system.fabric.route(*pair).links)
                for pair in pairs}
        expected_goodput = sum(op.nbytes * hops[(op.src, op.dst)]
                               for op in schedule.ops if op.src != op.dst)
        got_goodput = system.fabric.total_goodput_bytes()
        if got_goodput != expected_goodput:
            raise ValidationError(
                f"fabric accounted {got_goodput} goodput bytes for the "
                f"{algorithm} {collective}; the schedule's ops require "
                f"{expected_goodput}",
                invariant="collective-goodput-mismatch",
                time=result.end_time)
        n = schedule.num_gpus
        if (collective == COLL_ALL_REDUCE and algorithm == "ring"
                and n > 1 and nbytes % n == 0):
            optimal = 2 * (n - 1) * nbytes // n
            if any(sent != optimal for sent in result.sent_bytes):
                raise ValidationError(
                    f"ring all-reduce must source exactly 2(N-1)/N * "
                    f"payload = {optimal} bytes per GPU; got "
                    f"{result.sent_bytes}",
                    invariant="ring-not-bandwidth-optimal",
                    time=result.end_time)
        if (collective == COLL_ALL_REDUCE and algorithm == "hierarchical"
                and nbytes % n == 0):
            from repro.cluster.hierarchical import hierarchical_sent_bytes
            want = hierarchical_sent_bytes(
                nbytes, n, system.spec.gpus_per_node)
            if any(sent != want for sent in result.sent_bytes):
                raise ValidationError(
                    f"hierarchical all-reduce must source exactly "
                    f"2(L-1)M + 2(M-1) shards = {want} bytes per GPU; "
                    f"got {sorted(set(result.sent_bytes))}",
                    invariant="hierarchical-bytes-off-closed-form",
                    time=result.end_time)
        return result

    # ------------------------------------------------------------------
    # Functional agreement
    # ------------------------------------------------------------------
    def functional_equivalence(self, workload,
                               partition_counts: Sequence[int] = (2, 4)):
        """Partitioned execution must reproduce the reference result."""
        checks = []
        for count in partition_counts:
            check = workload.verify_functional(num_partitions=count)
            if not check.passed:
                raise ValidationError(
                    f"workload {workload.name!r} diverged from its "
                    f"single-device reference at {count} partitions "
                    f"(max abs error {check.max_abs_error:.3g})",
                    invariant="functional-divergence")
            checks.append(check)
        return checks
