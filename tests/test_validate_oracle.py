"""Tests for the differential oracle and the conservation checker."""

import pytest

from repro.api import Session
from repro.errors import ValidationError
from repro.hw import PLATFORM_4X_PASCAL, PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from repro.validate import DifferentialOracle, validation
from repro.validate.conservation import ConservationChecker
from repro.workloads.micro import MicroBenchmark
from tests.conftest import small_pagerank, volta_system


def small_micro():
    return MicroBenchmark(data_bytes=4 * MiB)


# ---------------------------------------------------------------------------
# Paradigm agreement
# ---------------------------------------------------------------------------

def test_paradigms_agree_on_microbenchmark():
    report = DifferentialOracle().compare_paradigms(
        small_micro(), PLATFORM_4X_VOLTA)
    assert len(report.results) == 5
    assert "PROACT-decoupled" in report.paradigms
    # Every structural agreement was actually checked and recorded.
    assert any("goodput matches closed form" in check
               for check in report.checks)
    assert any("lower bound" in check for check in report.checks)


def test_paradigms_agree_on_pagerank_across_platforms():
    oracle = DifferentialOracle()
    for platform in (PLATFORM_4X_VOLTA, PLATFORM_4X_PASCAL):
        report = oracle.compare_paradigms(small_pagerank(), platform)
        assert report.platform == platform.name
        assert len(report.checks) >= 5


def test_oracle_detects_byte_accounting_drift(monkeypatch):
    """If a paradigm's goodput ever drifts off the closed form, the
    oracle must flag it — simulated here by corrupting the expectation."""
    oracle = DifferentialOracle()
    real = oracle._expected_bytes

    def skewed(phases, hops):
        expected = real(phases, hops)
        return {key: value + 1 for key, value in expected.items()}

    monkeypatch.setattr(oracle, "_expected_bytes", skewed)
    with pytest.raises(ValidationError) as err:
        oracle.compare_paradigms(small_micro(), PLATFORM_4X_VOLTA)
    assert err.value.invariant == "goodput-mismatch"


# ---------------------------------------------------------------------------
# Collective agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("collective,algorithm", [
    ("all_reduce", "ring"),
    ("all_reduce", "tree"),
    ("all_gather", "ring"),
    ("reduce_scatter", "direct"),
    ("broadcast", "tree"),
])
def test_collectives_match_their_schedules(collective, algorithm):
    result = DifferentialOracle().check_collective(
        PLATFORM_4X_VOLTA, collective, algorithm, 2 * MiB, 256 * KiB)
    assert result.op_count > 0
    assert result.duration > 0


def test_ring_all_reduce_optimality_enforced():
    result = DifferentialOracle().check_collective(
        PLATFORM_4X_VOLTA, "all_reduce", "ring", 4 * MiB, 512 * KiB)
    n = result.num_gpus
    assert all(sent == 2 * (n - 1) * (4 * MiB) // n
               for sent in result.sent_bytes)


def test_oracle_rejects_corrupted_schedule(monkeypatch):
    """Drop one op from a ring all-gather: the symbolic replay must fail
    and the oracle must surface it as a ValidationError."""
    from repro.collectives import algorithms as algos
    real_build = algos.build_schedule

    def sabotaged(*args, **kwargs):
        schedule = real_build(*args, **kwargs)
        object.__setattr__(schedule, "ops", schedule.ops[:-1])
        return schedule

    monkeypatch.setattr(algos, "build_schedule", sabotaged)
    with pytest.raises(ValidationError) as err:
        DifferentialOracle().check_collective(
            PLATFORM_4X_VOLTA, "all_gather", "ring", 1 * MiB, 256 * KiB)
    assert err.value.invariant == "schedule-verifier-disagreement"


# ---------------------------------------------------------------------------
# Functional agreement
# ---------------------------------------------------------------------------

def test_functional_equivalence_passes_for_micro():
    checks = DifferentialOracle().functional_equivalence(
        small_micro(), partition_counts=(2, 4))
    assert len(checks) == 2
    assert all(check.passed for check in checks)


def test_functional_divergence_is_flagged():
    class Diverging:
        name = "diverging"

        def verify_functional(self, num_partitions=4):
            class Check:
                passed = False
                max_abs_error = 1.5
            return Check()

    with pytest.raises(ValidationError) as err:
        DifferentialOracle().functional_equivalence(Diverging())
    assert err.value.invariant == "functional-divergence"


# ---------------------------------------------------------------------------
# Conservation checker
# ---------------------------------------------------------------------------

def run_small_collective(system):
    proc = system.collective("all_reduce", 1 * MiB)
    system.run(until=proc)
    return proc.value


def test_clean_run_passes_conservation():
    system = volta_system()
    run_small_collective(system)
    checker = ConservationChecker(system)
    checker.check(system.now)
    assert checker.checks_run == 1
    report = checker.link_report(system.now)
    assert report and all(entry["wire_bytes"] >= entry["goodput_bytes"]
                          for entry in report)


def test_goodput_exceeding_wire_bytes_is_caught():
    system = volta_system()
    run_small_collective(system)
    link = system.fabric.links[0]
    link.goodput_bytes = link.wire_bytes + 1
    with pytest.raises(ValidationError) as err:
        ConservationChecker(system).check(system.now)
    assert err.value.invariant == "goodput-exceeds-wire"


def test_bytes_beyond_link_capacity_are_caught():
    system = volta_system()
    run_small_collective(system)
    link = system.fabric.links[0]
    link.wire_bytes = int(link.bandwidth * system.now * 10)
    with pytest.raises(ValidationError) as err:
        ConservationChecker(system).check(system.now)
    assert err.value.invariant in ("bytes-exceed-capacity",
                                   "fabric-total-mismatch")


def test_negative_counters_are_caught():
    system = volta_system()
    run_small_collective(system)
    system.fabric.links[0].goodput_bytes = -5
    with pytest.raises(ValidationError) as err:
        ConservationChecker(system).check(system.now)
    assert err.value.invariant == "negative-byte-counter"


def test_busy_interval_outside_clock_is_caught():
    system = volta_system()
    run_small_collective(system)
    system.fabric.links[0].busy.add(system.now + 1.0, system.now + 2.0)
    with pytest.raises(ValidationError) as err:
        ConservationChecker(system).check(system.now)
    assert err.value.invariant in ("occupancy-exceeds-clock",
                                   "interval-outside-clock")


def test_checker_runs_at_phase_barriers_under_validation():
    with validation():
        system = volta_system()
        assert system.checker is not None
        run_small_collective(system)
        Session(PLATFORM_4X_VOLTA).finish(system)
        assert system.checker.checks_run >= 1
