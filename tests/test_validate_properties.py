"""Property-based invariant suite: random simulations never trip the
sanitizers.

The readiness sanitizer and conservation checker assert orderings and
byte conservation at every phase barrier.  These properties throw
randomized platforms, configs, and phase shapes (from
:mod:`tests.strategies`) at the full stack and require a clean audit
every time — any counterexample hypothesis finds is a real protocol or
accounting bug, shrunk to a minimal reproducer.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import ProactPhaseExecutor
from repro.units import MiB
from repro.validate import validation
from tests.conftest import one_producer_phase
from tests.strategies import (
    collective_specs,
    phase_works,
    platforms,
    proact_configs,
)

# Full-stack simulations per example: keep the example budget small.
fast_settings = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

pytestmark = pytest.mark.slow


@fast_settings
@given(platform=platforms(), config=proact_configs())
def test_random_decoupled_phases_satisfy_all_invariants(platform, config):
    """Any (platform, config) pair runs a producer phase with zero
    sanitizer violations and conserved link bytes."""
    with validation() as scope:
        session = Session(platform)
        system = session.system()
        executor = ProactPhaseExecutor(system, config)
        works = one_producer_phase(system, region_bytes=4 * MiB)
        system.run(until=executor.execute(works))
        session.finish(system)
    summary = scope.summary()
    assert summary["violations"] == 0
    assert summary["phases_checked"] == 1
    assert summary["bytes_injected"] == summary["bytes_delivered"] > 0


@fast_settings
@given(platform=platforms(max_gpus=3), config=proact_configs(),
       work=phase_works(max_region=2 * MiB),
       num_phases=st.integers(min_value=1, max_value=3))
def test_random_multi_phase_workloads_stay_clean(platform, config, work,
                                                 num_phases):
    """Randomized producer work across several phases: chunk ids repeat
    per phase and the audit must pass at every barrier."""
    with validation() as scope:
        session = Session(platform)
        system = session.system()
        executor = ProactPhaseExecutor(system, config)
        for _ in range(num_phases):
            works = [work] + [
                one_producer_phase(system)[1]
                for _ in range(system.num_gpus - 1)]
            system.run(until=executor.execute(works))
        session.finish(system)
    summary = scope.summary()
    assert summary["violations"] == 0
    assert summary["phases_checked"] == num_phases


@fast_settings
@given(spec=collective_specs(max_gpus=4, max_bytes=2 * MiB))
def test_random_collectives_conserve_bytes(spec):
    """Executed collectives agree with their schedules and conserve
    link bytes for every generated spec."""
    from repro.hw import PLATFORM_4X_VOLTA
    from repro.validate import DifferentialOracle
    collective, algorithm, num_gpus, nbytes, chunk_size, root = spec
    result = DifferentialOracle().check_collective(
        PLATFORM_4X_VOLTA, collective, algorithm, nbytes, chunk_size,
        root=root, num_gpus=num_gpus)
    assert result.duration > 0
