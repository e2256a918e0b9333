"""Unit and integration tests for the readiness sanitizer.

Each invariant is exercised twice over the suite: directly (drive the
sanitizer's hooks out of order and check the structured error) and
through the stack (corrupt a real component — e.g. a readiness counter —
and check the sanitizer catches the consequence with the chunk id, GPU,
and simulation time attached).
"""

import pickle

import pytest

from repro.api import Session
from repro.core import ContiguousMapping, ProactConfig, ReadinessTracker
from repro.core.config import MECH_POLLING
from repro.errors import ValidationError
from repro.sim import Engine
from repro.units import KiB, MiB
from repro.validate import (
    NULL_SANITIZER,
    ReadinessSanitizer,
    Validation,
    validation,
)
from repro.validate.sanitizer import (
    INV_BARRIER_BEFORE_DELIVERY,
    INV_BYTES_IN_FLIGHT,
    INV_DOUBLE_READY,
    INV_PREMATURE_READY,
    INV_READ_BEFORE_READY,
    INV_REREGISTERED,
    INV_SIGNAL_BEFORE_DELIVERY,
    INV_TIME_REGRESSION,
    INV_TRANSFER_BEFORE_READY,
    INV_UNKNOWN_CHUNK,
)
from repro.workloads import JacobiWorkload
from tests.conftest import one_producer_phase, run_phase, volta_system


def make_ready(san, gpu=0, chunk=0, nbytes=1024, writers=2, t=0.0):
    """Drive one chunk through register -> writers -> ready."""
    san.register_chunk(gpu, chunk, nbytes, t, expected_writers=writers)
    for _ in range(writers):
        san.writer_retired(gpu, chunk, t)
    san.chunk_ready(gpu, chunk, t)


# ---------------------------------------------------------------------------
# The clean lifecycle
# ---------------------------------------------------------------------------

def test_full_lifecycle_passes_and_counts():
    san = ReadinessSanitizer()
    make_ready(san, writers=3, nbytes=4096)
    san.transfer_started(0, 0, 1.0)
    for dst in (1, 2):
        san.bytes_injected_for(0, 0, dst, 2048, 1.0)
    for dst in (1, 2):
        san.bytes_delivered_to(0, 0, dst, 2048, 2.0)
        san.readable_signalled(0, 0, dst, 2.0)
    for dst in (1, 2):
        san.consumer_read(0, 0, dst, 3.0)
    san.phase_end(4.0, expected_destinations={0: (1, 2)})
    summary = san.summary()
    assert summary["violations"] == 0
    assert summary["phases_checked"] == 1
    assert summary["chunks_checked"] == 1
    assert summary["bytes_injected"] == summary["bytes_delivered"] == 4096
    assert san.open_chunks == 0


def test_chunk_ids_reusable_across_phases():
    san = ReadinessSanitizer()
    for phase in range(3):
        make_ready(san, chunk=7, writers=1, t=float(phase))
        san.phase_end(phase + 0.5)
    assert san.summary()["phases_checked"] == 3


def test_disabled_sanitizer_ignores_everything():
    assert not NULL_SANITIZER.enabled
    NULL_SANITIZER.chunk_ready(0, 99, 0.0)  # unregistered: would raise
    NULL_SANITIZER.phase_end(0.0)
    assert NULL_SANITIZER.summary()["events_checked"] == 0


# ---------------------------------------------------------------------------
# Each ordering violation raises its structured invariant
# ---------------------------------------------------------------------------

def expect(invariant, call):
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.invariant == invariant
    return err.value


def test_ready_before_all_writers_retired():
    san = ReadinessSanitizer()
    san.register_chunk(0, 0, 1024, 0.0, expected_writers=4)
    san.writer_retired(0, 0, 0.5)
    error = expect(INV_PREMATURE_READY,
                   lambda: san.chunk_ready(0, 0, 1.0))
    assert "1 of 4" in str(error)


def test_writer_retiring_after_signal_is_premature_ready():
    san = ReadinessSanitizer()
    make_ready(san, writers=1)
    expect(INV_PREMATURE_READY, lambda: san.writer_retired(0, 0, 2.0))


def test_double_ready_signal():
    san = ReadinessSanitizer()
    make_ready(san)
    expect(INV_DOUBLE_READY, lambda: san.chunk_ready(0, 0, 1.0))


def test_transfer_before_ready():
    san = ReadinessSanitizer()
    san.register_chunk(0, 0, 1024, 0.0, expected_writers=2)
    expect(INV_TRANSFER_BEFORE_READY,
           lambda: san.transfer_started(0, 0, 0.5))


def test_signal_before_delivery():
    san = ReadinessSanitizer()
    make_ready(san)
    san.transfer_started(0, 0, 1.0)
    expect(INV_SIGNAL_BEFORE_DELIVERY,
           lambda: san.readable_signalled(0, 0, 1, 1.5))


def test_read_before_ready_flag():
    san = ReadinessSanitizer()
    make_ready(san)
    san.transfer_started(0, 0, 1.0)
    san.bytes_injected_for(0, 0, 1, 1024, 1.0)
    san.bytes_delivered_to(0, 0, 1, 1024, 2.0)
    # Delivered but never signalled readable: a read is still premature.
    error = expect(INV_READ_BEFORE_READY,
                   lambda: san.consumer_read(0, 0, 1, 2.5))
    assert "gpu=0" in str(error) and "chunk=0" in str(error)
    assert "t=2.5" in str(error)


def test_barrier_before_chunk_ready():
    san = ReadinessSanitizer()
    san.register_chunk(0, 3, 1024, 0.0, expected_writers=2)
    expect(INV_BARRIER_BEFORE_DELIVERY, lambda: san.phase_end(5.0))


def test_barrier_before_delivery_to_expected_destination():
    san = ReadinessSanitizer()
    make_ready(san)
    san.transfer_started(0, 0, 1.0)
    san.bytes_injected_for(0, 0, 1, 1024, 1.0)
    san.bytes_delivered_to(0, 0, 1, 1024, 2.0)
    error = expect(
        INV_BARRIER_BEFORE_DELIVERY,
        lambda: san.phase_end(3.0, expected_destinations={0: (1, 2)}))
    assert "gpu2" in str(error)


def test_bytes_still_in_flight_at_phase_end():
    san = ReadinessSanitizer()
    make_ready(san)
    san.transfer_started(0, 0, 1.0)
    san.bytes_injected_for(0, 0, 1, 1024, 1.0)
    san.bytes_delivered_to(0, 0, 1, 512, 2.0)
    san.readable_signalled(0, 0, 1, 2.0)
    error = expect(INV_BYTES_IN_FLIGHT,
                   lambda: san.phase_end(3.0))
    assert "512" in str(error)


def test_reregistering_a_live_chunk():
    san = ReadinessSanitizer()
    san.register_chunk(0, 0, 1024, 0.0)
    expect(INV_REREGISTERED,
           lambda: san.register_chunk(0, 0, 1024, 1.0))


def test_event_on_unregistered_chunk():
    san = ReadinessSanitizer()
    expect(INV_UNKNOWN_CHUNK, lambda: san.chunk_ready(1, 5, 0.0))


def test_time_regression():
    san = ReadinessSanitizer()
    san.register_chunk(0, 0, 1024, 5.0)
    expect(INV_TIME_REGRESSION,
           lambda: san.register_chunk(0, 1, 1024, 4.0))


def test_violations_counter_increments():
    san = ReadinessSanitizer()
    with pytest.raises(ValidationError):
        san.chunk_ready(0, 0, 0.0)
    assert san.summary()["violations"] == 1


# ---------------------------------------------------------------------------
# Through the stack: a corrupted component is caught, with context
# ---------------------------------------------------------------------------

def test_corrupted_readiness_counter_is_caught_with_context():
    """The acceptance-criterion bug injection: clobber one atomic counter
    so the chunk signals ready after a single CTA instead of all four.
    The sanitizer must name the invariant, chunk, GPU, and sim time."""
    engine = Engine(sanitizer=ReadinessSanitizer())
    engine.timeout(1.5e-3)
    engine.run()  # advance the clock so the error carries a real time
    tracker = ReadinessTracker(
        engine, ContiguousMapping(num_ctas=4, num_chunks=1), gpu_id=2)
    assert tracker.counters == [4]
    tracker.counters[0] = 1  # the injected bug: a dropped-store miscount
    with pytest.raises(ValidationError) as err:
        tracker.cta_complete(0)
    error = err.value
    assert error.invariant == INV_PREMATURE_READY
    assert error.gpu == 2 and error.chunk == 0
    assert error.time == pytest.approx(1.5e-3)
    message = str(error)
    assert "chunk=0" in message and "gpu=2" in message
    assert "t=0.0015s" in message
    assert "1 of 4" in message


def test_healthy_tracker_passes_under_sanitizer():
    engine = Engine(sanitizer=ReadinessSanitizer())
    tracker = ReadinessTracker(
        engine, ContiguousMapping(num_ctas=8, num_chunks=2))
    for cta in range(8):
        tracker.cta_complete(cta)
    assert tracker.all_ready
    assert engine.sanitizer.summary()["violations"] == 0


# ---------------------------------------------------------------------------
# End-to-end: a real decoupled phase under the sanitizer
# ---------------------------------------------------------------------------

def test_decoupled_phase_runs_clean_with_config_validate():
    # Validation is a run policy: the system built inside the scope
    # carries the sanitizer, whatever configuration it then runs.
    with validation():
        system = volta_system()
    config = ProactConfig(MECH_POLLING, 256 * KiB, 2048)
    result = run_phase(system, config,
                       one_producer_phase(system, region_bytes=8 * MiB))
    assert system.validating
    assert result.duration > 0
    summary = system.engine.sanitizer.summary()
    assert summary["violations"] == 0
    assert summary["phases_checked"] == 1
    assert summary["chunks_checked"] == 8 * MiB // (256 * KiB)
    assert summary["bytes_injected"] == summary["bytes_delivered"] > 0


def test_system_picks_up_ambient_validation_scope():
    with validation() as scope:
        system = volta_system()
        assert system.validating
        assert system.checker is not None
        config = ProactConfig(MECH_POLLING, 256 * KiB, 2048)
        run_phase(system, config,
                  one_producer_phase(system, region_bytes=4 * MiB))
    summary = scope.summary()
    assert summary["systems_validated"] == 1
    assert summary["violations"] == 0
    assert summary["phases_checked"] == 1
    # Outside the scope, systems are unvalidated again.
    assert not volta_system().validating


def test_elided_transfers_still_satisfy_the_protocol():
    with validation():
        system = volta_system()
        config = ProactConfig(MECH_POLLING, 256 * KiB, 2048)
        run_phase(system, config,
                  one_producer_phase(system, region_bytes=4 * MiB),
                  elide_transfers=True)
        summary = system.engine.sanitizer.summary()
    assert summary["violations"] == 0
    assert summary["phases_checked"] == 1


def test_validation_error_formats_structured_fields():
    error = ValidationError("boom", invariant="some-invariant", gpu=3,
                            chunk=17, time=0.25)
    assert str(error) == "[some-invariant] gpu=3 chunk=17 t=0.25s boom"
    assert error.invariant == "some-invariant"
    assert (error.gpu, error.chunk, error.time) == (3, 17, 0.25)


def test_validation_error_survives_pickling():
    error = ValidationError("boom", invariant="conservation", gpu=1,
                            chunk=2, time=0.5)
    clone = pickle.loads(pickle.dumps(error))
    assert str(clone) == "[conservation] gpu=1 chunk=2 t=0.5s boom"
    assert (clone.invariant, clone.gpu, clone.chunk, clone.time) == (
        "conservation", 1, 2, 0.5)


def test_empty_validation_summary_reports_every_counter():
    assert Validation().summary() == {
        "systems_validated": 0, "chunks_checked": 0, "events_checked": 0,
        "phases_checked": 0, "bytes_injected": 0, "bytes_delivered": 0,
        "violations": 0}


def _validated_sweep(entry, jobs):
    session = Session("4x_volta", validate=True)
    if entry == "profile":
        session.profile(JacobiWorkload(num_unknowns=200_000),
                        strategy="exhaustive",
                        chunk_sizes=(64 * KiB, 1 * MiB),
                        thread_counts=(2048,), jobs=jobs)
    else:
        session.plan_collective("all_reduce", 1 << 20,
                                chunk_sizes=(256 * KiB, 1 * MiB), jobs=jobs)
    return session.validation_summary()


@pytest.mark.parametrize("entry", ["profile", "plan_collective"])
def test_pool_sweep_validates_like_a_serial_sweep(entry):
    # Pool workers never see the parent's scope; their counters must
    # still reach it, so serial and pooled sweeps report the same summary.
    serial = _validated_sweep(entry, jobs=1)
    assert serial["systems_validated"] > 0
    assert _validated_sweep(entry, jobs=2) == serial
