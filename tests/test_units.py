"""Tests for unit helpers and the error hierarchy."""

import pytest

from repro import errors
from repro.units import (
    GiB,
    KiB,
    MiB,
    format_bandwidth,
    format_bytes,
    format_time,
    gb_per_s,
    gib_per_s,
    msec,
    nsec,
    usec,
)


def test_size_constants():
    assert KiB == 1024
    assert MiB == 1024 ** 2
    assert GiB == 1024 ** 3


def test_time_conversions():
    assert usec(5) == pytest.approx(5e-6)
    assert msec(2) == pytest.approx(2e-3)
    assert nsec(100) == pytest.approx(1e-7)


def test_bandwidth_conversions():
    assert gb_per_s(16) == 16e9
    assert gib_per_s(1) == GiB


def test_format_bytes():
    assert format_bytes(512) == "512B"
    assert format_bytes(4096) == "4.0KiB"
    assert format_bytes(1536 * 1024) == "1.5MiB"
    assert format_bytes(3 * GiB) == "3.0GiB"


def test_format_time():
    assert format_time(0) == "0s"
    assert format_time(2.5) == "2.500s"
    assert format_time(3e-3) == "3.000ms"
    assert format_time(2.5e-6) == "2.500us"
    assert format_time(5e-9) == "5.0ns"


def test_format_bandwidth():
    assert format_bandwidth(16e9) == "16.0GB/s"


def test_error_hierarchy():
    for error_cls in (errors.SimulationError, errors.DeadlockError,
                      errors.ConfigurationError,
                      errors.RuntimeApiError, errors.ProactError,
                      errors.WorkloadError):
        assert issubclass(error_cls, errors.ReproError)
    assert issubclass(errors.DeadlockError, errors.SimulationError)


def test_public_package_api():
    import repro
    assert repro.__version__
    assert callable(repro.System)
    assert callable(repro.Profiler)
    assert repro.MECH_POLLING == "polling"
