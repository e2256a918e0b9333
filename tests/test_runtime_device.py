"""Unit tests for System, Device, kernel launches, memcpy, and CDP."""

import pytest

from repro.api import Session
from repro.errors import ConfigurationError, RuntimeApiError
from repro.hw import PLATFORM_4X_PASCAL, PLATFORM_4X_VOLTA
from repro.runtime import System
from repro.units import MiB


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------

def test_system_from_name():
    system = Session("4x_volta").system()
    assert system.num_gpus == 4
    assert len(system.devices) == 4
    assert system.spec.gpu.arch == "Volta"


def test_system_num_gpus_override():
    system = Session("16x_volta", num_gpus=8).system()
    assert system.num_gpus == 8
    assert len(system.fabric.links) == 16  # 8 up + 8 down on the switch


def test_system_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        Session("no_such_system")


def test_system_device_lookup_bounds():
    system = System(PLATFORM_4X_PASCAL)
    assert system.device(3).device_id == 3
    with pytest.raises(ConfigurationError):
        system.device(4)


# ---------------------------------------------------------------------------
# Kernel launch
# ---------------------------------------------------------------------------

def test_kernel_launch_includes_latency():
    system = System(PLATFORM_4X_VOLTA)
    launch = system.device(0).launch_kernel("k", work=1e-3)
    system.run(until=launch.done)
    expected = system.spec.gpu.kernel_launch_latency + 1e-3
    assert system.now == pytest.approx(expected)
    assert launch.started_at == pytest.approx(
        system.spec.gpu.kernel_launch_latency)
    assert launch.finished_at == pytest.approx(expected)


def test_kernel_milestones_visible_externally():
    system = System(PLATFORM_4X_VOLTA)
    launch = system.device(0).launch_kernel(
        "k", work=1e-3, milestones=[0.5, 1.0])
    fired = []
    for i, event in enumerate(launch.milestone_events):
        assert event.callbacks is not None
        event.callbacks.append(
            lambda _e, i=i: fired.append((i, system.now)))
    system.run(until=launch.done)
    latency = system.spec.gpu.kernel_launch_latency
    assert fired[0] == (0, pytest.approx(latency + 0.5e-3))
    assert fired[1] == (1, pytest.approx(latency + 1e-3))


def test_kernels_on_different_gpus_run_in_parallel():
    system = System(PLATFORM_4X_VOLTA)
    launches = [system.device(i).launch_kernel(f"k{i}", work=1e-3)
                for i in range(4)]
    system.run(until=system.engine.all_of([l.done for l in launches]))
    expected = system.spec.gpu.kernel_launch_latency + 1e-3
    assert system.now == pytest.approx(expected)


def test_two_kernels_same_gpu_share_compute():
    system = System(PLATFORM_4X_VOLTA)
    a = system.device(0).launch_kernel("a", work=1e-3)
    b = system.device(0).launch_kernel("b", work=1e-3)
    system.run(until=system.engine.all_of([a.done, b.done]))
    expected = system.spec.gpu.kernel_launch_latency + 2e-3
    assert system.now == pytest.approx(expected)


def test_negative_kernel_work_rejected():
    system = System(PLATFORM_4X_VOLTA)
    with pytest.raises(RuntimeApiError):
        system.device(0).launch_kernel("bad", work=-1.0)


# ---------------------------------------------------------------------------
# memcpy_peer (DMA)
# ---------------------------------------------------------------------------

def test_memcpy_pays_init_overhead_plus_wire_time():
    system = System(PLATFORM_4X_VOLTA)
    src, dst = system.device(0), system.device(1)
    nbytes = 64 * MiB
    copy = src.memcpy_peer(dst, nbytes)
    receipt = system.run(until=copy)
    fmt = system.fabric.spec.fmt
    wire = fmt.message_wire_bytes(nbytes, fmt.max_payload)
    bandwidth = system.fabric.peak_p2p_bandwidth(0, 1)
    expected = (system.spec.gpu.dma_init_overhead
                + wire / bandwidth
                + system.spec.interconnect.latency)
    assert system.now == pytest.approx(expected, rel=1e-6)
    assert receipt.payload_bytes == nbytes


def test_memcpys_from_one_gpu_serialize_on_dma_engine():
    system = System(PLATFORM_4X_VOLTA)
    src = system.device(0)
    nbytes = 16 * MiB
    copies = [src.memcpy_peer(system.device(d), nbytes) for d in (1, 2, 3)]
    system.run(until=system.engine.all_of(copies))
    serial_time = system.now

    system2 = System(PLATFORM_4X_VOLTA)
    copy = system2.device(0).memcpy_peer(system2.device(1), nbytes)
    system2.run(until=copy)
    single = system2.now
    # Three serialized copies take about three times one copy.
    assert serial_time == pytest.approx(3 * single, rel=0.05)


def test_memcpy_validation():
    system = System(PLATFORM_4X_VOLTA)
    other = System(PLATFORM_4X_VOLTA)
    with pytest.raises(RuntimeApiError):
        system.device(0).memcpy_peer(system.device(0), 100)
    with pytest.raises(RuntimeApiError):
        system.device(0).memcpy_peer(other.device(1), 100)
    with pytest.raises(RuntimeApiError):
        system.device(0).memcpy_peer(system.device(1), -5)


def test_memcpy_counts():
    system = System(PLATFORM_4X_VOLTA)
    src = system.device(0)
    system.run(until=src.memcpy_peer(system.device(1), 1024))
    assert src.memcpy_count == 1


# ---------------------------------------------------------------------------
# CDP launches
# ---------------------------------------------------------------------------

def test_cdp_launch_pays_latency_then_runs_work():
    system = System(PLATFORM_4X_VOLTA)
    done = system.device(0).cdp_launch("copy", work=1e-4, demand=0.05)
    system.run(until=done)
    expected = system.spec.gpu.cdp_launch_latency + 1e-4
    assert system.now == pytest.approx(expected)
    assert system.device(0).cdp_launch_count == 1


def test_cdp_launches_serialize_through_driver():
    system = System(PLATFORM_4X_VOLTA)
    device = system.device(0)
    launches = [device.cdp_launch(f"c{i}", work=0.0, demand=0.05)
                for i in range(5)]
    system.run(until=system.engine.all_of(launches))
    assert system.now == pytest.approx(
        5 * system.spec.gpu.cdp_launch_latency)


def test_cdp_negative_work_rejected():
    system = System(PLATFORM_4X_VOLTA)
    with pytest.raises(RuntimeApiError):
        system.device(0).cdp_launch("bad", work=-1.0, demand=0.1)
