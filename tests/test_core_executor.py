"""Integration tests for the PROACT phase executor and transfer agents."""

import pytest

from repro.core import (
    CdpAgent,
    GpuPhaseWork,
    MECH_CDP,
    MECH_INLINE,
    MECH_POLLING,
    PollingAgent,
    ProactConfig,
    ProactPhaseExecutor,
    inline_access_size,
    store_issue_work,
    tracking_overhead,
)
from repro.errors import ProactError
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.runtime import KernelSpec, System
from repro.units import KiB, MiB
from tests.conftest import one_producer_phase, run_phase, volta_system


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_labels_match_table2_notation():
    assert ProactConfig(MECH_INLINE, 4 * KiB, 32).label() == "I"
    assert (ProactConfig(MECH_POLLING, 128 * KiB, 2048).label()
            == "D 128kB 2048 Poll")
    assert (ProactConfig(MECH_CDP, 16 * KiB, 256).label()
            == "D 16kB 256 CDP")
    assert (ProactConfig(MECH_POLLING, 1 * MiB, 4096).label()
            == "D 1MB 4096 Poll")


def test_config_validation():
    with pytest.raises(Exception):
        ProactConfig("dma", 4 * KiB, 32)
    with pytest.raises(Exception):
        ProactConfig(MECH_POLLING, 0, 32)
    with pytest.raises(Exception):
        ProactConfig(MECH_POLLING, 4 * KiB, 0)


# ---------------------------------------------------------------------------
# Inline helpers
# ---------------------------------------------------------------------------

def test_inline_access_size_bounds():
    assert inline_access_size(8, 1.0) == 128
    assert inline_access_size(8, 0.0) == 8
    assert 8 < inline_access_size(8, 0.5) < 128
    assert inline_access_size(256, 0.5) == 256  # already coarse


def test_inline_access_size_validation():
    with pytest.raises(ProactError):
        inline_access_size(0, 0.5)
    with pytest.raises(ProactError):
        inline_access_size(8, 1.5)


def test_store_issue_work():
    assert store_issue_work(1000, 3, 1e9) == pytest.approx(3e-6)
    assert store_issue_work(0, 3, 1e9) == 0.0


# ---------------------------------------------------------------------------
# Executor: decoupled transfers overlap with compute
# ---------------------------------------------------------------------------

def test_polling_phase_hides_most_transfer_time():
    # 32 MiB to 3 peers over NVLink2 (50 GB/s per peer) ~ 0.67 ms of
    # transfer under a 2 ms kernel: nearly everything should hide.
    system = volta_system()
    config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    result = run_phase(system, config, one_producer_phase(system))
    assert result.total_bytes_sent == 3 * 32 * MiB
    assert result.exposed_transfer_time < 0.3e-3
    # Kernel (2 ms) + tracking overhead + polling steal + small tail.
    assert result.duration < 2.9e-3


def test_decoupled_instrumentation_slows_kernel():
    # The kernel's own work does not depend on its CTA count; the
    # readiness counters do (one atomic decrement + fence per CTA).
    def duration(num_ctas):
        system = volta_system()
        config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
        works = one_producer_phase(system, num_ctas=num_ctas)
        return run_phase(system, config, works).duration

    gpu = PLATFORM_4X_VOLTA.gpu
    overhead = (tracking_overhead(gpu, 100_000)
                - tracking_overhead(gpu, 50_000))
    assert overhead > 0
    assert duration(100_000) - duration(50_000) == pytest.approx(
        overhead, rel=0.05)


def test_elide_transfers_keeps_overheads_but_moves_no_bytes():
    system = volta_system()
    config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    result = run_phase(system, config, one_producer_phase(system),
                       elide_transfers=True)
    assert system.fabric.total_goodput_bytes() == 0
    # Stats still record what would have moved.
    assert result.total_bytes_sent == 3 * 32 * MiB


def test_cdp_small_chunks_are_initiation_bound():
    def duration(chunk_size):
        system = volta_system()
        config = ProactConfig(MECH_CDP, chunk_size, 2048)
        return run_phase(system, config,
                         one_producer_phase(system, region_bytes=8 * MiB)
                         ).duration

    # 8 MiB at 16 KiB chunks = 512 CDP launches x 26 us >> the kernel;
    # at 1 MiB chunks only 8 launches.
    assert duration(16 * KiB) > 2.5 * duration(1 * MiB)


def test_huge_chunks_leave_tail_transfers():
    system = volta_system()
    # One single chunk: ready only when the kernel finishes, so the whole
    # transfer is exposed (the paper's tail-transfer-bound region).
    config = ProactConfig(MECH_POLLING, 32 * MiB, 2048)
    result = run_phase(system, config, one_producer_phase(system))
    assert result.exposed_transfer_time > 0.5e-3


def test_polling_agent_steals_compute_on_kepler():
    def kernel_end(mechanism):
        system = System(PLATFORM_4X_KEPLER)
        config = ProactConfig(mechanism, 1 * MiB, 256)
        works = one_producer_phase(
            system, region_bytes=4 * MiB,
            flops=system.gpus[0].spec.flops * 5e-3)
        result = run_phase(system, config, works, elide_transfers=True)
        return result.last_kernel_end

    # Kepler's polling tax slows the compute kernel noticeably vs CDP.
    assert kernel_end(MECH_POLLING) > 1.15 * kernel_end(MECH_CDP)


def test_inline_phase_moves_data_at_inline_granularity():
    system = volta_system()
    config = ProactConfig(MECH_INLINE, 1 * MiB, 2048)
    works = one_producer_phase(system, region_bytes=16 * MiB,
                               store_size=8, spatial_locality=0.0)
    result = run_phase(system, config, works)
    assert result.total_bytes_sent == 3 * 16 * MiB
    # 8-byte NVLink stores: wire bytes blow up by ~6x.
    assert system.fabric.total_wire_bytes() > 4 * (3 * 16 * MiB)


def test_inline_with_good_locality_is_efficient():
    def wire_bytes(locality):
        system = volta_system()
        config = ProactConfig(MECH_INLINE, 1 * MiB, 2048)
        works = one_producer_phase(system, region_bytes=16 * MiB,
                                   store_size=8, spatial_locality=locality)
        run_phase(system, config, works)
        return system.fabric.total_wire_bytes()

    assert wire_bytes(0.0) > 3 * wire_bytes(1.0)


def test_phase_gpu_count_mismatch_rejected():
    system = volta_system()
    executor = ProactPhaseExecutor(
        system, ProactConfig(MECH_POLLING, 1 * MiB, 2048))
    with pytest.raises(ProactError):
        executor.execute([])


def test_compute_only_phase_runs_kernels_in_parallel():
    system = volta_system()
    config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    flops = system.gpus[0].spec.flops * 1e-3
    works = [GpuPhaseWork(kernel=KernelSpec("k", flops, 0, 1024))
             for _ in range(4)]
    result = run_phase(system, config, works)
    assert result.duration == pytest.approx(
        1e-3 + system.spec.gpu.kernel_launch_latency, rel=1e-6)
    assert result.total_bytes_sent == 0


# ---------------------------------------------------------------------------
# Agents in isolation
# ---------------------------------------------------------------------------

def test_polling_agent_requires_start_before_chunks():
    system = volta_system()
    agent = PollingAgent(system, 0, ProactConfig(MECH_POLLING, 64 * KiB, 512),
                         destinations=[1, 2, 3])
    with pytest.raises(ProactError):
        agent.chunk_ready(64 * KiB)
    agent.start()
    assert agent.is_resident
    agent.chunk_ready(64 * KiB)
    done = agent.close()
    system.run(until=done)
    agent.stop()
    assert not agent.is_resident
    assert agent.stats.chunks_sent == 1
    assert agent.stats.bytes_sent == 3 * 64 * KiB


def test_agent_validation():
    system = volta_system()
    config = ProactConfig(MECH_CDP, 64 * KiB, 512)
    with pytest.raises(ProactError):
        CdpAgent(system, 0, config, destinations=[])
    with pytest.raises(ProactError):
        CdpAgent(system, 0, config, destinations=[0, 1])
    agent = CdpAgent(system, 0, config, destinations=[1])
    with pytest.raises(ProactError):
        agent.chunk_ready(0)
    agent.close()
    with pytest.raises(ProactError):
        agent.chunk_ready(1024)


def test_cdp_agent_counts_launches():
    system = volta_system()
    agent = CdpAgent(system, 0, ProactConfig(MECH_CDP, 64 * KiB, 512),
                     destinations=[1, 2, 3])
    for _ in range(5):
        agent.chunk_ready(64 * KiB)
    system.run(until=agent.close())
    assert system.devices[0].cdp_launch_count == 5
    assert agent.stats.sends_issued == 15


def test_more_transfer_threads_speed_up_drain():
    def drain_time(threads):
        system = volta_system()
        agent = PollingAgent(
            system, 0, ProactConfig(MECH_POLLING, 1 * MiB, threads),
            destinations=[1, 2, 3])
        agent.start()
        for _ in range(32):
            agent.chunk_ready(1 * MiB)
        system.run(until=agent.close())
        agent.stop()
        return system.now

    # 32 threads (~2.9 GB/s copy rate) starve NVLink2; 4096 saturate it.
    assert drain_time(32) > 5 * drain_time(4096)


def test_error_raised_mid_phase_carries_simulation_time():
    """A process dying while a phase is in flight surfaces through
    System.run with the simulation time of the raise attached."""
    system = volta_system()
    executor = ProactPhaseExecutor(
        system, ProactConfig(MECH_POLLING, 256 * KiB, 2048))
    works = one_producer_phase(system, region_bytes=8 * MiB)

    def saboteur(engine):
        yield engine.timeout(1e-3)
        raise RuntimeError("device lost")

    system.engine.process(saboteur(system.engine))
    with pytest.raises(RuntimeError, match="device lost") as err:
        system.run(until=executor.execute(works))
    assert err.value.sim_time == pytest.approx(1e-3)
    assert any("simulation time" in note
               for note in getattr(err.value, "__notes__", []))
