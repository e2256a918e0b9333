"""Integration tests for the PROACT phase executor and transfer agents."""

import pytest

from repro.core import (
    CdpAgent,
    GpuPhaseWork,
    MECH_CDP,
    MECH_HARDWARE,
    MECH_INLINE,
    MECH_POLLING,
    Mechanisms,
    PollingAgent,
    ProactConfig,
    ProactPhaseExecutor,
    inline_access_size,
    store_issue_work,
    tracking_overhead,
)
from repro.core.polling import CHUNK_DISPATCH_OVERHEAD
from repro.errors import ProactError
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.runtime import KernelSpec, System
from repro.sim import Engine, Tracer
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


def test_cdp_agent_and_cdp_launch_share_the_driver_queue():
    """Agent child kernels and user dynamic launches on one device go
    through one driver queue, one launch latency apart, in FIFO order."""
    system = volta_system(tracer=Tracer())
    device = system.devices[0]
    agent = CdpAgent(system, 0, ProactConfig(MECH_CDP, 64 * KiB, 512),
                     destinations=[1])
    agent.chunk_ready(64 * KiB)
    launch = device.cdp_launch("user", work=0.0, demand=0.05)
    launched_at = []
    launch.callbacks.append(lambda _e: launched_at.append(system.now))
    agent.chunk_ready(128 * KiB)
    system.run(until=agent.close())
    latency = device.spec.cdp_launch_latency
    agent_launches = [(record.end, record.payload["bytes"])
                      for record in system.tracer.channel("gpu0.agent")
                      if record.label == "cdp-launch"]
    assert agent_launches == [(pytest.approx(latency), 64 * KiB),
                              (pytest.approx(3 * latency), 128 * KiB)]
    assert launched_at == [pytest.approx(2 * latency)]
    assert device.cdp_launch_count == 3


def test_polling_dispatch_serializes_same_instant_chunks(monkeypatch):
    """Chunks that become ready before one bitmap scan, at one instant
    or not, are found by one tick entry and leave the dispatcher one
    dispatch overhead apart, in the order they became ready."""
    ticks = []
    polled = PollingAgent._polled

    def counting_polled(agent, found):
        ticks.append([nbytes for nbytes, _chunk, _wait in found])
        polled(agent, found)

    monkeypatch.setattr(PollingAgent, "_polled", counting_polled)
    system = volta_system(tracer=Tracer())
    config = ProactConfig(MECH_POLLING, 64 * KiB, 512)
    agent = PollingAgent(system, 0, config, destinations=[1])
    agent.start()
    tick = config.poll_period
    sizes = [64 * KiB, 192 * KiB, 128 * KiB]
    agent.chunk_ready(sizes[0])
    agent.chunk_ready(sizes[1])
    system.run(until=tick / 2)
    agent.chunk_ready(sizes[2])
    system.run(until=agent.close())
    agent.stop()
    assert ticks == [sizes]
    sends = sorted((record.time, record.payload["bytes"])
                   for record in system.tracer.channel("gpu0.transfer"))
    assert sends == [
        (pytest.approx(tick + k * CHUNK_DISPATCH_OVERHEAD), nbytes)
        for k, nbytes in enumerate(sizes, start=1)]


@pytest.mark.parametrize("mechanism",
                         [MECH_POLLING, MECH_CDP, MECH_HARDWARE])
def test_decoupled_phase_processes_do_not_grow_with_chunks(monkeypatch,
                                                          mechanism):
    """Agents drive chunks with engine callbacks: a phase starts as many
    processes with 128 chunks as with 8."""
    started = []
    process = Engine.process

    def counting_process(self, generator, name=None):
        started.append(name)
        return process(self, generator, name)

    monkeypatch.setattr(Engine, "process", counting_process)

    def processes(chunk_size):
        started.clear()
        system = volta_system()
        run_phase(system, ProactConfig(mechanism, chunk_size, 1024),
                  one_producer_phase(system, region_bytes=8 * MiB))
        return len(started)

    assert processes(64 * KiB) == processes(1 * MiB)


def test_kernel_milestones_cost_no_entry_of_their_own():
    """A kernel's milestone waiters (the agent's chunk intake) run in
    the entry of the fluid task's milestone: milestones add as many heap
    entries to a kernel launch as to a bare fluid task."""
    milestones = [0.25, 0.5, 0.75, 1.0]

    def kernel_entries(fractions):
        system = volta_system()
        launch = system.devices[0].launch_kernel(
            "k", work=1e-3, milestones=fractions)
        for event in launch.milestone_events:
            event.callbacks.append(lambda _e: None)
        system.run(until=launch.done)
        return system.engine.events_fired

    def task_entries(fractions):
        system = volta_system()
        task = system.gpus[0].compute.launch("k", 1e-3, 1.0, fractions)
        system.run(until=task.done)
        return system.engine.events_fired

    assert (kernel_entries(milestones) - kernel_entries([])
            == task_entries(milestones) - task_entries([]))


# One GPU produces a 4 MiB region in 64 KiB chunks for the other three.
# Heap entry counts are deterministic, so they pin exactly.  Where a
# milestone, an unwaited stopped task's ``done`` and each chunk's poll
# tick took an entry of their own, the counts were 864, 801 and 988:
# - polling saves the 64 milestones and the resident task's stop; its
#   chunks' ticks fall at 64 distinct instants;
# - without readiness tracking all 64 chunks reach the agent at kernel
#   end, so one tick entry carries them: 65 + 63 fewer;
# - CDP saves the 64 milestones and its 64 copy tasks' stops.
@pytest.mark.parametrize("mechanism,mechanisms,events", [
    (MECH_POLLING, None, 799),
    (MECH_POLLING, Mechanisms(readiness_tracking=False), 673),
    (MECH_CDP, None, 860),
], ids=["polling", "polling-tracking-off", "cdp"])
def test_decoupled_phase_heap_entries_pinned(mechanism, mechanisms,
                                             events):
    system = volta_system(mechanisms=mechanisms)
    run_phase(system, ProactConfig(mechanism, 64 * KiB, 1024),
              one_producer_phase(system, region_bytes=4 * MiB))
    assert system.engine.events_fired == events


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


# ---------------------------------------------------------------------------
# Tie-rule pins: exact runtimes of decoupled phases
# ---------------------------------------------------------------------------
#
# Every GPU produces a 4 MiB region in 64 KiB chunks and pushes it to the
# other three, so chunks of four agents contend on shared links and reach
# the agents' dispatch queues at equal instants.  The runtimes are exact
# (``==``): they pin the order in which same-instant engine entries run,
# which a change to how agents schedule their work can move without
# changing any modelled cost.

def _all_producer_duration(platform, mechanism, infinite_bw=False,
                           mechanisms=None):
    system = System(platform, infinite_bw=infinite_bw,
                    mechanisms=mechanisms)
    flops = system.gpus[0].spec.flops * 5e-4
    works = [GpuPhaseWork(kernel=KernelSpec(f"produce{gpu}", flops, 0, 4096),
                          region_bytes=4 * MiB)
             for gpu in range(system.num_gpus)]
    return run_phase(system, ProactConfig(mechanism, 64 * KiB, 1024),
                     works).duration


@pytest.mark.parametrize("platform,mechanism,infinite_bw,expected", [
    (PLATFORM_4X_KEPLER, MECH_POLLING, False, 0.0020495822222222227),
    (PLATFORM_4X_KEPLER, MECH_POLLING, True, 0.0019925),
    (PLATFORM_4X_KEPLER, MECH_CDP, False, 0.0018029880888888827),
    (PLATFORM_4X_KEPLER, MECH_CDP, True, 0.00100102),
    (PLATFORM_4X_KEPLER, MECH_HARDWARE, False, 0.0017812575530586708),
    (PLATFORM_4X_KEPLER, MECH_HARDWARE, True, 0.0005064),
    (PLATFORM_4X_VOLTA, MECH_POLLING, False, 0.0007690078933333332),
    (PLATFORM_4X_VOLTA, MECH_POLLING, True, 0.0007644999999999999),
    (PLATFORM_4X_VOLTA, MECH_CDP, False, 0.001806312493333332),
    (PLATFORM_4X_VOLTA, MECH_CDP, True, 0.001801804599999999),
    (PLATFORM_4X_VOLTA, MECH_HARDWARE, False, 0.0005079297889542091),
    (PLATFORM_4X_VOLTA, MECH_HARDWARE, True, 0.0005049),
])
def test_decoupled_phase_runtime_pinned(platform, mechanism, infinite_bw,
                                        expected):
    assert _all_producer_duration(platform, mechanism,
                                  infinite_bw) == expected


@pytest.mark.parametrize("mechanisms,mechanism,expected", [
    (Mechanisms(fluid_contention=False), MECH_POLLING,
     0.0007570078933333333),
    (Mechanisms(fluid_contention=False), MECH_CDP, 0.001806312493333332),
    (Mechanisms(write_coalescing=False), MECH_POLLING,
     0.0007691717333333332),
    (Mechanisms(write_coalescing=False), MECH_CDP, 0.001806476333333332),
    # Without readiness tracking every chunk is ready at kernel end: the
    # whole region reaches each agent at one instant.
    (Mechanisms(readiness_tracking=False), MECH_POLLING,
     0.0006554078933333343),
    (Mechanisms(readiness_tracking=False), MECH_CDP, 0.0021730078933333325),
    (Mechanisms(readiness_tracking=False), MECH_HARDWARE,
     0.000600827068954212),
], ids=["fluid-off-poll", "fluid-off-cdp", "coalesce-off-poll",
        "coalesce-off-cdp", "tracking-off-poll", "tracking-off-cdp",
        "tracking-off-hw"])
def test_ablated_decoupled_phase_runtime_pinned(mechanisms, mechanism,
                                                expected):
    assert _all_producer_duration(PLATFORM_4X_VOLTA, mechanism,
                                  mechanisms=mechanisms) == expected
