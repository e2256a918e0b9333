"""Tests for PROACT's compile-time profiler."""

import os
import re

import pytest

from repro.api import Session
from repro.core import (
    MECH_CDP,
    MECH_INLINE,
    MECH_POLLING,
    ProactConfig,
    Profiler,
    tracking_overhead,
)
from repro.core.profiler import (
    ProfileEntry,
    ProfileResult,
    SweepPool,
    run_phases,
)
from repro.errors import ProactError
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from repro.workloads import PageRankWorkload
from tests.conftest import one_producer_phase
from tests.conftest import small_jacobi as _small_jacobi
from tests.conftest import small_pagerank as _small_pagerank

SMALL_CHUNKS = (128 * KiB, 1 * MiB)
SMALL_THREADS = (1024, 4096)


def small_pagerank():
    return _small_pagerank(iterations=2)


def small_jacobi():
    return _small_jacobi(iterations=2)


def test_profiler_validation():
    with pytest.raises(ProactError):
        Profiler(PLATFORM_4X_VOLTA, search="random")
    with pytest.raises(ProactError):
        Profiler(PLATFORM_4X_VOLTA, chunk_sizes=())


@pytest.mark.parametrize("axis, values", [
    ("chunk_sizes", (1 * MiB, 1 * MiB)),
    ("thread_counts", (2048, 1024, 2048)),
    ("mechanisms", (MECH_INLINE, MECH_POLLING, MECH_POLLING)),
])
def test_profiler_rejects_duplicate_grid_values(axis, values):
    # A repeated value used to be measured twice (exhaustive), break the
    # search's measure + prune == grid count, and key the sweep under a
    # signature no deduplicated grid matches.
    with pytest.raises(ProactError, match=f"duplicate {axis}"):
        Profiler(PLATFORM_4X_VOLTA, **{axis: values})


@pytest.mark.parametrize("call", [
    lambda s: s.profile(small_pagerank(), chunk_sizes=()),
    lambda s: s.profile(small_pagerank(), thread_counts=()),
    lambda s: s.profile(small_pagerank(), mechanisms=()),
], ids=["profile-chunks", "profile-threads", "profile-mechanisms"])
def test_session_rejects_empty_sweep_ranges(call):
    # An empty axis used to fall back silently to the full default grid.
    with pytest.raises(ProactError, match="non-empty sweep ranges"):
        call(Session(PLATFORM_4X_VOLTA))


def test_profile_result_requires_entries():
    from repro.core.profiler import ProfileResult
    with pytest.raises(ProactError):
        _ = ProfileResult(entries=[]).best


def test_coordinate_search_entry_count():
    profiler = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
                        thread_counts=SMALL_THREADS)
    profile = profiler.profile(small_pagerank().phase_builder())
    # inline: 1; per decoupled mechanism: |chunks| + |threads| - 1 = 3.
    assert len(profile.entries) == 1 + 2 * 3


def test_exhaustive_search_entry_count():
    profiler = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
                        thread_counts=SMALL_THREADS, search="exhaustive")
    profile = profiler.profile(small_pagerank().phase_builder())
    assert len(profile.entries) == 1 + 2 * (2 * 2)


def test_profiler_picks_decoupled_for_sporadic_writes():
    # Paper-scale PageRank (trimmed to 2 iterations): the sporadic write
    # order makes inline stores hopeless, so the profiler must pick a
    # decoupled mechanism (Table II).
    workload = PageRankWorkload(iterations=2)
    profiler = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
                        thread_counts=SMALL_THREADS)
    profile = profiler.profile(workload.phase_builder())
    assert profile.best_config.mechanism in (MECH_POLLING, MECH_CDP)


def test_profiler_picks_inline_for_dense_writes():
    profiler = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
                        thread_counts=SMALL_THREADS)
    profile = profiler.profile(small_jacobi().phase_builder())
    assert profile.best_config.mechanism == MECH_INLINE


def test_profiler_kepler_prefers_cdp_over_polling():
    profiler = Profiler(PLATFORM_4X_KEPLER, chunk_sizes=SMALL_CHUNKS,
                        thread_counts=(256, 1024))
    profile = profiler.profile(small_pagerank().phase_builder())
    cdp = profile.best_for_mechanism(MECH_CDP)
    polling = profile.best_for_mechanism(MECH_POLLING)
    assert cdp.runtime < polling.runtime


def test_best_for_mechanism_unknown_rejected():
    profiler = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
                        thread_counts=SMALL_THREADS)
    profile = profiler.profile(small_jacobi().phase_builder())
    with pytest.raises(ProactError):
        profile.best_for_mechanism("dma")


def test_best_breaks_ties_toward_smallest_config():
    # Ties on runtime must resolve to the smallest (chunk, threads)
    # independent of entry order, so coordinate and exhaustive search
    # (at any job count) agree on the winner.
    entries = [
        ProfileEntry(ProactConfig(MECH_POLLING, 1 * MiB, 4096), 2.0),
        ProfileEntry(ProactConfig(MECH_POLLING, 128 * KiB, 4096), 2.0),
        ProfileEntry(ProactConfig(MECH_POLLING, 128 * KiB, 1024), 2.0),
        ProfileEntry(ProactConfig(MECH_CDP, 4 * MiB, 512), 3.0),
    ]
    expected = ProactConfig(MECH_POLLING, 128 * KiB, 1024)
    assert ProfileResult(entries=entries).best.config == expected
    assert ProfileResult(entries=entries[::-1]).best.config == expected
    reversed_result = ProfileResult(entries=entries[::-1])
    assert reversed_result.best_for_mechanism(
        MECH_POLLING).config == expected


def test_coordinate_and_exhaustive_agree_on_best():
    kwargs = dict(chunk_sizes=SMALL_CHUNKS, thread_counts=SMALL_THREADS)
    builder = small_pagerank().phase_builder()
    coordinate = Profiler(PLATFORM_4X_VOLTA, **kwargs).profile(builder)
    exhaustive = Profiler(PLATFORM_4X_VOLTA, search="exhaustive",
                          **kwargs).profile(builder)
    assert coordinate.best_config == exhaustive.best_config


def test_parallel_profiler_matches_serial_exactly():
    # Each measurement is a pure function of (platform, config, phases),
    # so the process-pool sweep must be byte-identical to the serial one
    # — same entries, same runtimes, same order.
    builder = small_pagerank().phase_builder()
    for search in ("coordinate", "exhaustive"):
        serial = Profiler(
            PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
            thread_counts=SMALL_THREADS, search=search).profile(builder)
        parallel = Profiler(
            PLATFORM_4X_VOLTA, chunk_sizes=SMALL_CHUNKS,
            thread_counts=SMALL_THREADS, search=search,
            jobs=4).profile(builder)
        assert serial.entries == parallel.entries
        assert serial.best == parallel.best


def test_parallel_pruned_sweep_matches_serial_argmin():
    # The search sweep sizes its best-first waves by the job count;
    # the skip condition is still strict, so the
    # winner — config and bitwise runtime — must match brute force.
    builder = small_pagerank().phase_builder()
    kwargs = dict(chunk_sizes=SMALL_CHUNKS, thread_counts=SMALL_THREADS)
    brute = Profiler(PLATFORM_4X_VOLTA, search="exhaustive",
                     **kwargs).profile(builder)
    parallel = Profiler(PLATFORM_4X_VOLTA, search="search", jobs=2,
                        **kwargs).profile(builder)
    assert parallel.best.config == brute.best.config
    assert parallel.best.runtime == brute.best.runtime
    measured = {entry.config: entry.runtime for entry in brute.entries}
    for entry in parallel.entries:
        assert measured[entry.config] == entry.runtime
    assert (len(parallel.entries) + parallel.pruned_configs
            == len(brute.entries))


def _crash_on_three(task):
    # os._exit skips all cleanup — to the pool this is a worker that
    # vanished mid-task, exactly like an OOM kill or a segfault.
    if task == 3:
        os._exit(17)
    return task * 2


def test_dying_worker_surfaces_error_with_offending_tasks():
    # Regression: a worker death used to poison the pool and hang or
    # surface as a bare BrokenProcessPool with no hint of which config
    # was in flight.
    with SweepPool(_crash_on_three, jobs=2) as pool:
        with pytest.raises(ProactError) as raised:
            pool.map(list(range(8)))
    message = str(raised.value)
    assert re.search(r"worker process died.*3", message), message
    assert "unfinished batch" in message, message


def test_warm_session_maps_in_task_order():
    with SweepPool(_double, jobs=2) as pool:
        assert pool.map(list(range(20))) == [2 * i for i in range(20)]
        assert pool.map([]) == []
    with pytest.raises(ProactError, match="closed"):
        pool.map([1])


def _double(task):
    return task * 2


def test_process_pool_backend_validation():
    # Every sweep entry point rejects a job count below one up front.
    with pytest.raises(ProactError, match="job"):
        Profiler(PLATFORM_4X_VOLTA, jobs=0)
    with pytest.raises(ProactError, match="job"):
        SweepPool(_double, jobs=0)
    # jobs=1 runs in-process: even an unpicklable function works
    # because no pool is spawned.
    with SweepPool(lambda task: task + 1, jobs=1) as pool:
        assert pool.map([1, 2]) == [2, 3]
        assert pool.map([]) == []


def test_run_phases_deterministic():
    config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    builder = small_pagerank().phase_builder()
    first = run_phases(PLATFORM_4X_VOLTA, config, builder)
    second = run_phases(PLATFORM_4X_VOLTA, config, builder)
    assert first == second


def test_run_phases_infinite_bw_flag():
    config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    builder = small_pagerank().phase_builder()
    real = run_phases(PLATFORM_4X_VOLTA, config, builder)
    ideal = run_phases(PLATFORM_4X_VOLTA, config, builder,
                       infinite_bw=True)
    assert ideal < real


def test_run_phases_instrumentation_flag():
    # run_phases always instruments decoupled kernels, so its runtime
    # grows with the producer's CTA count by the tracking overhead.
    config = ProactConfig(MECH_POLLING, 1 * MiB, 2048)

    def runtime(num_ctas):
        return run_phases(PLATFORM_4X_VOLTA, config, lambda system: [
            one_producer_phase(system, region_bytes=4 * MiB,
                               num_ctas=num_ctas)])

    gpu = PLATFORM_4X_VOLTA.gpu
    overhead = (tracking_overhead(gpu, 100_000)
                - tracking_overhead(gpu, 50_000))
    assert runtime(100_000) - runtime(50_000) == pytest.approx(
        overhead, rel=0.05)
