"""Property tests: the search autotuner returns the exhaustive argmin.

``Profiler(search="search")`` certifies its winner against the
infinite-bandwidth floors, so on any grid small enough to also brute
force, its chosen configuration — and the bitwise runtime — must equal
the exhaustive sweep's, for random platforms, grids, and workloads.  The
analytic bound that decides which floors run must never exceed a floor.
The randomized shapes come from :mod:`tests.strategies`.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import (
    ALL_MECHANISMS_WITH_HW,
    MECH_INLINE,
    Mechanisms,
    ProactConfig,
    Profiler,
)
from repro.core.profiler import _floor_bounds, run_phases
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from repro.workloads import (
    AlsWorkload,
    JacobiWorkload,
    SsspWorkload,
    XrayCtWorkload,
)
from tests.conftest import small_jacobi, small_pagerank
from tests.strategies import platforms

GRIDS = (
    ((128 * KiB, 1 * MiB), (1024, 4096)),
    ((64 * KiB, 512 * KiB, 4 * MiB), (512, 2048)),
    ((256 * KiB, 4 * MiB), (2048, 8192)),
)

WORKLOADS = (
    lambda: small_pagerank(iterations=2),
    lambda: small_jacobi(iterations=2),
)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(platform=platforms(min_gpus=2, max_gpus=4),
       grid=st.sampled_from(GRIDS),
       make_workload=st.sampled_from(WORKLOADS))
# A fixed Volta PageRank case checked on every run, whatever hypothesis
# draws.  The tie-break order itself is unit-tested in test_profiler.py
# (test_best_breaks_ties_toward_smallest_config).
@example(platform=PLATFORM_4X_VOLTA, grid=GRIDS[0],
         make_workload=WORKLOADS[0])
def test_search_returns_exhaustive_argmin(platform, grid, make_workload):
    """Search argmin == brute-force argmin, config and bitwise runtime."""
    chunks, threads = grid
    builder = make_workload().phase_builder()
    brute = Profiler(platform, chunk_sizes=chunks, thread_counts=threads,
                     search="exhaustive").profile(builder)
    searched = Profiler(platform, chunk_sizes=chunks, thread_counts=threads,
                        search="search").profile(builder)

    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime  # bitwise

    # Every configuration the search did measure agrees bitwise with
    # brute force, and the bookkeeping covers the whole grid.
    brute_by_config = {e.config: e.runtime for e in brute.entries}
    for entry in searched.entries:
        assert brute_by_config[entry.config] == entry.runtime
    assert (len(searched.entries) + searched.pruned_configs
            == len(brute.entries))
    # The analytic bound spares some floor runs, never adds any.
    assert searched.floor_runs <= len(brute.entries)


@pytest.mark.parametrize("make_workload", WORKLOADS,
                         ids=["pagerank", "jacobi"])
def test_serial_search_measures_exactly_the_contending_floors(
        make_workload):
    """Serially, best-first measures exactly {c : floor(c) <= best
    runtime}: every such candidate must be measured by any floor-pruned
    search, and nothing else is."""
    kwargs = dict(chunk_sizes=(16 * KiB, 128 * KiB, 1 * MiB, 16 * MiB),
                  thread_counts=(2048,))
    builder = make_workload().phase_builder()
    brute = Profiler(PLATFORM_4X_VOLTA, search="exhaustive",
                     **kwargs).profile(builder)
    searched = Profiler(PLATFORM_4X_VOLTA, search="search",
                        **kwargs).profile(builder)
    contending = {
        entry.config for entry in brute.entries
        if run_phases(PLATFORM_4X_VOLTA, entry.config, builder,
                      infinite_bw=True) <= brute.best.runtime}
    assert {entry.config for entry in searched.entries} == contending
    assert searched.pruned_configs == len(brute.entries) - len(contending)


def test_parallel_search_picks_identical_argmin():
    """A warm-worker sweep may measure a different entry set, but
    the certified winner (config and bitwise runtime) must not move."""
    chunks, threads = (64 * KiB, 512 * KiB, 4 * MiB), (512, 2048)
    builder = small_pagerank(iterations=2).phase_builder()
    serial = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                      thread_counts=threads,
                      search="search").profile(builder)
    parallel = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                        thread_counts=threads, search="search",
                        jobs=2).profile(builder)
    assert parallel.best.config == serial.best.config
    assert parallel.best.runtime == serial.best.runtime


def test_session_profile_strategy_search():
    """``Session.profile(strategy="search")`` routes to the autotuner
    and agrees with the exhaustive session sweep."""
    session = Session("4x_volta")
    kwargs = dict(chunk_sizes=(128 * KiB, 1 * MiB),
                  thread_counts=(1024, 4096))
    brute = session.profile(small_pagerank(iterations=2),
                            strategy="exhaustive", **kwargs)
    searched = session.profile(small_pagerank(iterations=2),
                               strategy="search", **kwargs)
    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime
    assert searched.pruned_configs >= 0


@pytest.mark.slow
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(platform=platforms(min_gpus=2, max_gpus=4),
       grid=st.sampled_from(GRIDS),
       make_workload=st.sampled_from(WORKLOADS))
def test_search_argmin_exhaustive_slow(platform, grid, make_workload):
    """Nightly-depth version of the argmin property (more examples)."""
    chunks, threads = grid
    builder = make_workload().phase_builder()
    brute = Profiler(platform, chunk_sizes=chunks, thread_counts=threads,
                     search="exhaustive").profile(builder)
    searched = Profiler(platform, chunk_sizes=chunks, thread_counts=threads,
                        search="search").profile(builder)
    assert searched.best.config == brute.best.config
    assert searched.best.runtime == brute.best.runtime


#: Small instances of the five paper applications.
PAPER_APPS = (
    lambda: small_pagerank(iterations=2),
    lambda: small_jacobi(iterations=2),
    lambda: XrayCtWorkload(image_side=512, num_views=90, iterations=2),
    lambda: SsspWorkload(num_vertices=200_000, num_edges=4_000_000,
                         iterations=2),
    lambda: AlsWorkload(num_users=50_000, num_items=50_000,
                        num_ratings=5_000_000, iterations=2),
)

#: Everything on, then each switch the bound's formulas read turned off.
TOGGLES = (None, Mechanisms.ablate("readiness_tracking"),
           Mechanisms.ablate("fluid_contention"),
           Mechanisms.ablate("write_coalescing"))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(platform=platforms(min_gpus=2, max_gpus=4),
       make_workload=st.sampled_from(PAPER_APPS),
       toggles=st.sampled_from(TOGGLES))
# Kepler's polling demand caps at the whole GPU (slowdown 2).
@example(platform=PLATFORM_4X_KEPLER, make_workload=PAPER_APPS[0],
         toggles=None)
def test_bound_never_exceeds_the_floor(platform, make_workload, toggles):
    """Every grid config's analytic bound is at most its simulated
    infinite-bandwidth floor, for every mechanism and ablation."""
    profiler = Profiler(platform, chunk_sizes=(16 * KiB, 1 * MiB),
                        thread_counts=(256, 4096),
                        mechanisms=ALL_MECHANISMS_WITH_HW, toggles=toggles)
    builder = make_workload().phase_builder()
    configs = profiler._full_grid()
    bounds = _floor_bounds(platform, builder, configs, toggles)
    for config in configs:
        floor = run_phases(platform, config, builder, infinite_bw=True,
                           toggles=toggles)
        assert 0.0 < bounds[config] <= floor, config.label()


@pytest.mark.parametrize("make_workload, runtime, floor_runs", [
    (lambda: XrayCtWorkload(num_views=720), 0.010544356904347844, 1),
    (lambda: JacobiWorkload(num_unknowns=8_000_000),
     0.017090231060869446, 3),
], ids=["xray_ct", "jacobi"])
def test_serial_search_pin_on_the_autotune_grid(make_workload, runtime,
                                                floor_runs):
    """The search benchmark's sub-grid on 4x Volta: serial search
    returns the entries an all-floors search returned, bitwise, while
    running only the floors the analytic bound could not rule out."""
    result = Profiler(
        PLATFORM_4X_VOLTA, chunk_sizes=(16 * KiB, 128 * KiB, 1 * MiB,
                                        16 * MiB),
        thread_counts=(2048,), search="search",
    ).profile(make_workload().phase_builder())
    assert [(entry.config, entry.runtime) for entry in result.entries] == [
        (ProactConfig(MECH_INLINE, 16 * KiB, 2048), runtime)]
    assert result.floor_runs == floor_runs
    assert result.pruned_configs == 8
