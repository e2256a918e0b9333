"""Integration tests for the five communication paradigms."""

import pytest

from repro.core import MECH_CDP, MECH_INLINE, ProactConfig
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.paradigms import (
    BulkMemcpyParadigm,
    InfiniteBandwidthParadigm,
    ProactDecoupledParadigm,
    ProactInlineParadigm,
    UnifiedMemoryParadigm,
)
from repro.units import KiB, MiB
from tests.conftest import small_jacobi, small_pagerank


def run_all(workload, platform):
    return {
        "memcpy": BulkMemcpyParadigm().execute(workload, platform),
        "um": UnifiedMemoryParadigm().execute(workload, platform),
        "inline": ProactInlineParadigm().execute(workload, platform),
        "decoupled": ProactDecoupledParadigm().execute(workload, platform),
        "infinite": InfiniteBandwidthParadigm().execute(workload, platform),
    }


def test_infinite_bw_is_fastest_and_moves_no_wire_bytes():
    results = run_all(small_pagerank(), PLATFORM_4X_VOLTA)
    infinite = results.pop("infinite")
    assert infinite.wire_bytes == 0
    for name, result in results.items():
        assert infinite.runtime < result.runtime, name


def test_result_metadata():
    result = BulkMemcpyParadigm().execute(small_pagerank(),
                                          PLATFORM_4X_VOLTA)
    assert result.paradigm == "cudaMemcpy"
    assert result.platform == "4x_volta"
    assert result.workload == "Pagerank"
    assert len(result.phase_durations) == 3
    assert result.runtime == pytest.approx(sum(result.phase_durations),
                                           rel=0.05)


def test_memcpy_moves_full_duplication_volume():
    workload = small_pagerank()
    result = BulkMemcpyParadigm().execute(workload, PLATFORM_4X_VOLTA)
    vertices_per_gpu = 2_000_000 // 4
    # 2 communicating phases (last is stripped) x 4 GPUs x 3 peers.
    expected = vertices_per_gpu * 8 * 4 * 3 * 2
    assert result.bytes_moved == expected
    assert result.interconnect_efficiency > 0.85  # bulk DMA framing


def test_inline_wire_efficiency_reflects_locality():
    volta = PLATFORM_4X_VOLTA
    sporadic = ProactInlineParadigm().execute(small_pagerank(), volta)
    dense = ProactInlineParadigm().execute(small_jacobi(), volta)
    assert sporadic.interconnect_efficiency < 0.35
    assert dense.interconnect_efficiency > 0.6


def test_decoupled_always_transfers_efficiently():
    result = ProactDecoupledParadigm().execute(small_pagerank(),
                                               PLATFORM_4X_VOLTA)
    assert result.interconnect_efficiency > 0.8


def test_decoupled_rejects_inline_config():
    with pytest.raises(ValueError):
        ProactDecoupledParadigm(ProactConfig(MECH_INLINE, 64 * KiB, 256))


def test_decoupled_respects_explicit_config():
    config = ProactConfig(MECH_CDP, 1 * MiB, 512)
    paradigm = ProactDecoupledParadigm(config)
    assert paradigm.config is config
    result = paradigm.execute(small_pagerank(), PLATFORM_4X_VOLTA)
    assert result.runtime > 0


def test_um_fault_storms_hurt_sporadic_workloads():
    workload = small_pagerank()  # hint fraction 0.2: mostly faults
    volta = PLATFORM_4X_VOLTA
    um = UnifiedMemoryParadigm().execute(workload, volta)
    memcpy = BulkMemcpyParadigm().execute(workload, volta)
    assert um.runtime > 1.5 * memcpy.runtime
    assert um.details["pages_faulted"] > 0


def test_um_behaves_like_prefetch_for_hintable_workloads():
    workload = small_jacobi()  # hint fraction 0.9, touch fraction 0.3
    volta = PLATFORM_4X_VOLTA
    um = UnifiedMemoryParadigm().execute(workload, volta)
    memcpy = BulkMemcpyParadigm().execute(workload, volta)
    assert um.runtime < memcpy.runtime  # touch-only migration wins


def test_um_legacy_path_on_kepler():
    workload = small_jacobi()
    result = UnifiedMemoryParadigm().execute(workload, PLATFORM_4X_KEPLER)
    # Legacy mirroring never faults (no fault hardware before Pascal).
    assert result.details["pages_faulted"] == 0
    assert result.details["bytes_migrated"] > 0


def test_elide_transfers_paradigm_moves_nothing():
    result = ProactDecoupledParadigm(elide_transfers=True).execute(
        small_pagerank(), PLATFORM_4X_VOLTA)
    assert result.wire_bytes == 0
    assert result.runtime > 0


def test_exposed_transfer_time_recorded():
    result = ProactDecoupledParadigm().execute(small_pagerank(),
                                               PLATFORM_4X_VOLTA)
    assert "exposed_transfer_time" in result.details
    assert result.details["exposed_transfer_time"] >= 0.0


def test_proact_beats_memcpy_on_communication_bound_app():
    workload = small_pagerank()
    volta = PLATFORM_4X_VOLTA
    decoupled = ProactDecoupledParadigm().execute(workload, volta)
    memcpy = BulkMemcpyParadigm().execute(workload, volta)
    assert decoupled.runtime < memcpy.runtime


def test_proact_auto_profiles_then_runs():
    from repro.core import Profiler
    from repro.paradigms import ProactAutoParadigm
    from repro.units import KiB, MiB

    profiler = Profiler(PLATFORM_4X_VOLTA,
                        chunk_sizes=(128 * KiB, 1 * MiB),
                        thread_counts=(1024, 2048))
    paradigm = ProactAutoParadigm(profiler=profiler)
    workload = small_pagerank()
    result = paradigm.execute(workload, PLATFORM_4X_VOLTA)
    assert result.paradigm == "PROACT"
    assert paradigm.chosen_config is not None
    # Auto must do at least as well as the fixed default decoupled
    # config it had available in its search space.
    default = ProactDecoupledParadigm().execute(workload, PLATFORM_4X_VOLTA)
    assert result.runtime <= default.runtime * 1.05


def test_mean_link_utilization_reported():
    result = BulkMemcpyParadigm().execute(small_pagerank(),
                                          PLATFORM_4X_VOLTA)
    assert 0.0 < result.details["mean_link_utilization"] <= 1.0
    assert (result.details["peak_link_utilization"]
            >= result.details["mean_link_utilization"])


def test_proact_smooths_interconnect_utilization():
    """PROACT spreads transfers across the whole runtime; bulk copies
    burst after kernels, leaving links idle during compute."""
    workload = small_pagerank()
    bulk = BulkMemcpyParadigm().execute(workload, PLATFORM_4X_VOLTA)
    proact = ProactDecoupledParadigm().execute(workload, PLATFORM_4X_VOLTA)
    # Same bytes, but bulk crams them into a shorter window of a longer
    # runtime: its time-averaged utilization is lower.
    assert (proact.details["mean_link_utilization"]
            > bulk.details["mean_link_utilization"])
