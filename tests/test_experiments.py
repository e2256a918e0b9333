"""Tests for the experiment harnesses (fast, reduced-size runs)."""

import pytest

from repro.core import MECH_CDP, MECH_POLLING
from repro.experiments import (
    fig2_goodput,
    fig4_profile,
    fig6_micro,
    fig7_endtoend,
    fig10_scaling,
    table1_systems,
    table2_configs,
)
from repro.experiments.report import TextTable, geometric_mean
from repro.hw import PLATFORM_4X_VOLTA, PLATFORM_16X_VOLTA
from repro.units import KiB, MiB
from repro.workloads import JacobiWorkload, PageRankWorkload


def small_workloads():
    return [
        PageRankWorkload(num_vertices=4_000_000, num_edges=120_000_000,
                         iterations=2),
        JacobiWorkload(num_unknowns=4_000_000, bandwidth=30, iterations=2),
    ]


# ---------------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------------

def test_text_table_renders():
    table = TextTable("Demo", ["name", "value"])
    table.add_row("alpha", 1.25)
    table.add_row("beta", 0.5)
    rendered = table.render()
    assert "Demo" in rendered
    assert "alpha" in rendered
    assert "1.25" in rendered


def test_text_table_rejects_wrong_width():
    table = TextTable("Demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([3.0]) == 3.0
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------

def test_fig2_runs_and_anchors():
    result = fig2_goodput.run()
    anchors = result.anchor_points()
    assert anchors["PCIe"] == pytest.approx(0.143, abs=0.01)
    assert anchors["NVLink"] == pytest.approx(0.083, abs=0.01)
    assert "Figure 2" in str(result.table())


# ---------------------------------------------------------------------------
# Figure 4 (tiny sweep)
# ---------------------------------------------------------------------------

def test_fig4_profile_surface_small():
    result = fig4_profile.run(
        threads=(32, 512), sizes=(64 * KiB, 4 * MiB),
        data_bytes=8 * MiB)
    assert max(result.throughput.values()) == pytest.approx(1.0)
    best_threads, _best_size = result.best_cell()
    assert best_threads == 512  # 32 threads starve PCIe


# ---------------------------------------------------------------------------
# Figure 6 (single platform, tiny data)
# ---------------------------------------------------------------------------

def test_fig6_micro_small():
    from repro.hw import PLATFORM_4X_PASCAL
    result = fig6_micro.run(
        platforms=[PLATFORM_4X_PASCAL],
        granularities=(16 * KiB, 1 * MiB, 16 * MiB),
        data_bytes=16 * MiB)
    regions = result.regions("4x_pascal", MECH_CDP)
    assert regions["peak"] > 1.2
    assert regions["initiation"] < regions["peak"]
    polling_peak = result.peak("4x_pascal", MECH_POLLING)
    assert polling_peak > 1.2


# ---------------------------------------------------------------------------
# Figure 7 (one platform, two reduced apps)
# ---------------------------------------------------------------------------

def test_fig7_small():
    result = fig7_endtoend.run(platforms=[PLATFORM_4X_VOLTA],
                               workloads=small_workloads())
    table = result.table("4x_volta")
    assert "geomean" in str(table)
    for workload in result.workloads:
        infinite = result.speedups[("4x_volta", workload, "Infinite BW")]
        for paradigm in fig7_endtoend.PARADIGM_ORDER:
            speedup = result.speedups[("4x_volta", workload, paradigm)]
            assert 0 < speedup <= infinite + 1e-9
    assert result.proact_geomean("4x_volta") > result.geomean(
        "4x_volta", "cudaMemcpy")


# ---------------------------------------------------------------------------
# Figure 10 (tiny sweep)
# ---------------------------------------------------------------------------

def test_fig10_small():
    result = fig10_scaling.run(
        sweeps=[(PLATFORM_16X_VOLTA, (1, 4, 8))],
        workloads=small_workloads())
    assert result.at("16x_volta", 1, "PROACT") == pytest.approx(1.0)
    assert (result.at("16x_volta", 8, "PROACT")
            > result.at("16x_volta", 4, "PROACT"))
    assert result.proact_advantage("16x_volta", 8) > 1.0
    assert 0 < result.capture("16x_volta", 8) <= 1.0


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_table1_contents():
    result = table1_systems.run()
    rendered = str(result.table())
    assert "Tesla K40m" in rendered
    assert "NVSwitch" in rendered
    assert "16" in rendered


def test_table2_small():
    result = table2_configs.run(
        platforms=[PLATFORM_4X_VOLTA],
        workloads=small_workloads(),
        chunk_sizes=(1 * MiB,),
        thread_counts=(2048,))
    assert result.mechanism("4x_volta", "Pagerank") in ("Poll", "CDP")
    assert result.mechanism("4x_volta", "Jacobi") == "I"
    assert result.runtimes[("4x_volta", "Pagerank")] > 0


def test_fig1_paradigms_small():
    from repro.experiments import fig1_paradigms
    from repro.units import MiB
    result = fig1_paradigms.run(data_bytes=16 * MiB)
    assert set(result.runtimes) == set(fig1_paradigms.FIGURE1_ORDER)
    assert result.runtimes["PROACT-decoupled"] < result.runtimes["cudaMemcpy"]
    assert "Figure 1" in str(result.table())


def test_ablation_granularity_small():
    from repro.experiments import ablations
    from repro.units import KiB, MiB
    result = ablations.run_granularity_ablation(
        workload=PageRankWorkload(num_vertices=4_000_000,
                                  num_edges=120_000_000, iterations=2),
        chunk_sizes=(16 * KiB, 1 * MiB, 16 * MiB))
    assert len(result.runtimes) == 3
    assert result.best_chunk() in (16 * KiB, 1 * MiB, 16 * MiB)


def test_timeline_rendering():
    from repro.core import MECH_POLLING, GpuPhaseWork, ProactConfig
    from repro.core.runtime import ProactPhaseExecutor
    from repro.experiments.timeline import render_phase_timeline
    from repro.runtime import KernelSpec, System

    system = System(PLATFORM_4X_VOLTA)
    gpu = system.gpus[0]
    executor = ProactPhaseExecutor(
        system, ProactConfig(MECH_POLLING, 512 * KiB, 2048))
    works = [GpuPhaseWork(
        kernel=KernelSpec("k", gpu.spec.flops * 1e-3, 0, 4000),
        region_bytes=8 * MiB) for _ in range(4)]
    result = system.run(until=executor.execute(works))
    rendered = render_phase_timeline(result, width=40)
    lines = rendered.splitlines()
    assert len(lines) == 5  # header + 4 GPUs
    assert all("|" in line for line in lines[1:])
    assert "#" in rendered
    with pytest.raises(ValueError):
        render_phase_timeline(result, width=4)


def test_timeline_empty_phase():
    from repro.core.runtime import PhaseResult
    from repro.experiments.timeline import render_phase_timeline
    assert render_phase_timeline(
        PhaseResult(start=1.0, end=1.0)) == "(empty phase)"


def test_timeline_marks_truncated_events():
    from repro.core.runtime import GpuPhaseOutcome, PhaseResult
    from repro.experiments.timeline import (
        TimelineTruncationError,
        render_phase_timeline,
    )

    result = PhaseResult(start=1.0, end=2.0, outcomes=[
        GpuPhaseOutcome(gpu_id=0, kernel_start=1.0, kernel_end=1.5,
                        transfers_end=2.5),  # drains past the window
        GpuPhaseOutcome(gpu_id=1, kernel_start=1.0, kernel_end=1.8,
                        transfers_end=1.8),
    ])
    rendered = render_phase_timeline(result, width=20)
    lines = rendered.splitlines()
    assert "truncated" in lines[0]       # header calls it out
    assert lines[1].endswith("|!")       # the clipped strip is marked
    assert not lines[2].endswith("!")    # in-window strips are not
    with pytest.raises(TimelineTruncationError):
        render_phase_timeline(result, width=20, strict=True)

    clean = PhaseResult(start=1.0, end=2.0, outcomes=[
        GpuPhaseOutcome(gpu_id=0, kernel_start=1.0, kernel_end=1.5,
                        transfers_end=2.0)])
    assert "truncated" not in render_phase_timeline(clean, strict=True)


def test_sensitivity_small():
    from repro.experiments import sensitivity
    result = sensitivity.run(
        workloads=small_workloads(),
        perturbations=[("baseline", "", 1.0),
                       ("tracking x2", "atomic_track_cost", 2.0)])
    assert len(result.rows) == 2
    assert result.rows[0].conclusions_hold
    assert "Sensitivity" in str(result.table())


def test_utilization_timeline_mechanics():
    from repro.experiments.utilization import (
        active_window_fraction,
        coefficient_of_variation,
        link_utilization_timeline,
    )
    from repro.interconnect import NVLINK_FORMAT, Link
    from repro.sim import Engine

    link = Link(Engine(), "l", 1e9, NVLINK_FORMAT)
    link.busy.add(0.0, 1.0)
    link.busy.add(3.0, 4.0)
    series = link_utilization_timeline(link, end_time=4.0, buckets=4)
    assert series == [1.0, 0.0, 0.0, 1.0]
    assert active_window_fraction(series) == 1.0
    assert active_window_fraction([0, 0, 1, 0]) == 0.25
    assert active_window_fraction([0, 0, 0, 0]) == 0.0
    assert coefficient_of_variation([1.0, 1.0]) == 0.0
    assert coefficient_of_variation([]) == 0.0
    with pytest.raises(ValueError):
        link_utilization_timeline(link, end_time=4.0, buckets=0)


def test_utilization_run_small():
    from repro.experiments import utilization
    from repro.workloads import MicroBenchmark
    result = utilization.run(
        workload=MicroBenchmark(data_bytes=8 * MiB), buckets=16)
    assert set(result.timelines) == {"cudaMemcpy", "PROACT-decoupled"}
    assert all(len(s) == 16 for s in result.timelines.values())
    assert "utilization" in str(result.table())


def test_utilization_runs_audit_conservation_under_validation(monkeypatch):
    # The utilization harness drives its own systems; under --validate
    # they must get the same end-of-run audit as every other run.
    from repro.experiments.utilization import _run_with_fabric
    from repro.paradigms import BulkMemcpyParadigm
    from repro.validate import ConservationChecker, validation
    from repro.workloads import MicroBenchmark

    audits = []
    check = ConservationChecker.check

    def counting_check(self, now):
        audits.append(now)
        check(self, now)

    monkeypatch.setattr(ConservationChecker, "check", counting_check)
    with validation():
        _, runtime, _ = _run_with_fabric(
            BulkMemcpyParadigm(), MicroBenchmark(data_bytes=8 * MiB),
            PLATFORM_4X_VOLTA, buckets=4)
    assert audits == [runtime]
