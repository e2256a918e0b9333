"""Mechanism-toggle API and ablation harness tests.

Pins the contract of the first-class ablation surface: the typed
:class:`~repro.core.config.Mechanisms` switches, run-set generation
(baseline + N single flips, never a double flip), the all-on
configuration being byte-identical to the unablated paradigms, and
every single flip actually changing a simulated runtime.
"""

import dataclasses

import pytest

from repro.ablation import (
    BASELINE,
    AblationRun,
    framework_runtime,
    generate_runset,
    run_ablation,
)
from repro.core.config import DEFAULT_CONFIG, Mechanisms
from repro.core.profiler import Profiler
from repro.errors import ConfigurationError, ProactError
from repro.experiments.fig7_endtoend import decoupled_config_for
from repro.hw.platform import PLATFORM_4X_VOLTA
from repro.paradigms import ProactDecoupledParadigm, ProactInlineParadigm
from repro.workloads import PageRankWorkload, XrayCtWorkload

PLATFORM = PLATFORM_4X_VOLTA


# ----------------------------------------------------------------------
# Mechanisms: the typed switch surface
# ----------------------------------------------------------------------
def test_component_names_and_defaults():
    names = Mechanisms.component_names()
    assert names == ("write_coalescing", "decoupled_agent",
                     "readiness_tracking", "fluid_contention",
                     "packet_overhead", "profiler_pruning")
    default = Mechanisms()
    assert default.all_enabled
    assert default.ablated == ()


def test_ablate_and_flip():
    ablated = Mechanisms.ablate("write_coalescing", "packet_overhead")
    assert ablated.ablated == ("write_coalescing", "packet_overhead")
    assert not ablated.write_coalescing
    assert ablated.decoupled_agent
    # flip() toggles: off -> on restores the default.
    assert ablated.flip("write_coalescing").ablated == ("packet_overhead",)
    assert Mechanisms().flip("fluid_contention") == (
        Mechanisms.ablate("fluid_contention"))


def test_unknown_component_rejected():
    with pytest.raises(ConfigurationError, match="unknown mechanism"):
        Mechanisms.ablate("warp_specialization")
    with pytest.raises(ConfigurationError, match="unknown mechanism"):
        Mechanisms().flip("nope")


def test_mechanisms_is_frozen_and_hashable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        Mechanisms().write_coalescing = False
    assert Mechanisms() in {Mechanisms()}


# ----------------------------------------------------------------------
# Run-set generation
# ----------------------------------------------------------------------
def test_runset_is_baseline_plus_single_flips():
    runs = generate_runset()
    names = Mechanisms.component_names()
    assert len(runs) == 1 + len(names)
    assert runs[0].is_baseline
    assert runs[0].mechanisms.all_enabled
    assert runs[0].label() == BASELINE
    for run, component in zip(runs[1:], names):
        assert run.component == component
        # Exactly one switch off, and it is this run's component.
        assert run.mechanisms.ablated == (component,)
        assert run.label() == f"-{component}"
    # No two runs flip the same switch.
    flipped = [run.component for run in runs[1:]]
    assert len(set(flipped)) == len(flipped)


def test_runset_restricted_and_ordered():
    runs = generate_runset(["packet_overhead", "decoupled_agent"])
    assert [run.component for run in runs] == [
        BASELINE, "packet_overhead", "decoupled_agent"]


def test_runset_rejects_duplicates_and_unknowns():
    with pytest.raises(ConfigurationError, match="duplicate"):
        generate_runset(["write_coalescing", "write_coalescing"])
    with pytest.raises(ConfigurationError, match="unknown mechanism"):
        generate_runset(["write_coalescing", "nope"])


# ----------------------------------------------------------------------
# All-on is byte-identical to the unablated paradigms
# ----------------------------------------------------------------------
def test_all_on_byte_identical_to_unablated():
    workload = PageRankWorkload()
    config = decoupled_config_for(PLATFORM)
    unablated = ProactDecoupledParadigm(config).execute(
        workload, PLATFORM).runtime
    all_on = ProactDecoupledParadigm(
        config, mechanisms=Mechanisms()).execute(workload, PLATFORM).runtime
    assert all_on == unablated  # exact float equality, not approx

    inline_unablated = ProactInlineParadigm().execute(
        workload, PLATFORM).runtime
    inline_all_on = ProactInlineParadigm(mechanisms=Mechanisms()).execute(
        workload, PLATFORM).runtime
    assert inline_all_on == inline_unablated


def test_every_single_flip_changes_runtime():
    """Each switch is load-bearing: flipping it moves the simulated
    time of at least one workload."""
    workloads = [XrayCtWorkload(), PageRankWorkload()]
    baselines = {w.name: framework_runtime(w, PLATFORM, Mechanisms())
                 for w in workloads}
    for run in generate_runset():
        if run.is_baseline:
            continue
        changed = any(
            framework_runtime(w, PLATFORM, run.mechanisms)
            != baselines[w.name]
            for w in workloads)
        assert changed, (
            f"ablating {run.component} left every workload's runtime "
            "unchanged")


# ----------------------------------------------------------------------
# Ablated-mechanism semantics at the executor/profiler layer
# ----------------------------------------------------------------------
def test_decoupled_paradigm_rejects_ablated_agent():
    paradigm = ProactDecoupledParadigm(
        DEFAULT_CONFIG, mechanisms=Mechanisms.ablate("decoupled_agent"))
    with pytest.raises(ConfigurationError, match="decoupled_agent"):
        paradigm.execute(PageRankWorkload(), PLATFORM)


def test_inline_paradigm_tolerates_ablated_agent():
    result = ProactInlineParadigm(
        mechanisms=Mechanisms.ablate("decoupled_agent")).execute(
        PageRankWorkload(), PLATFORM)
    assert result.runtime > 0


def test_profiler_toggles_collapse_sweep_to_inline():
    profiler = Profiler(PLATFORM,
                        toggles=Mechanisms.ablate("decoupled_agent"))
    assert profiler.mechanisms == ("inline",)


def test_profiler_rejects_empty_sweep_space():
    with pytest.raises(ProactError, match="inline"):
        Profiler(PLATFORM, mechanisms=("polling", "cdp"),
                 toggles=Mechanisms.ablate("decoupled_agent"))


# ----------------------------------------------------------------------
# The ablation report
# ----------------------------------------------------------------------
def test_run_ablation_report_shape():
    report = run_ablation(
        PLATFORM, workloads=[PageRankWorkload()],
        components=["write_coalescing", "fluid_contention"])
    assert report.platform == PLATFORM.name
    assert report.workloads == ("Pagerank",)
    assert report.baseline_runtimes["Pagerank"] > 0
    assert {entry.component for entry in report.components} == {
        "write_coalescing", "fluid_contention"}
    # Removing write coalescing hurts; removing the contention model
    # (a modelled cost) flatters the runtime.
    assert report.component("write_coalescing").importance > 0
    assert report.component("fluid_contention").importance < 0
    assert report.rank_of("write_coalescing") == 1
    assert report.rank_of("fluid_contention") == 2
    rendered = report.table().render()
    assert "write_coalescing" in rendered
    assert "geomean" in rendered
    with pytest.raises(ConfigurationError, match="not in this report"):
        report.rank_of("decoupled_agent")


def test_run_ablation_accepts_platform_name():
    report = run_ablation(
        PLATFORM.name, workloads=[PageRankWorkload()],
        components=["packet_overhead"])
    assert report.platform == PLATFORM.name


def test_run_ablation_requires_one_baseline():
    runs = [AblationRun("write_coalescing",
                        Mechanisms.ablate("write_coalescing"))]
    with pytest.raises(ConfigurationError, match="baseline"):
        run_ablation(PLATFORM, workloads=[PageRankWorkload()], runs=runs)
