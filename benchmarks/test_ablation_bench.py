"""Benchmark: the mechanism-ablation harness end to end.

Runs the full baseline + single-flip run set across the paper's five
applications on 4x Volta, persisting the ranked importance table and a
``BENCH_ablation.json`` summary, which CI loads and prints.

Two gates ride on the numbers, both enforced in-test:

* the all-switches-on run must be *byte-identical* to the unablated
  paradigm — threading the default :class:`~repro.core.config.Mechanisms`
  through a simulation may not change a single float;
* Table II consistency: the decoupled agent and its write coalescing
  rank as the top two components with positive importance, matching
  the paper's mechanism-selection story.
"""

import json
import time

from repro.ablation import generate_runset, run_ablation
from repro.core.config import Mechanisms
from repro.experiments.fig7_endtoend import decoupled_config_for
from repro.hw.platform import PLATFORM_4X_VOLTA
from repro.paradigms import ProactDecoupledParadigm
from repro.workloads import PageRankWorkload, default_workloads

PLATFORM = PLATFORM_4X_VOLTA


def test_ablation_harness(results_dir, save_tables):
    workloads = default_workloads()
    runs = generate_runset()

    started = time.perf_counter()
    report = run_ablation(PLATFORM, workloads=workloads, runs=runs)
    elapsed = time.perf_counter() - started

    # Byte-identity gate on the registry experiment's own check.
    workload = PageRankWorkload()
    config = decoupled_config_for(PLATFORM)
    unablated = ProactDecoupledParadigm(config).execute(
        workload, PLATFORM).runtime
    all_on = ProactDecoupledParadigm(
        config, mechanisms=Mechanisms()).execute(workload, PLATFORM).runtime
    identical = unablated == all_on

    datapoint = {
        "benchmark": "ablation",
        "platform": PLATFORM.name,
        "workloads": len(workloads),
        "ablation_runs": len(runs),
        "ablation_s": round(elapsed, 2),
        "all_on_identical": identical,
        "decoupled_agent_rank": report.rank_of("decoupled_agent"),
        "write_coalescing_rank": report.rank_of("write_coalescing"),
    }
    for entry in report.components:
        datapoint[f"{entry.component}_importance"] = round(
            entry.importance, 4)

    save_tables("ablation", report.table())
    path = results_dir / "BENCH_ablation.json"
    path.write_text(json.dumps(datapoint, indent=2, sort_keys=True) + "\n")

    assert identical, (
        "all-switches-on diverged from the unablated paradigm: "
        f"{all_on} != {unablated}")
    assert report.rank_of("decoupled_agent") <= 2
    assert report.rank_of("write_coalescing") <= 2
    assert report.component("decoupled_agent").importance > 0
    assert report.component("write_coalescing").importance > 0
    # The modelled costs sit at the bottom with negative importance.
    assert report.component("fluid_contention").importance < 0
    assert report.component("packet_overhead").importance < 0
