"""The paper's claims, asserted against the committed golden snapshot.

Each claim is a function of a snapshot dict shaped like
``tests/data/golden_quick.json``: it reads the quick suite's rendered
table cells and scalars and asserts what the paper reports, with the
paper's value beside the bound it is held to.  Nothing here simulates.
``tests/test_golden.py --check`` ties the snapshot to the code, so a
claim can only move through a ``--regen``, and this module then checks
the regenerated snapshot.

Where the model misses the paper, the measured value is pinned as a
deviation, with the paper's value in the message, so it cannot drift
silently.  To see the tables a claim reads, run the experiment::

    PYTHONPATH=src python -m repro.experiments.runner --quick --only fig7
"""

import copy
import pathlib

import pytest

from repro.experiments.registry import REGISTRY
from repro.experiments.report import geometric_mean
from repro.units import KiB, MiB
from tests.test_golden import _cells, _number, load_golden

PLATFORMS = ("4x_kepler", "4x_pascal", "4x_volta")
#: Sporadic-write applications (the decoupled agent's territory).
SPORADIC = ("Pagerank", "SSSP", "ALS")
#: Dense, address-ordered writers (inline stores' territory).
DENSE = ("X-ray CT", "Jacobi")


def _lines(snapshot, name, title):
    """The lines of ``name``'s table whose title starts with ``title``."""
    for lines in snapshot[name]["tables"]:
        if lines[0].startswith(title):
            return lines
    raise KeyError(f"{name} has no table titled {title!r}")


def _table(snapshot, name, title):
    """A table as ``{row label: {column: cell}}``."""
    lines = _lines(snapshot, name, title)
    header = _cells(lines[1])
    return {cells[0]: dict(zip(header, cells))
            for cells in map(_cells, lines[3:])}


def _value(cell):
    """A numeric cell as a float; ``89%`` reads as 0.89."""
    number, unit = _number(cell)
    return number / 100 if unit == "%" else number


def _mechanism(label):
    """``I`` for inline, else the decoupled mechanism (``Poll``/``CDP``)."""
    return "I" if label == "I" else label.split()[-1]


# ---------------------------------------------------------------------------
# The paper's figures and tables
# ---------------------------------------------------------------------------

def table1(golden):
    lines = _lines(golden, "table1", "Table I")
    assert list(_table(golden, "table1", "Table I")) == [
        "4x_kepler", "4x_pascal", "4x_volta", "16x_volta"]
    rendered = "\n".join(lines)
    for fragment in ("Tesla K40m", "Tesla P100", "Tesla V100",
                     "PCIe3", "NVLink", "NVSwitch"):
        assert fragment in rendered, fragment


def fig1(golden):
    rows = _table(golden, "fig1", "Figure 1")
    time = {name: _value(row["time (ms)"]) for name, row in rows.items()}
    wire = {name: _value(row["wire efficiency"])
            for name, row in rows.items()}
    # Figure 1's story: bulk DMA exposes the whole transfer; fine-grained
    # paradigms overlap it; PROACT overlaps it *and* keeps the wire
    # efficient, so it is the fastest.
    assert time["PROACT-decoupled"] < time["cudaMemcpy"]
    assert time["P2P-loads"] < time["cudaMemcpy"]
    assert time["PROACT-decoupled"] <= time["PROACT-inline"]
    assert time["PROACT-decoupled"] <= time["P2P-loads"]
    # Wire-efficiency ordering: bulk/decoupled are packed; remote loads
    # move 32 B sectors; sporadic inline stores are worst.
    assert wire["cudaMemcpy"] > 0.85
    assert wire["PROACT-decoupled"] > 0.85
    assert 0.3 < wire["P2P-loads"] < 0.7
    assert wire["PROACT-inline"] < 0.3


def fig2(golden):
    scalars = golden["fig2"]["scalars"]
    # Paper: 4-byte stores reach ~14 % goodput on PCIe, ~8 % on NVLink.
    assert scalars["goodput_4B_pcie"] == pytest.approx(0.14, abs=0.02)
    assert scalars["goodput_4B_nvlink"] == pytest.approx(0.08, abs=0.02)
    # Paper: both interconnects become efficient at >= 128 bytes.
    assert scalars["saturation_bytes_pcie"] == 128
    assert scalars["saturation_bytes_nvlink"] == 128
    # Curves are monotone non-decreasing across the sweep.
    assert scalars["goodput_min_step"] >= -1e-9


def _fig4_surface(golden):
    """Fig 4's relative throughput as ``{threads: {size in bytes: value}}``."""
    surface = {}
    for label, row in _table(golden, "fig4", "Figure 4").items():
        surface[int(label)] = {
            int(column[:-2]) * (KiB if column.endswith("kB") else MiB):
                _value(cell)
            for column, cell in row.items() if column != "threads"}
    return surface


def fig4(golden):
    surface = _fig4_surface(golden)
    scalars = golden["fig4"]["scalars"]
    best_threads = int(scalars["best_threads"])
    best_size = int(scalars["best_size"])
    # Paper: >= 128 threads are needed to saturate the interconnect.
    assert best_threads >= 128
    # Starving the agent (32 threads) must hurt at every granularity.
    for size, value in surface[32].items():
        assert value < surface[best_threads][size], size
    # Beyond saturation, adding threads stops helping (within 10 %).
    assert surface[2048][best_size] <= surface[512][best_size] * 1.10


def fig4_deviations(golden):
    """Fig 4's best granularity, pinned below the paper's band."""
    best_size = int(golden["fig4"]["scalars"]["best_size"])
    assert best_size == 4 * KiB, (
        "Fig 4 best granularity: paper 16 KiB - 4 MiB, pinned deviation "
        f"4 KiB (the quick grid is flat from 4 kB to 64 kB), now "
        f"{best_size} B")


def fig6(golden):
    # (platform, mechanism) -> speedup per granularity, smallest first.
    speedup = {}
    for platform in PLATFORMS:
        rows = _table(golden, "fig6", "Figure 6: microbenchmark speedup "
                      f"vs cudaMemcpy ({platform})")
        for mechanism in ("CDP", "Polling"):
            speedup[platform, mechanism] = {
                size: _value(row[mechanism]) for size, row in rows.items()}

    def peak(platform, mechanism):
        return max(speedup[platform, mechanism].values())

    for platform in PLATFORMS:
        cdp = list(speedup[platform, "CDP"].values())
        # The three regions of the paper's Figure 6: initiation-bound at
        # tiny chunks, a bandwidth-bound peak, and tail-bound decline.
        assert cdp[0] < max(cdp), platform
        assert cdp[-1] < max(cdp), platform
        # In the bandwidth-bound region, proactive transfers beat
        # cudaMemcpy by up to ~2x (ideal overlap bound).
        assert 1.3 < max(cdp) < 2.0, platform

    # Kepler: polling substantially underperforms both cudaMemcpy and
    # CDP due to wasted poll-loop resources (Section V-A).
    assert peak("4x_kepler", "Polling") < 1.0
    assert peak("4x_kepler", "Polling") < peak("4x_kepler", "CDP")

    # Pascal and Volta: polling is competitive at (nearly) all
    # granularities, with a peak comparable to or above CDP's.
    for platform in ("4x_pascal", "4x_volta"):
        assert peak(platform, "Polling") > 1.4, platform
        # CDP is initiation-bound at 4 kB chunks on these parts.
        assert speedup[platform, "CDP"]["4kB"] < 1.0, platform

    # Volta has the worst CDP initiation cost of the three platforms.
    assert (speedup["4x_volta", "CDP"]["16kB"]
            < speedup["4x_pascal", "CDP"]["16kB"]
            < speedup["4x_kepler", "CDP"]["16kB"])


def fig7(golden):
    tables = {platform: _table(golden, "fig7", "Figure 7: 4-GPU speedup "
                               f"over one GPU ({platform})")
              for platform in PLATFORMS}

    def speedup(platform, app, paradigm):
        return _value(tables[platform][app][paradigm])

    proact_means = []
    captures = []
    for platform in PLATFORMS:
        proact = speedup(platform, "geomean", "PROACT(best)")
        infinite = speedup(platform, "geomean", "Infinite BW")
        proact_means.append(proact)
        captures.append(proact / infinite)
        # PROACT beats bulk DMA duplication on every platform.
        assert proact > speedup(platform, "geomean", "cudaMemcpy"), platform
        # Nothing beats the theoretical limit.
        assert proact <= infinite + 1e-9, platform
        # UM is the weakest paradigm on average (paper Section V-B).
        assert speedup(platform, "geomean", "UM") < proact, platform

    # Headline: ~3.0x geomean across generations, ~83% of the 3.6x limit.
    overall = geometric_mean(proact_means)
    assert 2.6 <= overall <= 3.4, (
        f"PROACT geomean across generations {overall:.2f}x; paper 3.0x")
    assert sum(captures) / len(captures) >= 0.75

    # The infinite-BW opportunity averages ~3.6x (load imbalance).
    infinite_overall = geometric_mean(
        [speedup(p, "geomean", "Infinite BW") for p in PLATFORMS])
    assert 3.4 <= infinite_overall <= 3.9

    # Per-app mechanism ordering on Volta (Table II's split): decoupled
    # wins the irregular apps, inline wins the dense-write apps.
    for app in SPORADIC:
        assert (speedup("4x_volta", app, "PROACT-decoupled")
                > speedup("4x_volta", app, "PROACT-inline")), app
    for app in DENSE:
        assert (speedup("4x_volta", app, "PROACT-inline")
                > speedup("4x_volta", app, "cudaMemcpy")), app

    # Pagerank is the worst app for bulk duplication (paper: it can even
    # underperform a single GPU).
    for platform in PLATFORMS:
        others = [speedup(platform, app, "cudaMemcpy")
                  for app in DENSE + SPORADIC if app != "Pagerank"]
        assert speedup(platform, "Pagerank", "cudaMemcpy") < min(others)

    # UM with hints can beat cudaMemcpy for Jacobi on fault-capable GPUs
    # (paper Section V-B), because it migrates only touched pages.
    for platform in ("4x_pascal", "4x_volta"):
        assert (speedup(platform, "Jacobi", "UM")
                > speedup(platform, "Jacobi", "cudaMemcpy")), platform


def fig8(golden):
    rows = _table(golden, "fig8", "Figure 8")
    # Paper: overhead averages 10-15 % depending on platform.
    for platform in PLATFORMS:
        assert 0.02 <= _value(rows["mean"][platform]) <= 0.25, platform
    # Paper: variation is significant — negligible up to ~40 %, with
    # Pagerank the worst case.
    overhead = {(platform, app): _value(row[platform])
                for app, row in rows.items() if app != "mean"
                for platform in PLATFORMS}
    (_platform, workload), _ = max(overhead.items(), key=lambda kv: kv[1])
    assert workload == "Pagerank"
    assert 0.2 <= golden["fig8"]["scalars"]["max_overhead"] <= 0.55
    for platform in PLATFORMS:
        for app in DENSE:
            # Long-CTA dense kernels pay little for tracking.
            assert overhead[platform, app] < 0.12, (platform, app)


def fig9(golden):
    minimum = golden["fig9"]["scalars"]["min_overlap"]
    # Paper: PROACT always hides at least ~75 % of transfer time; we
    # allow a small margin for the simulated substrate.
    assert minimum >= 0.6, f"minimum overlap {minimum:.2f}; paper ~0.75"
    values = [_value(row[platform])
              for row in _table(golden, "fig9", "Figure 9").values()
              for platform in PLATFORMS]
    # In many cases nearly all communication is hidden.
    assert sum(1 for v in values if v >= 0.9) >= len(values) // 2
    assert max(values) > 0.95


def fig10(golden):
    speedup = {}
    for platform in ("4x_kepler", "4x_pascal", "16x_volta"):
        rows = _table(golden, "fig10",
                      f"Figure 10: strong scaling ({platform})")
        for gpus, row in rows.items():
            for series in ("cudaMemcpy", "PROACT", "Infinite BW"):
                speedup[platform, int(gpus), series] = _value(row[series])
    scalars = golden["fig10"]["scalars"]

    def advantage(platform, gpus):
        return (speedup[platform, gpus, "PROACT"]
                / speedup[platform, gpus, "cudaMemcpy"])

    # With only two GPUs, performance is insensitive to the transfer
    # method (paper Section V-D).
    for platform in ("4x_kepler", "4x_pascal", "16x_volta"):
        assert 0.9 <= advantage(platform, 2) <= 1.3, platform

    # PROACT's advantage over cudaMemcpy grows with GPU count on the
    # 16-GPU system (paper: 1.2x / 2.2x / 5.3x at 4 / 8 / 16 GPUs).
    adv16 = scalars["proact_advantage_16x_volta_16"]
    assert advantage("16x_volta", 4) < advantage("16x_volta", 8) < adv16
    assert adv16 >= 3.0

    # cudaMemcpy scaling flattens/regresses while PROACT keeps scaling.
    assert (speedup["16x_volta", 16, "cudaMemcpy"]
            <= speedup["16x_volta", 8, "cudaMemcpy"] * 1.05)
    proact16 = speedup["16x_volta", 16, "PROACT"]
    assert proact16 > 2 * speedup["16x_volta", 4, "PROACT"]

    # Paper headline: ~11x at 16 GPUs, within 77 % of the limit.
    assert 9.0 <= proact16 <= 14.0
    assert scalars["capture_16x_volta_16"] >= 0.7

    # On PCIe-limited Kepler, transfer overheads bite earliest: the
    # memcpy curve is already far from linear at 4 GPUs.
    assert speedup["4x_kepler", 4, "cudaMemcpy"] < 2.0


def table2(golden):
    picks = {app: {platform: _mechanism(row[platform])
                   for platform in PLATFORMS}
             for app, row in _table(golden, "table2", "Table II").items()}
    # Dense-write applications profile to inline on the NVLink parts
    # (paper Table II: X-ray CT and Jacobi pick 'I' on Pascal/Volta...).
    for platform in ("4x_pascal", "4x_volta"):
        assert picks["X-ray CT"][platform] == "I", platform
    # Jacobi picks inline on Kepler and Pascal (paper Table II).
    for platform in ("4x_kepler", "4x_pascal"):
        assert picks["Jacobi"][platform] == "I", platform

    # Sporadic-write applications always profile to decoupled transfers.
    for platform in PLATFORMS:
        for app in SPORADIC:
            assert picks[app][platform] in ("Poll", "CDP"), (platform, app)

    # Kepler's profiler always chooses CDP (polling wastes its scarce
    # SMs).  On Volta, polling wins for most apps (CDP launch latency is
    # prohibitive there) — individual apps can sit on the margin, as the
    # paper's own per-platform flips show.
    for app in SPORADIC:
        assert picks[app]["4x_kepler"] == "CDP", (
            f"{app} on 4x_kepler picks {picks[app]['4x_kepler']}; "
            "paper: CDP")
    volta_polls = sum(1 for app in SPORADIC
                      if picks[app]["4x_volta"] == "Poll")
    assert volta_polls >= 2


def table2_deviations(golden):
    """Table II cells where the model misses the paper, pinned."""
    rows = _table(golden, "table2", "Table II")
    xray = rows["X-ray CT"]["4x_kepler"]
    assert xray == "I", (
        f"X-ray CT on 4x_kepler: paper D-CDP, pinned deviation I, "
        f"now {xray!r}")
    jacobi = rows["Jacobi"]["4x_volta"]
    assert jacobi == "I", (
        f"Jacobi on 4x_volta: paper D-Poll, pinned deviation I, "
        f"now {jacobi!r}")
    pascal = [_mechanism(rows[app]["4x_pascal"]) for app in SPORADIC]
    assert pascal == ["CDP", "CDP", "Poll"], (
        f"{'/'.join(SPORADIC)} on 4x_pascal: paper Poll for all, pinned "
        f"deviation CDP/CDP/Poll, now {'/'.join(pascal)}")


# ---------------------------------------------------------------------------
# Extensions beyond the paper's figures
# ---------------------------------------------------------------------------

def ablation_hardware(golden):
    rows = _table(golden, "ablations", "Ablation: software vs hardware")
    for platform, row in rows.items():
        software, hardware, infinite = (
            _value(row[column])
            for column in ("PROACT-SW", "PROACT-HW", "Infinite BW"))
        # Hardware PROACT dominates the software prototype and sits
        # within the theoretical limit.
        assert hardware >= software, platform
        assert hardware <= infinite + 1e-9, platform
    recovered = {platform: _value(row["gap recovered"])
                 for platform, row in rows.items()}
    # On the NVLink platforms the remaining gap is mostly software
    # overhead, which hardware recovers (Section III-D's motivation).
    for platform in ("4x_pascal", "4x_volta"):
        assert recovered[platform] >= 0.5, platform
    # On PCIe-bound Kepler the gap is wire time, which no transfer agent
    # can remove: hardware recovers comparatively little there.
    assert recovered["4x_kepler"] < recovered["4x_volta"]


def ablation_dma_engines(golden):
    rows = _table(golden, "ablations", "Ablation: cudaMemcpy copy-engine")
    memcpy = {count: _value(rows[f"cudaMemcpy, {count} engine(s)"]
                            ["geomean speedup"])
              for count in (1, 2, 4)}
    proact = _value(rows["PROACT (1 engine-equivalent)"]["geomean speedup"])
    # More engines help bulk copies overlap each other...
    assert memcpy[2] > memcpy[1]
    assert memcpy[4] >= memcpy[2]
    # ...but cannot overlap copies with compute: PROACT still wins.
    assert proact > memcpy[4]


def ablation_peer_mapping(golden):
    scalars = golden["ablations"]["scalars"]
    # At 4 GPUs the mappings coincide (every peer needs everything).
    assert scalars["per_peer_mapping_4"] == scalars["full_duplication_4"]
    # At scale, consumer-aware per-peer mappings are what keep PROACT's
    # scaling near-linear; naive full duplication falls away.
    assert scalars["mapping_gain_16"] > 1.3


def ablation_chunk_granularity(golden):
    rows = _table(golden, "ablations", "Ablation: chunk granularity")
    runtimes = [_value(row["runtime (ms)"]) for row in rows.values()]
    best = golden["ablations"]["scalars"]["best_chunk_bytes"]
    # The end-to-end curve is U-shaped: both extremes lose to the middle.
    assert 16 * KiB <= best <= 8 * MiB
    assert runtimes[0] > min(runtimes)   # dispatch-bound at 4 kB
    assert runtimes[-1] > min(runtimes)  # tail-bound at 32 MB


def ablation_topology(golden):
    geomean = _table(golden, "ablations",
                     "Ablation: interconnect topology")["geomean"]
    switch = _value(geomean["NVSwitch crossbar"])
    cube = _value(geomean["hybrid cube mesh"])
    # Same GPUs, same aggregate bandwidth: the crossbar's full-rate
    # point-to-point paths beat the cube mesh's split links.
    assert switch > cube
    # But PROACT still extracts real scaling from the cube mesh.
    assert cube > 3.0


#: The sign each component's importance must keep: ablating a mechanism
#: slows PROACT down (+); ablating a modelled cost speeds it up (-).
IMPORTANCE_SIGNS = {
    "decoupled_agent": +1,
    "write_coalescing": +1,
    "readiness_tracking": +1,
    "profiler_pruning": +1,
    "fluid_contention": -1,
    "packet_overhead": -1,
}


def mechanism_ablation(golden):
    scalars = golden["ablation"]["scalars"]
    assert len(IMPORTANCE_SIGNS) == scalars["components"]
    for platform in ("4x_volta", "4x_kepler"):
        # The decoupled agent carries PROACT's speedup (Table II's story).
        assert scalars[f"{platform}_decoupled_agent_rank"] == 1.0, platform
        for component, sign in IMPORTANCE_SIGNS.items():
            importance = scalars[f"{platform}_{component}_importance"]
            assert importance * sign > 0, (
                f"{component} on {platform}: importance {importance:+.3f}, "
                f"expected {'positive' if sign > 0 else 'negative'}")


def utilization(golden):
    scalars = golden["utilization"]["scalars"]
    # Bulk synchrony confines transfers to the window after the kernel;
    # PROACT keeps the interconnect active across nearly the whole run.
    proact_window = scalars["active_window_proact"]
    assert proact_window > 1.5 * scalars["active_window_bulk"]
    assert proact_window > 0.8
    # And it extracts more from the links it uses (same bytes, less
    # wall-clock, all destination links driven concurrently).  The
    # profile column holds single spaces, so read from the right.
    lines = _lines(golden, "utilization", "Interconnect utilization")
    mean = {cells[0]: _value(cells[-2]) for cells in map(_cells, lines[3:])}
    assert mean["PROACT-decoupled"] > mean["cudaMemcpy"]


def sensitivity(golden):
    rows = _table(golden, "sensitivity", "Sensitivity")
    broken = [name for name, row in rows.items()
              if row["conclusions"] != "HOLD"]
    assert not broken, f"conclusions broke under: {broken}"
    name, baseline = next(iter(rows.items()))
    assert name == "baseline"
    # The headline gap is wide: PROACT leads memcpy by >20 % at baseline.
    assert _value(baseline["PROACT"]) > 1.2 * _value(baseline["cudaMemcpy"])


def collectives(golden):
    # A tree beats the ring on small all-reduces across 16 GPUs.
    scalars = golden["collectives"]["scalars"]
    assert scalars["tree_vs_ring_small_16x_volta"] > 1.0


def cluster(golden):
    # The hierarchical all-reduce beats the flat ring across nodes.
    assert golden["cluster"]["scalars"]["hier_vs_ring_64gpu"] > 1.0


def autotune(golden):
    # The search autotuner finds the exhaustive argmin while measuring
    # fewer configs than the grid holds.
    scalars = golden["autotune"]["scalars"]
    assert scalars["argmin_agreement"] == 1.0
    assert scalars["searched_configs"] < scalars["grid_configs"]


CLAIMS = (table1, fig1, fig2, fig4, fig4_deviations, fig6, fig7, fig8,
          fig9, fig10, table2, table2_deviations, ablation_hardware,
          ablation_dma_engines, ablation_peer_mapping,
          ablation_chunk_granularity, ablation_topology, mechanism_ablation,
          utilization, sensitivity, collectives, cluster, autotune)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.__name__)
def test_claim_holds_on_the_golden(claim, golden):
    claim(golden)


def _set_cell(snapshot, name, title, label, column, value):
    """Rewrite one rendered table cell of ``snapshot`` in place."""
    lines = _lines(snapshot, name, title)
    header = _cells(lines[1])
    for index, line in enumerate(lines[3:], start=3):
        cells = _cells(line)
        if cells[0] == label:
            cells[header.index(column)] = value
            lines[index] = "  ".join(cells)
            return
    raise KeyError(f"{name} table {title!r} has no row {label!r}")


@pytest.mark.parametrize("claim, mutate, match", [
    (fig7, lambda s: _set_cell(s, "fig7", "Figure 7: 4-GPU speedup over "
                               "one GPU (4x_kepler)", "geomean",
                               "PROACT(best)", "1.50"),
     "geomean across generations"),
    (fig9, lambda s: s["fig9"]["scalars"].update(min_overlap=0.59),
     "minimum overlap"),
    (table2, lambda s: _set_cell(s, "table2", "Table II", "SSSP",
                                 "4x_kepler", "D 1MB 256 Poll"),
     "SSSP on 4x_kepler picks Poll"),
    (table2_deviations, lambda s: _set_cell(s, "table2", "Table II",
                                            "X-ray CT", "4x_kepler",
                                            "D 1MB 256 CDP"),
     "X-ray CT on 4x_kepler: paper D-CDP"),
    (fig4, lambda s: _set_cell(s, "fig4", "Figure 4", "32", "1MB",
                               "0.993"),
     "1048576"),
    (fig4_deviations, lambda s: s["fig4"]["scalars"].update(
        best_size=16384.0),
     "Fig 4 best granularity: paper 16 KiB - 4 MiB"),
], ids=["fig7-geomean", "fig9-min-overlap", "table2-kepler-cdp",
        "table2-deviation", "fig4-starved-agent", "fig4-deviation"])
def test_claim_fails_past_its_bound(claim, mutate, match, golden):
    snapshot = copy.deepcopy(golden)
    mutate(snapshot)
    with pytest.raises(AssertionError, match=match):
        claim(snapshot)


# ---------------------------------------------------------------------------
# EXPERIMENTS.md keeps a paper-vs-measured section per reproduced artifact
# ---------------------------------------------------------------------------

EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parent.parent / (
    "EXPERIMENTS.md")


def test_experiments_md_has_a_section_per_paper_artifact():
    labels = [spec.label for spec in REGISTRY
              if spec.label.startswith(("Figure ", "Table "))]
    assert {"Figure 2", "Figure 4", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Table I", "Table II"} <= set(labels)
    headings = [line for line in EXPERIMENTS_MD.read_text().splitlines()
                if line.startswith("## ")]
    missing = [label for label in labels
               if not any(heading.startswith(f"## {label} —")
                          for heading in headings)]
    assert not missing, f"EXPERIMENTS.md has no section for {missing}"
