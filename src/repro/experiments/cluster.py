"""Cluster: hierarchical vs. flat-ring all-reduce at multi-node scale.

The cluster subsystem (:mod:`repro.cluster`) composes intra-node
NVSwitch fabrics with an inter-node NIC fabric; this harness measures
what that buys.  For each cluster size it runs the flat ring all-reduce
(every hop potentially crossing the NICs) against the hierarchical
schedule (reduce-scatter intra-node, ring across node leaders over the
NICs, all-gather intra-node) and prints one nccl-tests-style bus
bandwidth table per cluster, plus an inter-node topology comparison
(fat tree vs. 2D/3D torus) at the smallest cluster.

Key scalars (what the regression assertions hang off):

* ``hier_vs_ring_64gpu`` — hierarchical speedup over the flat ring on
  the 4-node cluster, minimum over the swept payloads; the headline
  claim is that this stays > 1 at every measured size.
* ``hier_busbw_64gpu_gbs`` — absolute hierarchical bus bandwidth at the
  largest payload, the number tracked by the bench trajectory.

Quick mode sweeps the 4-node (64 GPU) cluster only, so the CI smoke run
finishes in seconds; the full suite adds 16 nodes (256 GPUs) and
64 nodes (1024 GPUs).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.api import Session
from repro.cluster import FAT_TREE, TORUS_2D, TORUS_3D, cluster_platform
from repro.collectives.algorithms import ALGO_HIERARCHICAL, ALGO_RING
from repro.collectives.schedule import COLL_ALL_REDUCE
from repro.experiments.registry import ExperimentContext, ExperimentResult
from repro.experiments.report import TextTable
from repro.units import KiB, MiB

#: Cluster sizes swept, in DGX-2 nodes (16 GPUs each).
QUICK_NODE_COUNTS: Tuple[int, ...] = (4,)
FULL_NODE_COUNTS: Tuple[int, ...] = (4, 16, 64)

#: All-reduce payloads swept per cluster size.
QUICK_PAYLOADS: Tuple[int, ...] = (256 * KiB, 1 * MiB)
FULL_PAYLOADS: Tuple[int, ...] = (1 * MiB, 16 * MiB)

#: Fixed chunk granularity: a chunk sweep at 1024 GPUs would multiply
#: the grid by the chunk axis.
CHUNK_SIZE: int = 1 * MiB

#: Inter-node topologies compared at the smallest cluster.
INTER_TOPOLOGIES = (FAT_TREE, TORUS_2D, TORUS_3D)


def _payload_label(size: int) -> str:
    if size >= MiB:
        return f"{size // MiB}MB"
    return f"{size // KiB}kB"


def _measure(platform, payload: int, algorithm: str) -> float:
    """Bus bandwidth (bytes/s) of one algorithm at one payload."""
    result = Session(platform).collective(
        COLL_ALL_REDUCE, payload, algorithm=algorithm,
        chunk_size=min(CHUNK_SIZE, payload))
    return result.bus_bandwidth


def scale_table(num_nodes: int, payloads: Sequence[int],
                busbw: Dict[Tuple[int, int, str], float]) -> TextTable:
    """One cluster size's busbw rows: ring vs. hierarchical + speedup."""
    num_gpus = num_nodes * 16
    table = TextTable(
        title=(f"Cluster all-reduce bus bandwidth GB/s "
               f"({num_nodes} nodes, {num_gpus} GPUs, fat tree)"),
        columns=["payload", ALGO_RING, ALGO_HIERARCHICAL, "speedup"])
    for payload in payloads:
        ring = busbw[(num_nodes, payload, ALGO_RING)]
        hier = busbw[(num_nodes, payload, ALGO_HIERARCHICAL)]
        table.add_row(_payload_label(payload), ring / 1e9, hier / 1e9,
                      hier / ring)
    return table


def topology_table(num_nodes: int, payload: int,
                   busbw: Dict[str, float]) -> TextTable:
    """Hierarchical busbw across inter-node topologies, one cluster."""
    table = TextTable(
        title=(f"Inter-node topology: hierarchical all-reduce GB/s "
               f"({num_nodes} nodes, {_payload_label(payload)})"),
        columns=["topology", "busbw"])
    for kind, value in busbw.items():
        table.add_row(kind, value / 1e9)
    return table


def experiment(ctx: ExperimentContext) -> ExperimentResult:
    """Registry entry point (see :mod:`repro.experiments.registry`)."""
    node_counts = QUICK_NODE_COUNTS if ctx.quick else FULL_NODE_COUNTS
    payloads = QUICK_PAYLOADS if ctx.quick else FULL_PAYLOADS

    busbw: Dict[Tuple[int, int, str], float] = {}
    for num_nodes in node_counts:
        platform = cluster_platform(num_nodes)
        for payload in payloads:
            for algorithm in (ALGO_RING, ALGO_HIERARCHICAL):
                busbw[(num_nodes, payload, algorithm)] = _measure(
                    platform, payload, algorithm)

    smallest = node_counts[0]
    topo_payload = max(payloads)
    topo_busbw = {
        inter.kind: _measure(
            cluster_platform(smallest, inter=inter), topo_payload,
            ALGO_HIERARCHICAL)
        for inter in INTER_TOPOLOGIES}

    tables: List[TextTable] = [
        scale_table(num_nodes, payloads, busbw)
        for num_nodes in node_counts]
    tables.append(topology_table(smallest, topo_payload, topo_busbw))

    scalars: Dict[str, float] = {}
    for num_nodes in node_counts:
        num_gpus = num_nodes * 16
        scalars[f"hier_vs_ring_{num_gpus}gpu"] = min(
            busbw[(num_nodes, payload, ALGO_HIERARCHICAL)]
            / busbw[(num_nodes, payload, ALGO_RING)]
            for payload in payloads)
    scalars["hier_busbw_64gpu_gbs"] = busbw[
        (smallest, max(payloads), ALGO_HIERARCHICAL)] / 1e9
    scalars["fat_tree_vs_torus3d"] = (
        topo_busbw[FAT_TREE.kind] / topo_busbw[TORUS_3D.kind])
    return ExperimentResult.build("cluster", "Cluster", tables, scalars)
