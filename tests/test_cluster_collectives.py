"""Hierarchical all-reduce: schedule, execution, tuning, and the oracle.

The hierarchical algorithm (reduce-scatter intra-node, ring all-reduce
across node leaders over the NICs, all-gather intra-node) must satisfy
the same contracts as the flat algorithms — contributor-complete under
``verify_schedule``, byte-exact against its closed form — while beating
the flat ring across node boundaries, which is its reason to exist.
"""

import textwrap

import pytest

import repro.cluster
from repro.api import Session
from repro.cluster import (
    CLUSTER_PLATFORMS,
    HDR200_NIC,
    NodeSpec,
    TORUS_3D,
    cluster_platform,
    hierarchical_sent_bytes,
)
from repro.collectives import (
    ALGO_HIERARCHICAL,
    CollectiveTuner,
    build_schedule,
    supported_algorithms,
    verify_schedule,
)
from repro.errors import CollectiveError, ConfigurationError
from repro.hw.platform import platform_by_name
from repro.hw.specs import VOLTA_V100
from repro.interconnect.specs import NVSWITCH
from repro.units import KiB, MiB
from repro.validate.oracle import DifferentialOracle

QUAD_NODE = NodeSpec(name="quad", gpu=VOLTA_V100, interconnect=NVSWITCH,
                     gpus_per_node=4, nic=HDR200_NIC)


def quad_cluster(num_nodes=2, inter=None):
    if inter is None:
        return cluster_platform(num_nodes, node=QUAD_NODE)
    return cluster_platform(num_nodes, node=QUAD_NODE, inter=inter)


# ----------------------------------------------------------------------
# Schedule contracts
# ----------------------------------------------------------------------

@pytest.mark.parametrize("num_nodes", (2, 3, 4))
def test_hierarchical_schedule_passes_the_symbolic_verifier(num_nodes):
    platform = quad_cluster(num_nodes)
    schedule = build_schedule("all_reduce", ALGO_HIERARCHICAL,
                              platform.num_gpus, 64 * KiB, 16 * KiB,
                              gpus_per_node=4)
    verify_schedule(schedule)  # raises on any missing contributor


@pytest.mark.parametrize("num_nodes", (2, 4))
def test_hierarchical_bytes_match_the_closed_form(num_nodes):
    platform = quad_cluster(num_nodes)
    n = platform.num_gpus
    nbytes = 128 * KiB
    schedule = build_schedule("all_reduce", ALGO_HIERARCHICAL, n, nbytes,
                              32 * KiB, gpus_per_node=4)
    want = hierarchical_sent_bytes(nbytes, n, 4)
    assert schedule.per_gpu_sent_bytes() == tuple([want] * n)
    # Every GPU sources strictly less than the flat ring's optimum only
    # when nodes dominate; at minimum it must never exceed it.
    ring_optimal = 2 * (n - 1) * nbytes // n
    assert want <= ring_optimal


def test_hierarchical_sent_bytes_needs_whole_shards():
    with pytest.raises(CollectiveError):
        hierarchical_sent_bytes(1001, 8, 4)  # 1001 % 8 != 0


def test_hierarchical_needs_a_node_geometry():
    with pytest.raises(CollectiveError):
        build_schedule("all_reduce", ALGO_HIERARCHICAL, 8, 64 * KiB,
                       16 * KiB)  # no gpus_per_node


def test_hierarchical_needs_at_least_two_whole_nodes():
    with pytest.raises(CollectiveError):
        build_schedule("all_reduce", ALGO_HIERARCHICAL, 4, 64 * KiB,
                       16 * KiB, gpus_per_node=4)  # one node


def test_supported_algorithms_admits_hierarchical_on_clusters_only():
    flat = supported_algorithms("all_reduce", 8)
    assert ALGO_HIERARCHICAL not in flat
    clustered = supported_algorithms("all_reduce", 8, gpus_per_node=4)
    assert ALGO_HIERARCHICAL in clustered
    # Other collectives keep their flat algorithm set.
    assert ALGO_HIERARCHICAL not in supported_algorithms(
        "all_gather", 8, gpus_per_node=4)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def test_hierarchical_beats_the_flat_ring_across_nodes():
    platform = quad_cluster(4)  # 16 GPUs over 4 nodes
    ring = Session(platform).collective(
        "all_reduce", 1 * MiB, algorithm="ring", chunk_size=256 * KiB)
    hier = Session(platform).collective(
        "all_reduce", 1 * MiB, algorithm=ALGO_HIERARCHICAL,
        chunk_size=256 * KiB)
    assert hier.duration < ring.duration
    assert hier.bus_bandwidth > ring.bus_bandwidth


def test_hierarchical_runs_on_a_torus():
    platform = quad_cluster(8, inter=TORUS_3D)
    result = Session(platform).collective(
        "all_reduce", 256 * KiB, algorithm=ALGO_HIERARCHICAL,
        chunk_size=64 * KiB)
    assert result.duration > 0
    want = hierarchical_sent_bytes(256 * KiB, platform.num_gpus, 4)
    assert all(sent == want for sent in result.sent_bytes)


def test_package_docstring_example_runs():
    # The usage example in the package docstring runs as written.
    example = textwrap.dedent(repro.cluster.__doc__.split("::", 1)[1])
    namespace = {}
    exec(example, namespace)
    assert namespace["result"].num_gpus == 64
    assert namespace["result"].algorithm == ALGO_HIERARCHICAL


def test_session_runs_a_cluster_collective():
    session = Session("64x_volta_fat_tree", validate=True)
    result = session.collective("all_reduce", 256 * KiB,
                                algorithm=ALGO_HIERARCHICAL)
    assert result.num_gpus == 64
    assert result.duration > 0


# ----------------------------------------------------------------------
# Tuner integration
# ----------------------------------------------------------------------

def test_tuner_sweeps_hierarchical_on_cluster_platforms():
    tuner = CollectiveTuner(quad_cluster(2), "all_reduce",
                            chunk_sizes=(64 * KiB,))
    assert ALGO_HIERARCHICAL in tuner.algorithms
    result = tuner.tune(256 * KiB)
    assert ALGO_HIERARCHICAL in result.algorithms()
    assert result.best_for_algorithm(ALGO_HIERARCHICAL).runtime > 0


# ----------------------------------------------------------------------
# Differential oracle at cluster scale
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ("ring", ALGO_HIERARCHICAL))
def test_oracle_validates_cluster_collectives(algorithm):
    # verify_schedule + readiness sanitizer + conservation checker +
    # closed-form byte expectations, all live on the cluster fabric.
    oracle = DifferentialOracle()
    result = oracle.check_collective(quad_cluster(2), "all_reduce",
                                     algorithm, 64 * KiB,
                                     chunk_size=16 * KiB)
    assert result.num_gpus == 8


def test_oracle_validates_a_64gpu_dgx2_cluster():
    oracle = DifferentialOracle()
    result = oracle.check_collective(
        cluster_platform(4), "all_reduce", ALGO_HIERARCHICAL, 1 * MiB,
        chunk_size=256 * KiB)
    assert result.num_gpus == 64
    want = hierarchical_sent_bytes(1 * MiB, 64, 16)
    assert all(sent == want for sent in result.sent_bytes)


# ----------------------------------------------------------------------
# Platform registry
# ----------------------------------------------------------------------

def test_cluster_platforms_resolve_through_platform_by_name():
    platform = platform_by_name("64x_volta_fat_tree")
    assert platform.is_cluster
    assert platform.num_gpus == 64 and platform.gpus_per_node == 16
    assert "1024x_volta_fat_tree" in CLUSTER_PLATFORMS


def test_unknown_platform_error_lists_cluster_names_sorted():
    with pytest.raises(ConfigurationError) as err:
        platform_by_name("no_such_platform")
    message = str(err.value)
    assert "64x_volta_fat_tree" in message
    assert "4x_volta" in message


def test_with_num_gpus_scales_by_whole_nodes():
    grown = cluster_platform(4).with_num_gpus(256)
    assert grown.num_nodes == 16 and grown.num_gpus == 256
    assert grown.name == "256x_volta_fat_tree"
    with pytest.raises(ConfigurationError):
        cluster_platform(4).with_num_gpus(24)  # 1.5 nodes
