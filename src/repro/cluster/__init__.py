"""Multi-node cluster scale-out: nodes, NICs, and hierarchical routing.

Public surface of the cluster subsystem.  Build a platform with
:func:`cluster_platform` (or look one of the canonical sizes up by name
anywhere a platform name is accepted), then use it exactly like a
single-box platform::

    from repro.api import Session
    from repro.cluster import cluster_platform

    session = Session(cluster_platform(num_nodes=4))
    result = session.collective("all_reduce", nbytes=1 << 24,
                                algorithm="hierarchical")
"""

from repro.cluster.fabric import ClusterFabric
from repro.cluster.hierarchical import (
    build_hierarchical,
    hierarchical_sent_bytes,
)
from repro.cluster.specs import (
    CLUSTER_PLATFORMS,
    DGX2_NODE,
    EDR100_NIC,
    FAT_TREE,
    HDR200_NIC,
    TORUS_2D,
    TORUS_3D,
    ClusterPlatformSpec,
    InterNodeSpec,
    NicSpec,
    NodeSpec,
    cluster_platform,
)
from repro.cluster.topology import (
    FatTreeTopology,
    InterNodeTopology,
    TorusTopology,
    build_inter_topology,
    torus_dims,
)

__all__ = [
    "CLUSTER_PLATFORMS",
    "ClusterFabric",
    "ClusterPlatformSpec",
    "DGX2_NODE",
    "EDR100_NIC",
    "FAT_TREE",
    "FatTreeTopology",
    "HDR200_NIC",
    "InterNodeSpec",
    "InterNodeTopology",
    "NicSpec",
    "NodeSpec",
    "TORUS_2D",
    "TORUS_3D",
    "TorusTopology",
    "build_hierarchical",
    "build_inter_topology",
    "cluster_platform",
    "hierarchical_sent_bytes",
    "torus_dims",
]
