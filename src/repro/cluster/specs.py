"""Cluster building blocks: NIC endpoints, nodes, and cluster platforms.

A cluster is ``num_nodes`` identical multi-GPU nodes — each one exactly
the intra-node :class:`~repro.interconnect.fabric.Fabric` the single-box
model already simulates — joined by RDMA-style NICs over an inter-node
topology (fat-tree or torus, :mod:`repro.cluster.topology`).  Following
the APEnet+/cluster-P2P direction in PAPERS.md, a :class:`NicSpec` has
its own packet format (:data:`~repro.interconnect.packet.RDMA_FORMAT`),
per-message latency, and injection bandwidth, so NIC traversal is
charged with the same link/route primitives as NVLink hops.

:class:`ClusterPlatformSpec` extends
:class:`~repro.hw.platform.PlatformSpec`, so everything that consumes a
platform — ``System``, ``Session`` — accepts a cluster without new
entry points; consumers that must branch check the ``is_cluster``
attribute rather than importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.hw.platform import PlatformSpec
from repro.hw.specs import VOLTA_V100, GpuSpec
from repro.interconnect.packet import RDMA_FORMAT, PacketFormat
from repro.interconnect.specs import (
    INTER_NODE_TOPOLOGIES,
    NVSWITCH,
    TOPOLOGY_FAT_TREE,
    TOPOLOGY_PCIE_TREE,
    TOPOLOGY_SWITCH,
    TOPOLOGY_TORUS_2D,
    TOPOLOGY_TORUS_3D,
    InterconnectSpec,
)
from repro.units import gb_per_s, usec

#: Intra-node topologies a node fabric may use: the cluster router
#: splices NIC routes onto the node's switch, so the node must expose
#: per-GPU up/down switch links.
NODE_TOPOLOGIES = (TOPOLOGY_PCIE_TREE, TOPOLOGY_SWITCH)


@dataclass(frozen=True)
class NicSpec:
    """One RDMA-capable NIC endpoint per node.

    ``bandwidth`` is the unidirectional injection bandwidth; every
    cross-node message pays ``latency`` once per NIC traversal (source
    injection and destination delivery are separate traversals).
    """

    name: str
    fmt: PacketFormat
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"NIC bandwidth must be > 0: {self.bandwidth}")
        if self.latency < 0:
            raise ConfigurationError(f"negative NIC latency: {self.latency}")


#: 100 Gb/s EDR-class NIC.
EDR100_NIC = NicSpec(
    name="EDR100", fmt=RDMA_FORMAT, bandwidth=gb_per_s(12.5),
    latency=usec(5.0))

#: 200 Gb/s HDR-class NIC — the default cluster endpoint.
HDR200_NIC = NicSpec(
    name="HDR200", fmt=RDMA_FORMAT, bandwidth=gb_per_s(25),
    latency=usec(5.0))


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node: GPUs behind a switch, plus its NIC."""

    name: str
    gpu: GpuSpec
    interconnect: InterconnectSpec
    gpus_per_node: int
    nic: NicSpec

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ConfigurationError(
                f"need >= 1 GPU per node: {self.gpus_per_node}")
        if self.interconnect.topology not in NODE_TOPOLOGIES:
            raise ConfigurationError(
                f"node interconnect topology {self.interconnect.topology!r} "
                f"is not switch-routed; expected one of "
                f"{sorted(NODE_TOPOLOGIES)}")


#: DGX-2-style node: 16 Voltas behind NVSwitch with one HDR NIC.
DGX2_NODE = NodeSpec(
    name="dgx2", gpu=VOLTA_V100, interconnect=NVSWITCH, gpus_per_node=16,
    nic=HDR200_NIC)


@dataclass(frozen=True)
class InterNodeSpec:
    """The inter-node network: topology kind and per-hop characteristics.

    ``link_bandwidth`` is the unidirectional bandwidth of each switch or
    torus link; ``None`` matches the NIC injection rate (a non-blocking
    full-bisection network).  ``hop_latency`` is paid once per switch or
    torus hop on top of the two NIC traversals.
    """

    kind: str
    hop_latency: float = usec(0.5)
    link_bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in INTER_NODE_TOPOLOGIES:
            raise ConfigurationError(
                f"unknown inter-node topology {self.kind!r}; "
                f"expected one of {sorted(INTER_NODE_TOPOLOGIES)}")
        if self.hop_latency < 0:
            raise ConfigurationError(
                f"negative hop latency: {self.hop_latency}")
        if self.link_bandwidth is not None and self.link_bandwidth <= 0:
            raise ConfigurationError(
                f"link bandwidth must be > 0: {self.link_bandwidth}")


FAT_TREE = InterNodeSpec(kind=TOPOLOGY_FAT_TREE)
TORUS_2D = InterNodeSpec(kind=TOPOLOGY_TORUS_2D)
TORUS_3D = InterNodeSpec(kind=TOPOLOGY_TORUS_3D)


@dataclass(frozen=True)
class ClusterPlatformSpec(PlatformSpec):
    """A multi-node platform: ``num_nodes`` copies of ``node``, networked.

    The inherited ``gpu``/``interconnect``/``num_gpus`` fields describe
    the intra-node system exactly as a flat
    :class:`~repro.hw.platform.PlatformSpec` would, which is what lets
    every platform consumer run unchanged.
    """

    node: NodeSpec = DGX2_NODE
    num_nodes: int = 2
    inter: InterNodeSpec = FAT_TREE

    is_cluster = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_nodes < 2:
            raise ConfigurationError(
                f"a cluster needs >= 2 nodes: {self.num_nodes}")
        expected = self.num_nodes * self.node.gpus_per_node
        if self.num_gpus != expected:
            raise ConfigurationError(
                f"num_gpus {self.num_gpus} != {self.num_nodes} nodes x "
                f"{self.node.gpus_per_node} GPUs/node = {expected}")
        if self.gpu != self.node.gpu:
            raise ConfigurationError("platform gpu differs from node gpu")
        if self.interconnect != self.node.interconnect:
            raise ConfigurationError(
                "platform interconnect differs from node interconnect")

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    def with_num_gpus(self, num_gpus: int) -> "ClusterPlatformSpec":
        """Same cluster scaled to a different GPU count (whole nodes)."""
        per_node = self.node.gpus_per_node
        nodes, rem = divmod(num_gpus, per_node)
        if rem or nodes < 2:
            raise ConfigurationError(
                f"cluster GPU count must be >= 2 whole {per_node}-GPU "
                f"nodes, got {num_gpus}")
        return replace(
            self, name=_cluster_name(num_gpus, self.node, self.inter),
            num_gpus=num_gpus, num_nodes=nodes)


def _cluster_name(num_gpus: int, node: NodeSpec, inter: InterNodeSpec) -> str:
    return f"{num_gpus}x_{node.gpu.arch.lower()}_{inter.kind}"


def cluster_platform(num_nodes: int, node: NodeSpec = DGX2_NODE,
                     inter: InterNodeSpec = FAT_TREE,
                     name: Optional[str] = None) -> ClusterPlatformSpec:
    """Build a cluster platform from node count, node spec, and network."""
    num_gpus = num_nodes * node.gpus_per_node
    return ClusterPlatformSpec(
        name=name or _cluster_name(num_gpus, node, inter),
        gpu=node.gpu, interconnect=node.interconnect, num_gpus=num_gpus,
        node=node, num_nodes=num_nodes, inter=inter)


#: Canonical cluster sizes: 64 / 256 / 1024 GPUs as DGX-2 fat-trees,
#: plus a 64-GPU 3D torus for the topology comparison.
CLUSTER_PLATFORMS: Dict[str, ClusterPlatformSpec] = {
    platform.name: platform
    for platform in (
        cluster_platform(4),
        cluster_platform(16),
        cluster_platform(64),
        cluster_platform(4, inter=TORUS_2D),
        cluster_platform(4, inter=TORUS_3D),
    )
}
