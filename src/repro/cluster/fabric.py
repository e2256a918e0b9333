"""The cluster fabric: a hierarchical router over node fabrics and NICs.

A :class:`ClusterFabric` composes one intra-node
:class:`~repro.interconnect.fabric.Fabric` per node (built with a global
``gpu_base`` offset, so link names and route keys speak global GPU ids)
with per-node NIC injection/delivery links and an inter-node topology
(:mod:`repro.cluster.topology`).  Routing is hierarchical:

* same node — the node fabric's prebuilt route, unchanged;
* cross node — GPU up-link -> source NIC -> inter-node links ->
  destination NIC -> GPU down-link, charged the intra-node latency on
  each end, the NIC latency per traversal, and the hop latency per
  switch/torus hop.

Cross-node routes are built lazily and memoized: a 1024-GPU cluster has
about a million GPU pairs, but any one collective touches a few
thousand, so eager all-pairs construction would dominate both time and
memory.  Everything else — link accounting, conservation audits,
``send`` semantics, the infinite-bandwidth limit study — is inherited
from the flat fabric, because every link (intra, NIC, inter) lives in
the same ``links`` list.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigurationError
from repro.interconnect.fabric import Fabric
from repro.interconnect.link import Link
from repro.interconnect.route import Route, route_between
from repro.cluster.specs import ClusterPlatformSpec
from repro.cluster.topology import build_inter_topology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class ClusterFabric(Fabric):
    """All links and routes of a multi-node cluster."""

    def __init__(self, engine: "Engine", cluster: ClusterPlatformSpec,
                 infinite: bool = False) -> None:
        if not isinstance(cluster, ClusterPlatformSpec):
            raise ConfigurationError(
                f"ClusterFabric needs a ClusterPlatformSpec, "
                f"got {type(cluster).__name__}")
        self.cluster = cluster
        super().__init__(engine, cluster.interconnect, cluster.num_gpus,
                         infinite=infinite)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        cluster = self.cluster
        per_node = cluster.node.gpus_per_node
        self.node_fabrics = [
            Fabric(self.engine, cluster.node.interconnect, per_node,
                   infinite=self.infinite, gpu_base=node * per_node)
            for node in range(cluster.num_nodes)
        ]
        for fabric in self.node_fabrics:
            self.links.extend(fabric.links)
            self._routes.update(fabric._routes)
        nic = cluster.node.nic
        self.nic_up = [self._nic_link(f"nic:n{m}->net", nic.bandwidth)
                       for m in range(cluster.num_nodes)]
        self.nic_down = [self._nic_link(f"nic:net->n{m}", nic.bandwidth)
                         for m in range(cluster.num_nodes)]
        self.inter = build_inter_topology(
            cluster.inter.kind, cluster.num_nodes,
            cluster.inter.link_bandwidth or nic.bandwidth, self._nic_link)

    def _nic_link(self, name: str, bandwidth: float) -> Link:
        """NIC-framed link (injection, delivery, and inter-node hops)."""
        link = Link(self.engine, name, bandwidth, self.cluster.node.nic.fmt)
        self.links.append(link)
        return link

    # ------------------------------------------------------------------
    # Hierarchical routing
    # ------------------------------------------------------------------
    def node_of(self, gpu: int) -> int:
        """Which node a global GPU id lives on."""
        if not 0 <= gpu < self.num_gpus:
            raise ConfigurationError(
                f"GPU {gpu} out of range 0..{self.num_gpus - 1}")
        return gpu // self.cluster.node.gpus_per_node

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    @property
    def collective_access_size(self) -> int:
        """Bulk access size that is efficient on every hop's framing.

        The NIC MTU is a multiple of the intra-node max payload, so
        issuing collective traffic at the MTU leaves NVLink framing
        untouched while letting the NIC amortize its per-packet
        overhead the way RDMA bulk transfers do.
        """
        return max(self.spec.fmt.max_payload,
                   self.cluster.node.nic.fmt.max_payload)

    def route(self, src: int, dst: int) -> Route:
        """Intra-node routes are prebuilt; cross-node ones memoized."""
        if src == dst:
            raise ConfigurationError(f"no route from GPU {src} to itself")
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = self._cross_route(src, dst)
        return route

    def _cross_route(self, src: int, dst: int) -> Route:
        cluster = self.cluster
        src_node, dst_node = self.node_of(src), self.node_of(dst)
        if src_node == dst_node:  # pragma: no cover - prebuilt intra miss
            raise ConfigurationError(
                f"no route {src}->{dst} in a {self.num_gpus}-GPU cluster")
        per_node = cluster.node.gpus_per_node
        inter_links, hops = self.inter.path(src_node, dst_node)
        links = []
        latency = 2 * cluster.node.nic.latency
        latency += hops * cluster.inter.hop_latency
        if per_node > 1:
            # GPU -> node switch on the way out, switch -> GPU on the
            # way in; single-GPU nodes inject straight into the NIC.
            links.append(self.node_fabrics[src_node]
                         .uplinks[src - src_node * per_node])
            latency += 2 * cluster.node.interconnect.latency
        links.append(self.nic_up[src_node])
        links.extend(inter_links)
        links.append(self.nic_down[dst_node])
        if per_node > 1:
            links.append(self.node_fabrics[dst_node]
                         .downlinks[dst - dst_node * per_node])
        return route_between(self.engine, src, dst, links, latency,
                             infinite=self.infinite)
