"""The fabric: all links and routes of one multi-GPU system.

A :class:`Fabric` is built from an :class:`~repro.interconnect.specs.InterconnectSpec`
and a GPU count, and exposes ``send(src, dst, nbytes, access_size)``.
Three physical topologies are supported, matching the paper's systems:

* **PCIe tree** — every GPU hangs off one switch with a dedicated
  up/down link pair; a peer transfer crosses the source's up link and the
  destination's down link.
* **All-to-all NVLink mesh** — a dedicated link pair between every GPU
  pair, each getting an equal share of the GPU's aggregate bandwidth.
* **NVSwitch crossbar** — every GPU has one full-bandwidth link pair to a
  non-blocking switch.

Pass ``infinite=True`` to build the *Infinite Interconnect BW* fabric of
the paper's limit study: the same API, zero-cost transfers.
"""

from __future__ import annotations

import typing
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.interconnect.link import Link
from repro.interconnect.route import (Route, Then, TransferReceipt,
                                      check_transfer, route_between)
from repro.interconnect.specs import (
    TOPOLOGY_ALL_TO_ALL,
    TOPOLOGY_CUBE_MESH,
    TOPOLOGY_PCIE_TREE,
    TOPOLOGY_SWITCH,
    InterconnectSpec,
)
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Fabric:
    """All interconnect links and routes of one system."""

    def __init__(self, engine: "Engine", spec: InterconnectSpec, num_gpus: int,
                 infinite: bool = False, gpu_base: int = 0,
                 fmt=None) -> None:
        if num_gpus < 1:
            raise ConfigurationError(f"need at least 1 GPU: {num_gpus}")
        if gpu_base < 0:
            raise ConfigurationError(f"negative GPU base: {gpu_base}")
        self.engine = engine
        self.spec = spec
        #: Wire framing applied to every link.  Defaults to the
        #: interconnect's protocol format; the ``packet_overhead``
        #: ablation overrides it with a zero-overhead variant.
        self.fmt = fmt if fmt is not None else spec.fmt
        self.num_gpus = num_gpus
        #: First global GPU id in this fabric.  A standalone system keeps
        #: the default 0; a cluster node fabric is offset so its link
        #: names and route keys speak global GPU ids directly.
        self.gpu_base = gpu_base
        self.infinite = infinite
        self.links: List[Link] = []
        #: GPU-side links into/out of the shared switch, by local index —
        #: populated by the switch-routed topologies (pcie_tree, switch)
        #: and used by the cluster fabric to splice NIC routes onto the
        #: intra-node switch.  Empty for point-to-point topologies.
        self.uplinks: List[Link] = []
        self.downlinks: List[Link] = []
        self._routes: Dict[Tuple[int, int], Route] = {}
        if num_gpus > 1:
            self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_link(self, name: str, bandwidth: float) -> Link:
        link = Link(self.engine, name, bandwidth, self.fmt)
        self.links.append(link)
        return link

    def _build(self) -> None:
        builders = {
            TOPOLOGY_PCIE_TREE: self._build_pcie_tree,
            TOPOLOGY_ALL_TO_ALL: self._build_all_to_all,
            TOPOLOGY_SWITCH: self._build_switch,
            TOPOLOGY_CUBE_MESH: self._build_cube_mesh,
        }
        builders[self.spec.topology]()

    def _build_pcie_tree(self) -> None:
        self._build_star("pcie")

    def _build_all_to_all(self) -> None:
        base = self.gpu_base
        peers = self.num_gpus - 1
        per_peer_direction = self.spec.unidir_bw_per_gpu / peers
        for src in range(self.num_gpus):
            for dst in range(self.num_gpus):
                if src == dst:
                    continue
                link = self._new_link(
                    f"nvlink:gpu{base + src}->gpu{base + dst}",
                    per_peer_direction)
                self._routes[(base + src, base + dst)] = route_between(
                    self.engine, base + src, base + dst, [link],
                    self.spec.latency, infinite=self.infinite)

    def _build_switch(self) -> None:
        self._build_star("nvsw")

    def _build_star(self, prefix: str) -> None:
        """Shared-switch star: one up/down link pair per GPU."""
        base = self.gpu_base
        per_direction = self.spec.unidir_bw_per_gpu
        self.uplinks = [
            self._new_link(f"{prefix}:gpu{base + i}->sw", per_direction)
            for i in range(self.num_gpus)]
        self.downlinks = [
            self._new_link(f"{prefix}:sw->gpu{base + i}", per_direction)
            for i in range(self.num_gpus)]
        for src in range(self.num_gpus):
            for dst in range(self.num_gpus):
                if src == dst:
                    continue
                self._routes[(base + src, base + dst)] = route_between(
                    self.engine, base + src, base + dst,
                    [self.uplinks[src], self.downlinks[dst]],
                    self.spec.latency, infinite=self.infinite)

    def _build_cube_mesh(self) -> None:
        """DGX-1-style hybrid cube mesh (exactly eight GPUs).

        GPUs 0-3 and 4-7 form fully-connected quads; GPU *i* additionally
        links to *i+4*.  Each GPU therefore has four link pairs sharing
        its aggregate bandwidth.  Pairs like (0, 5) have no direct link
        and route through the peer in the source quad that owns the
        needed cross link (0 -> 1 -> 5).
        """
        if self.num_gpus != 4 and self.num_gpus != 8:
            raise ConfigurationError(
                f"cube mesh needs 4 or 8 GPUs, got {self.num_gpus}")
        if self.num_gpus == 4:
            # A half cube degenerates to a fully-connected quad.
            self._build_all_to_all()
            return
        base = self.gpu_base
        per_link = self.spec.unidir_bw_per_gpu / 4  # 3 quad + 1 cross
        links: Dict[Tuple[int, int], Link] = {}

        def connect(a: int, b: int) -> None:
            links[(a, b)] = self._new_link(
                f"nvlink:gpu{base + a}->gpu{base + b}", per_link)
            links[(b, a)] = self._new_link(
                f"nvlink:gpu{base + b}->gpu{base + a}", per_link)

        for half in (0, 4):
            for i in range(half, half + 4):
                for j in range(i + 1, half + 4):
                    connect(i, j)
        for i in range(4):
            connect(i, i + 4)
        for src in range(8):
            for dst in range(8):
                if src == dst:
                    continue
                if (src, dst) in links:
                    hops = [links[(src, dst)]]
                else:
                    # Cross-quad, non-partner pair: hop to the peer in
                    # the source quad that owns the destination's cross
                    # link (e.g. 0 -> 5 routes 0 -> 1 -> 5).
                    intermediate = (dst % 4) + (src // 4) * 4
                    hops = [links[(src, intermediate)],
                            links[(intermediate, dst)]]
                self._routes[(base + src, base + dst)] = route_between(
                    self.engine, base + src, base + dst, hops,
                    self.spec.latency * len(hops),
                    infinite=self.infinite)

    # ------------------------------------------------------------------
    # Transfers and introspection
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> Route:
        """The route between two distinct GPUs."""
        if src == dst:
            raise ConfigurationError(f"no route from GPU {src} to itself")
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise ConfigurationError(
                f"no route {src}->{dst} in a {self.num_gpus}-GPU fabric"
            ) from None

    def send(self, src: int, dst: int, nbytes: int, access_size: int,
             then: Then = None) -> Optional[Event]:
        """Start a transfer; returns its completion event.

        Given a completion callable ``then``, no event is built and
        ``None`` is returned; ``then()`` runs when the transfer completes
        (see :meth:`Route.transfer`).

        A send from a GPU to itself is a validated zero-cost local copy
        (no link is crossed, nothing is accounted) — degenerate
        schedules such as a ring collective on a 1-GPU system hit this
        path, and must not depend on what a route lookup happens to do.
        """
        if src == dst:
            return self._local_copy(src, nbytes, access_size, then)
        return self.route(src, dst).transfer(nbytes, access_size, then)

    def _local_copy(self, gpu: int, nbytes: int, access_size: int,
                    then: Then = None) -> Optional[Event]:
        """An immediately-complete self-transfer with full validation;
        ``then()``, if given, runs synchronously."""
        lo, hi = self.gpu_base, self.gpu_base + self.num_gpus - 1
        if not lo <= gpu <= hi:
            raise ConfigurationError(f"GPU {gpu} out of range {lo}..{hi}")
        check_transfer(nbytes, access_size)
        if then is not None:
            then()
            return None
        event = Event(self.engine)
        event.succeed(TransferReceipt(
            src=gpu, dst=gpu, payload_bytes=nbytes, wire_bytes=0,
            access_size=access_size, start_time=self.engine.now,
            end_time=self.engine.now))
        return event

    @property
    def collective_access_size(self) -> int:
        """Bulk access size collective transfers are issued at.

        The flat fabric uses its protocol's max payload; the cluster
        fabric widens this to the NIC MTU so RDMA framing stays
        efficient (see :class:`repro.cluster.ClusterFabric`).
        """
        return self.spec.fmt.max_payload

    def peak_p2p_bandwidth(self, src: int, dst: int) -> float:
        """Raw wire bandwidth of the bottleneck link between two GPUs."""
        return self.route(src, dst).bottleneck_bandwidth

    def total_goodput_bytes(self) -> int:
        return sum(link.goodput_bytes for link in self.links)

    def total_wire_bytes(self) -> int:
        return sum(link.wire_bytes for link in self.links)

    def observed_efficiency(self) -> float:
        """Goodput fraction across everything the fabric carried."""
        wire = self.total_wire_bytes()
        if wire == 0:
            return 0.0
        return self.total_goodput_bytes() / wire
