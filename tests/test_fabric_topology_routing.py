"""Topology routing invariants: route symmetry and link disjointness.

These are the structural properties the collective algorithms lean on:
mirrored link pairs mean a ring's forward hop never contends with the
reverse direction, and disjoint per-hop link sets are what make the
ring's N simultaneous hops bandwidth-optimal on every topology.
"""

import itertools

import pytest

from repro.api import Session

#: One representative platform per physical topology.
TOPOLOGY_PLATFORMS = ("4x_kepler", "4x_pascal", "16x_volta")


def _mirror(name: str) -> str:
    """The opposite-direction link of a directed link, by name."""
    prefix, _, path = name.partition(":")
    a, _, b = path.partition("->")
    return f"{prefix}:{b}->{a}"


@pytest.mark.parametrize("platform_name", TOPOLOGY_PLATFORMS)
def test_routes_exist_between_every_distinct_pair(platform_name):
    system = Session(platform_name).system()
    for src, dst in itertools.permutations(range(system.num_gpus), 2):
        route = system.fabric.route(src, dst)
        assert route.src == src and route.dst == dst
        assert route.links
        assert route.bottleneck_bandwidth > 0


@pytest.mark.parametrize("platform_name", TOPOLOGY_PLATFORMS)
def test_route_symmetry_uses_mirrored_link_pairs(platform_name):
    # The reverse route must cross exactly the mirror of each forward
    # link, in reverse hop order — full-duplex pairs, no shared wires.
    system = Session(platform_name).system()
    all_names = {link.name for link in system.fabric.links}
    for src, dst in itertools.combinations(range(system.num_gpus), 2):
        forward = [link.name for link in system.fabric.route(src, dst).links]
        reverse = [link.name for link in system.fabric.route(dst, src).links]
        assert reverse == [_mirror(name) for name in reversed(forward)]
        # Directions are distinct physical links, each owned by the fabric.
        assert not set(forward) & set(reverse)
        assert set(forward) | set(reverse) <= all_names


@pytest.mark.parametrize("platform_name", TOPOLOGY_PLATFORMS)
def test_every_link_has_its_mirror(platform_name):
    system = Session(platform_name).system()
    names = {link.name for link in system.fabric.links}
    assert len(names) == len(system.fabric.links)  # no duplicate links
    for name in names:
        assert _mirror(name) in names


@pytest.mark.parametrize("platform_name", TOPOLOGY_PLATFORMS)
def test_endpoint_disjoint_routes_share_no_links(platform_name):
    # Any two routes with disjoint endpoint sets must be link-disjoint:
    # the reason a ring's N simultaneous hops all run at full speed.
    system = Session(platform_name).system()
    fabric = system.fabric
    pairs = list(itertools.permutations(range(system.num_gpus), 2))
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        if {a, b} & {c, d}:
            continue
        links_ab = {id(link) for link in fabric.route(a, b).links}
        links_cd = {id(link) for link in fabric.route(c, d).links}
        assert not links_ab & links_cd, (a, b, c, d)


@pytest.mark.parametrize("platform_name", TOPOLOGY_PLATFORMS)
def test_ring_hops_are_pairwise_link_disjoint(platform_name):
    # The exact schedule the ring algorithm issues: every GPU sends to
    # its successor simultaneously; no two hops may share a link.
    system = Session(platform_name).system()
    n = system.num_gpus
    hop_links = [
        {id(link)
         for link in system.fabric.route(gpu, (gpu + 1) % n).links}
        for gpu in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        assert not hop_links[i] & hop_links[j], (i, j)


@pytest.mark.parametrize("platform_name", TOPOLOGY_PLATFORMS)
def test_every_link_serves_some_route(platform_name):
    system = Session(platform_name).system()
    used = set()
    for src, dst in itertools.permutations(range(system.num_gpus), 2):
        used.update(id(link) for link in system.fabric.route(src, dst).links)
    assert used == {id(link) for link in system.fabric.links}
