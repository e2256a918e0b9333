"""Unit tests for links, routes, and transfer accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.interconnect import NVLINK_FORMAT, PCIE3_FORMAT, Link
from repro.interconnect.route import InfiniteRoute, Route
from repro.sim import Engine


def make_link(engine, bandwidth=1e9, fmt=NVLINK_FORMAT, quantum=64 * 1024,
              name="test-link"):
    return Link(engine, name, bandwidth, fmt, quantum)


# ---------------------------------------------------------------------------
# Link basics
# ---------------------------------------------------------------------------

def test_link_rejects_bad_parameters():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        Link(engine, "l", 0.0, NVLINK_FORMAT)
    with pytest.raises(ConfigurationError):
        Link(engine, "l", 1e9, NVLINK_FORMAT, quantum=0)


def test_link_service_time():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9)
    assert link.service_time(1_000_000) == pytest.approx(1e-3)


def test_link_efficiency_accounting():
    engine = Engine()
    link = make_link(engine)
    assert link.efficiency() == 0.0
    link.account(0.0, 1.0, goodput=80, wire=100)
    assert link.efficiency() == pytest.approx(0.8)
    assert link.utilization(over_seconds=2.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Route transfers
# ---------------------------------------------------------------------------

def test_route_transfer_duration_includes_overhead_and_latency():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9, quantum=1 << 30)
    route = Route(engine, 0, 1, [link], latency=1e-6)
    payload = 256 * 1024
    done = route.transfer(payload, access_size=256)
    receipt = engine.run(until=done)
    wire = NVLINK_FORMAT.message_wire_bytes(payload, 256)
    assert receipt.wire_bytes == wire
    assert receipt.duration == pytest.approx(wire / 1e9 + 1e-6)


def test_route_transfer_fine_grained_is_slower():
    def timed(access_size):
        engine = Engine()
        link = make_link(engine, bandwidth=1e9)
        route = Route(engine, 0, 1, [link], latency=0.0)
        done = route.transfer(1024 * 1024, access_size=access_size)
        receipt = engine.run(until=done)
        return receipt.duration

    assert timed(4) > 5 * timed(256)


def test_route_two_links_bottlenecked_by_slowest():
    engine = Engine()
    fast = make_link(engine, bandwidth=10e9, name="fast")
    slow = make_link(engine, bandwidth=1e9, name="slow")
    route = Route(engine, 0, 1, [fast, slow], latency=0.0)
    assert route.bottleneck_bandwidth == 1e9
    done = route.transfer(1024 * 1024, access_size=256)
    receipt = engine.run(until=done)
    wire = NVLINK_FORMAT.message_wire_bytes(1024 * 1024, 256)
    assert receipt.duration == pytest.approx(wire / 1e9, rel=0.01)


def test_concurrent_transfers_share_link():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9, quantum=16 * 1024)
    route = Route(engine, 0, 1, [link], latency=0.0)
    payload = 512 * 1024
    done_a = route.transfer(payload, access_size=256)
    done_b = route.transfer(payload, access_size=256)
    both = engine.all_of([done_a, done_b])
    engine.run(until=both)
    wire = NVLINK_FORMAT.message_wire_bytes(payload, 256)
    # Two equal flows on one link take twice the solo time in total.
    assert engine.now == pytest.approx(2 * wire / 1e9, rel=0.02)
    # And they interleave: both complete near the end, not one at halftime.
    assert done_a.value.end_time > 0.9 * engine.now


def test_transfer_accounts_link_stats():
    engine = Engine()
    link = make_link(engine)
    route = Route(engine, 0, 1, [link], latency=0.0)
    engine.run(until=route.transfer(100_000, access_size=128))
    assert link.goodput_bytes == 100_000
    assert link.wire_bytes == NVLINK_FORMAT.message_wire_bytes(100_000, 128)
    assert 0.0 < link.efficiency() < 1.0


def test_zero_byte_transfer_completes_immediately():
    engine = Engine()
    link = make_link(engine)
    route = Route(engine, 0, 1, [link], latency=1e-6)
    receipt = engine.run(until=route.transfer(0, access_size=128))
    assert receipt.payload_bytes == 0
    assert receipt.wire_bytes == 0
    assert engine.now == 0.0  # no latency charged when nothing moves


def test_route_validation():
    engine = Engine()
    link = make_link(engine)
    with pytest.raises(ConfigurationError):
        Route(engine, 0, 1, [], latency=0.0)
    with pytest.raises(ConfigurationError):
        Route(engine, 0, 1, [link], latency=-1.0)
    route = Route(engine, 0, 1, [link], latency=0.0)
    with pytest.raises(ConfigurationError):
        route.transfer(-1, access_size=4)
    with pytest.raises(ConfigurationError):
        route.transfer(100, access_size=0)


def test_infinite_route_is_instantaneous():
    engine = Engine()
    link = make_link(engine)
    route = InfiniteRoute(engine, 0, 1, link)
    receipt = engine.run(until=route.transfer(1 << 30, access_size=4))
    assert engine.now == 0.0
    assert receipt.payload_bytes == 1 << 30
    assert receipt.wire_bytes == 0


def test_pcie_format_transfer_uses_pcie_framing():
    engine = Engine()
    link = make_link(engine, fmt=PCIE3_FORMAT)
    route = Route(engine, 0, 1, [link], latency=0.0)
    engine.run(until=route.transfer(4096, access_size=4))
    assert link.wire_bytes == PCIE3_FORMAT.message_wire_bytes(4096, 4)


def test_infinite_route_validates_like_every_route():
    engine = Engine()
    route = InfiniteRoute(engine, 0, 1, make_link(engine))
    with pytest.raises(ConfigurationError):
        route.transfer(-5, access_size=4)
    with pytest.raises(ConfigurationError):
        route.transfer(100, access_size=0)


# ---------------------------------------------------------------------------
# The link as a FIFO quantum server
# ---------------------------------------------------------------------------

Q = 64 * 1024


def full_quantum_service(link, access_size=256):
    return link.service_time(link.format.message_wire_bytes(Q, access_size))


def after(*services):
    """Simulated time after back-to-back services, summed as the engine
    advances its clock (so equality below is exact)."""
    now = 0.0
    for service in services:
        now += service
    return now


def test_equal_flows_round_robin_by_quantum():
    engine = Engine()
    link = make_link(engine, bandwidth=1e9)
    route = Route(engine, 0, 1, [link], latency=0.0)
    done_a = route.transfer(4 * Q, access_size=256)
    done_b = route.transfer(4 * Q, access_size=256)
    engine.run()
    s = full_quantum_service(link)
    assert done_a.value.end_time == after(*[s] * 7)
    assert done_b.value.end_time == after(*[s] * 8)


def two_hop_route(engine):
    fast = make_link(engine, bandwidth=10e9, name="fast")
    slow = make_link(engine, bandwidth=1e9, name="slow")
    return fast, slow, Route(engine, 0, 1, [fast, slow], latency=0.0)


def test_quanta_pipeline_across_hops():
    engine = Engine()
    fast, slow, route = two_hop_route(engine)
    receipt = engine.run(until=route.transfer(4 * Q, access_size=256))
    s_fast, s_slow = full_quantum_service(fast), full_quantum_service(slow)
    assert receipt.end_time == after(s_fast, *[s_slow] * 4)


def test_flow_on_the_fast_hop_only_is_not_held_up_by_the_slow_one():
    engine = Engine()
    fast, slow, long_route = two_hop_route(engine)
    short_route = Route(engine, 0, 2, [fast], latency=0.0)
    long_done = long_route.transfer(4 * Q, access_size=256)
    short_done = short_route.transfer(Q, access_size=256)
    receipt = engine.run(until=short_done)
    s_fast = full_quantum_service(fast)
    assert receipt.end_time == after(s_fast, s_fast)
    assert not long_done.processed


def test_flow_just_served_keeps_the_link_over_a_simultaneous_arrival():
    """When a link clears a flow's quantum, that flow offers its next
    quantum at once, so a quantum arriving from upstream at the same
    instant queues behind it; round-robin by quantum resumes after.
    The shared link serves local 0, local 1, relayed 0, local 2,
    relayed 1, local 3."""
    engine = Engine()
    link = make_link(engine, bandwidth=1e9, name="shared")
    upstream = make_link(engine, bandwidth=1e9, name="upstream")
    local = Route(engine, 0, 1, [link], latency=0.0)
    relayed = Route(engine, 2, 1, [upstream, link], latency=0.0)
    local_done = local.transfer(4 * Q, access_size=256)
    relayed_done = relayed.transfer(2 * Q, access_size=256)
    engine.run()
    s = full_quantum_service(link)
    assert relayed_done.value.end_time == after(*[s] * 5)
    assert local_done.value.end_time == after(*[s] * 6)
    # One event per quantum-hop and one per completion: no hand-offs.
    assert engine.events_fired == 4 * 1 + 2 * 2 + 2


@pytest.mark.parametrize("quanta,latency,events", [
    (1, 0.0, 3), (4, 0.0, 9), (4, 1e-6, 10)])
def test_transfer_fires_one_event_per_quantum_hop(quanta, latency, events):
    """n quanta over h hops: n*h services, one completion, one latency."""
    engine = Engine()
    fast, slow, _ = two_hop_route(engine)
    route = Route(engine, 0, 1, [fast, slow], latency=latency)
    route.transfer(quanta * Q, access_size=256)
    engine.run()
    assert engine.events_fired == events
