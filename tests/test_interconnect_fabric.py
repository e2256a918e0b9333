"""Unit tests for fabric topologies built from Table I specs."""

import pytest

from repro.errors import ConfigurationError
from repro.interconnect import (
    NVLINK1,
    NVLINK2,
    NVSWITCH,
    PCIE3,
    Fabric,
)
from repro.sim import Engine
from repro.sim.trace import Tracer


# ---------------------------------------------------------------------------
# Topology construction
# ---------------------------------------------------------------------------

def test_pcie_tree_link_count():
    fabric = Fabric(Engine(), PCIE3, num_gpus=4)
    # One up + one down link per GPU.
    assert len(fabric.links) == 8


def test_all_to_all_link_count():
    fabric = Fabric(Engine(), NVLINK1, num_gpus=4)
    # A unidirectional link per ordered GPU pair.
    assert len(fabric.links) == 4 * 3


def test_switch_link_count():
    fabric = Fabric(Engine(), NVSWITCH, num_gpus=16)
    assert len(fabric.links) == 32


def test_single_gpu_fabric_has_no_links():
    fabric = Fabric(Engine(), NVLINK2, num_gpus=1)
    assert fabric.links == []


def test_zero_gpus_rejected():
    with pytest.raises(ConfigurationError):
        Fabric(Engine(), NVLINK2, num_gpus=0)


# ---------------------------------------------------------------------------
# Bandwidth partitioning (Table I aggregate figures)
# ---------------------------------------------------------------------------

def test_pcie_p2p_bandwidth_is_half_bidir():
    fabric = Fabric(Engine(), PCIE3, num_gpus=4)
    assert fabric.peak_p2p_bandwidth(0, 1) == pytest.approx(8e9)


def test_nvlink_mesh_divides_bandwidth_among_peers():
    fabric = Fabric(Engine(), NVLINK1, num_gpus=4)
    # 150 GB/s bidir aggregate -> 75 GB/s per direction -> /3 peers.
    assert fabric.peak_p2p_bandwidth(0, 1) == pytest.approx(25e9)


def test_nvlink2_mesh_bandwidth():
    fabric = Fabric(Engine(), NVLINK2, num_gpus=4)
    assert fabric.peak_p2p_bandwidth(0, 1) == pytest.approx(50e9)


def test_nvswitch_full_bandwidth_per_pair():
    fabric = Fabric(Engine(), NVSWITCH, num_gpus=16)
    # Crossbar: any pair can use the full per-direction rate.
    assert fabric.peak_p2p_bandwidth(0, 15) == pytest.approx(150e9)


# ---------------------------------------------------------------------------
# Routing behaviour
# ---------------------------------------------------------------------------

def test_route_to_self_rejected():
    fabric = Fabric(Engine(), NVLINK1, num_gpus=4)
    with pytest.raises(ConfigurationError):
        fabric.route(2, 2)


def test_route_out_of_range_rejected():
    fabric = Fabric(Engine(), NVLINK1, num_gpus=4)
    with pytest.raises(ConfigurationError):
        fabric.route(0, 7)


def test_send_moves_bytes():
    engine = Engine()
    fabric = Fabric(engine, NVLINK2, num_gpus=4)
    receipt = engine.run(until=fabric.send(0, 1, 1 << 20, access_size=256))
    assert receipt.payload_bytes == 1 << 20
    assert fabric.total_goodput_bytes() == 1 << 20
    assert fabric.total_wire_bytes() > 1 << 20
    assert 0.8 < fabric.observed_efficiency() < 1.0


def test_mesh_pairs_do_not_contend():
    """Disjoint GPU pairs on an all-to-all mesh transfer independently."""
    engine = Engine()
    fabric = Fabric(engine, NVLINK2, num_gpus=4)
    payload = 4 << 20
    d1 = fabric.send(0, 1, payload, 256)
    d2 = fabric.send(2, 3, payload, 256)
    engine.run(until=engine.all_of([d1, d2]))
    parallel_time = engine.now

    engine2 = Engine()
    fabric2 = Fabric(engine2, NVLINK2, num_gpus=4)
    engine2.run(until=fabric2.send(0, 1, payload, 256))
    solo_time = engine2.now
    assert parallel_time == pytest.approx(solo_time, rel=0.01)


def test_pcie_tree_shares_source_uplink():
    """Two transfers from one GPU to different peers share its uplink."""
    engine = Engine()
    fabric = Fabric(engine, PCIE3, num_gpus=4)
    payload = 4 << 20
    d1 = fabric.send(0, 1, payload, 256)
    d2 = fabric.send(0, 2, payload, 256)
    engine.run(until=engine.all_of([d1, d2]))
    shared_time = engine.now

    engine2 = Engine()
    fabric2 = Fabric(engine2, PCIE3, num_gpus=4)
    engine2.run(until=fabric2.send(0, 1, payload, 256))
    solo_time = engine2.now
    assert shared_time == pytest.approx(2 * solo_time, rel=0.05)


def test_infinite_fabric_transfers_cost_nothing():
    engine = Engine()
    fabric = Fabric(engine, NVLINK2, num_gpus=4, infinite=True)
    engine.run(until=fabric.send(0, 1, 1 << 30, access_size=4))
    assert engine.now == 0.0


@pytest.mark.parametrize("infinite, src, dst, nbytes", [
    (False, 0, 1, 1 << 20),   # a routed transfer
    (False, 0, 1, 0),         # zero bytes: the instant path
    (True, 0, 1, 1 << 20),    # an infinite route
    (False, 2, 2, 1 << 20),   # a self-send: the local copy
], ids=["routed", "zero-byte", "infinite", "self"])
def test_send_then_runs_when_the_receipt_would_fire(infinite, src, dst,
                                                    nbytes):
    engine = Engine()
    fabric = Fabric(engine, NVLINK2, num_gpus=4, infinite=infinite)
    receipt = engine.run(until=fabric.send(src, dst, nbytes, 256))

    tracer = Tracer()
    engine2 = Engine(tracer=tracer)
    fabric2 = Fabric(engine2, NVLINK2, num_gpus=4, infinite=infinite)
    fired = []
    assert fabric2.send(src, dst, nbytes, 256,
                        then=lambda: fired.append(engine2.now)) is None
    # Transfers that take no time complete synchronously.
    assert fired == ([0.0] if receipt.end_time == 0.0 else [])
    engine2.run()
    assert fired == [receipt.end_time]
    # Only the receipt event is saved; the trace span stays.
    assert engine2.events_fired == engine.events_fired - 1
    spans = [record for record in tracer.records
             if record.channel == f"gpu{src}.transfer"]
    assert len(spans) == (0 if src == dst else 1)


def test_broadcast_from_one_gpu_on_switch_is_serialized_by_uplink():
    """On NVSwitch, a GPU duplicating data to all peers is uplink-bound."""
    engine = Engine()
    fabric = Fabric(engine, NVSWITCH, num_gpus=4)
    payload = 8 << 20
    sends = [fabric.send(0, dst, payload, 256) for dst in (1, 2, 3)]
    engine.run(until=engine.all_of(sends))
    wire = NVSWITCH.fmt.message_wire_bytes(payload, 256)
    expected = 3 * wire / 150e9
    assert engine.now == pytest.approx(expected, rel=0.05)
