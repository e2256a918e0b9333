"""Executor tests: collectives running on the simulated fabric.

Covers the acceptance properties:

* every GPU ends an all-reduce holding the identical fully-reduced
  payload (contributor accounting over the executed schedule);
* ring all-reduce sources exactly ``2 (N-1)/N * nbytes`` per GPU;
* chunked ring beats the unchunked direct bulk exchange on at least one
  platform, while tree beats ring at small payloads on at least one;
* an op's completion releases its successors one zero-delay engine step
  after its delivery (pinned durations), on every transfer path.
"""

import pytest

from repro.api import Session
from repro.cluster import cluster_platform
from repro.collectives import (
    ALGO_DIRECT,
    ALGO_HIERARCHICAL,
    ALGO_RING,
    ALGO_TREE,
    ALL_COLLECTIVES,
    COLL_ALL_REDUCE,
    COLL_BROADCAST,
    CollectiveExecutor,
    CollectiveSchedule,
    TransferOp,
    build_schedule,
    supported_algorithms,
    verify_schedule,
)
from repro.collectives.schedule import MODE_COPY
from repro.errors import CollectiveError, ConfigurationError
from repro.hw.platform import PLATFORMS
from repro.interconnect.route import TransferReceipt
from repro.obs.metrics import MetricsRegistry
from repro.runtime.system import System
from repro.sim.trace import Tracer
from repro.units import KiB, MiB

TABLE_I = ("4x_kepler", "4x_pascal", "4x_volta", "16x_volta")


# ---------------------------------------------------------------------------
# Every collective x algorithm runs on every Table I platform
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("platform_name", TABLE_I)
def test_all_collectives_run_on_every_platform(platform_name):
    platform = PLATFORMS[platform_name]
    for collective in ALL_COLLECTIVES:
        for algorithm in supported_algorithms(collective,
                                              platform.num_gpus):
            result = Session(platform).collective(
                collective, 1 * MiB, algorithm=algorithm, chunk_size=256 * KiB)
            assert result.duration > 0
            assert result.bus_bandwidth > 0
            assert result.op_count > 0
            assert result.collective == collective
            assert result.algorithm == algorithm
            assert result.num_gpus == platform.num_gpus


def test_all_reduce_accounting_is_identical_everywhere():
    # Property (a): after all-reduce, every GPU's every chunk carries
    # contributions from every GPU — the same fully-reduced value.
    for algorithm in (ALGO_DIRECT, ALGO_RING, ALGO_TREE):
        schedule = build_schedule(COLL_ALL_REDUCE, algorithm, 4,
                                  1 * MiB + 13, 128 * KiB)
        buffers = verify_schedule(schedule)
        everyone = frozenset(range(4))
        reference = buffers[0]
        for gpu in range(4):
            assert buffers[gpu] == reference
            assert all(payload == everyone
                       for payload in buffers[gpu].values())
        # And the executed run agrees with the schedule's accounting.
        result = Session(PLATFORMS["4x_volta"]).collective(
            COLL_ALL_REDUCE, 1 * MiB + 13, algorithm=algorithm,
            chunk_size=128 * KiB)
        assert result.sent_bytes == tuple(
            schedule.sent_bytes(gpu) for gpu in range(4))


def test_ring_all_reduce_wire_bytes_are_bandwidth_optimal():
    # Property (b): each GPU sources exactly 2 (N-1)/N of the payload.
    for platform_name, num_gpus in (("4x_volta", 4), ("16x_volta", 16)):
        nbytes = 8 * MiB
        result = Session(PLATFORMS[platform_name]).collective(
            COLL_ALL_REDUCE, nbytes, algorithm=ALGO_RING, chunk_size=256 * KiB)
        expected = 2 * (num_gpus - 1) * nbytes // num_gpus
        assert result.sent_bytes == (expected,) * num_gpus


def test_chunked_ring_beats_direct_bulk_and_tree_beats_ring_small():
    # Property (c), bandwidth side: on the PCIe tree the direct exchange
    # crams N*(N-1) bulk messages through shared root links; the chunked
    # ring pipelines disjoint link pairs.
    kepler = PLATFORMS["4x_kepler"]
    nbytes = 16 * MiB
    ring = Session(kepler).collective(
        COLL_ALL_REDUCE, nbytes, algorithm=ALGO_RING, chunk_size=256 * KiB)
    bulk = Session(kepler).collective(
        COLL_ALL_REDUCE, nbytes, algorithm=ALGO_DIRECT, chunk_size=nbytes)
    assert ring.duration < bulk.duration

    # Latency side: at small payloads the 16-GPU ring pays 2(N-1) = 30
    # serial hops; the tree finishes in 2 log2(N) = 8 rounds.
    volta16 = PLATFORMS["16x_volta"]
    small = 64 * KiB
    ring_small = Session(volta16).collective(
        COLL_ALL_REDUCE, small, algorithm=ALGO_RING, chunk_size=16 * KiB)
    tree_small = Session(volta16).collective(
        COLL_ALL_REDUCE, small, algorithm=ALGO_TREE, chunk_size=16 * KiB)
    assert tree_small.duration < ring_small.duration


def test_chunking_overlaps_ring_hops():
    # Pipelining: on a multi-hop bandwidth-bound broadcast, fine chunks
    # must beat one bulk message per hop (store-and-forward).
    kepler = PLATFORMS["4x_kepler"]
    nbytes = 16 * MiB
    chunked = Session(kepler).collective(
        "broadcast", nbytes, algorithm=ALGO_RING, chunk_size=256 * KiB)
    bulk = Session(kepler).collective(
        "broadcast", nbytes, algorithm=ALGO_RING, chunk_size=nbytes)
    assert chunked.duration < bulk.duration


# ---------------------------------------------------------------------------
# System entry point, loopback, misuse
# ---------------------------------------------------------------------------

def test_system_collective_entry_point():
    system = Session("4x_volta").system()
    proc = system.collective("all_reduce", 4 * MiB, algorithm="ring",
                             chunk_size=256 * KiB)
    result = system.run(until=proc)
    assert result.collective == "all_reduce"
    assert result.duration > 0
    # Default chunk size comes from the PROACT config knob.
    from repro.core.config import DEFAULT_CONFIG
    proc = system.collective("broadcast", 1 * MiB)
    assert system.run(until=proc).chunk_size == DEFAULT_CONFIG.chunk_size


def test_fabric_send_to_self_is_zero_cost():
    system = Session("4x_volta").system()
    event = system.fabric.send(2, 2, 1 * MiB, access_size=256)
    receipt = system.run(until=event)
    assert isinstance(receipt, TransferReceipt)
    assert receipt.src == receipt.dst == 2
    assert receipt.wire_bytes == 0
    assert receipt.payload_bytes == 1 * MiB
    assert receipt.end_time == receipt.start_time == 0.0
    assert system.now == 0.0


def test_fabric_send_to_self_still_validates():
    system = Session("4x_volta").system()
    with pytest.raises(ConfigurationError):
        system.fabric.send(7, 7, 1 * MiB, access_size=256)
    with pytest.raises(ConfigurationError):
        system.fabric.send(1, 1, -1, access_size=256)
    with pytest.raises(ConfigurationError):
        system.fabric.send(1, 1, 1 * MiB, access_size=0)
    # route() keeps rejecting self-routes: only send() has the loopback.
    with pytest.raises(ConfigurationError):
        system.fabric.route(1, 1)


def test_single_gpu_collective_completes_instantly():
    system = System(PLATFORMS["4x_volta"], num_gpus=1)
    proc = system.collective("all_reduce", 16 * MiB)
    result = system.run(until=proc)
    assert result.duration == 0.0


def test_collective_on_infinite_fabric_finishes_at_time_zero():
    system = System(PLATFORMS["4x_volta"], infinite_bw=True)
    proc = system.collective("all_reduce", 16 * MiB, chunk_size=1 * MiB)
    result = system.run(until=proc)
    assert result.start_time == result.end_time == 0.0
    assert result.sent_bytes == (2 * 3 * 16 * MiB // 4,) * 4


def test_zero_byte_op_releases_its_successor():
    # A 0 -> 1 -> 2 -> 3 chain whose middle op moves nothing: it
    # completes at once, and the last op still waits for the first.
    ops = (TransferOp(0, 0, 0, 1, 1 * MiB, 0, 0, MODE_COPY),
           TransferOp(1, 1, 1, 2, 0, 0, 0, MODE_COPY, deps=(0,)),
           TransferOp(2, 2, 2, 3, 1 * MiB, 0, 0, MODE_COPY, deps=(1,)))
    schedule = CollectiveSchedule(COLL_BROADCAST, ALGO_RING, 4, 1 * MiB,
                                  1 * MiB, 0, ops)
    tracer = Tracer()
    system = System(PLATFORMS["4x_volta"], tracer=tracer)
    result = system.run(until=CollectiveExecutor(system).launch(schedule))

    reference = System(PLATFORMS["4x_volta"])
    one_send = reference.run(until=reference.fabric.send(
        0, 1, 1 * MiB, reference.fabric.collective_access_size)).duration
    assert result.op_count == 3
    assert result.duration == pytest.approx(2 * one_send, rel=1e-12)
    assert result.sent_bytes == (1 * MiB, 0, 1 * MiB, 0)
    coll_spans = [record for record in tracer.records
                  if record.channel.endswith(".coll")]
    assert [record.channel for record in coll_spans] == [
        "gpu0.coll", "gpu1.coll", "gpu2.coll"]
    assert coll_spans[1].time == coll_spans[1].end == coll_spans[0].end


# ---------------------------------------------------------------------------
# Same-instant completions: the one-step rule
# ---------------------------------------------------------------------------

#: (platform, collective, algorithm, payload, chunk, duration).  Each
#: duration moves if an op's successors are sent inside its delivery
#: instead of one zero-delay engine step after it, since same-instant
#: completions then interleave with other deliveries differently.
TIE_RULE_PINS = (
    ("16x_volta", "broadcast", ALGO_RING, 1 * MiB, 256 * KiB,
     6.909264000000013e-05),
    ("8x_ampere", "all_reduce", ALGO_RING, 16 * MiB, 1 * MiB,
     0.00011337167999999892),
    ("cluster2", "all_reduce", ALGO_HIERARCHICAL, 16 * MiB, 1 * MiB,
     0.0009099561599999989),
)


@pytest.mark.parametrize(
    "platform_name, collective, algorithm, nbytes, chunk_size, duration",
    TIE_RULE_PINS, ids=[pin[0] for pin in TIE_RULE_PINS])
def test_completion_releases_successors_one_step_after_delivery(
        platform_name, collective, algorithm, nbytes, chunk_size, duration):
    platform = (cluster_platform(2) if platform_name == "cluster2"
                else PLATFORMS[platform_name])
    result = Session(platform).collective(
        collective, nbytes, algorithm=algorithm, chunk_size=chunk_size)
    assert result.duration == duration


def test_executor_rejects_mismatched_gpu_count():
    system = Session("4x_volta").system()
    schedule = build_schedule(COLL_ALL_REDUCE, ALGO_RING, 8, 1 * MiB,
                              256 * KiB)
    with pytest.raises(CollectiveError):
        CollectiveExecutor(system).launch(schedule)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

def test_collective_steps_are_traced_into_gpu_lanes():
    tracer = Tracer()
    metrics = MetricsRegistry()
    system = System(PLATFORMS["4x_volta"], tracer=tracer, metrics=metrics)
    proc = system.collective("all_reduce", 1 * MiB, algorithm="ring",
                             chunk_size=256 * KiB)
    system.run(until=proc)

    channels = {record.channel for record in tracer.records}
    for gpu in range(4):
        assert f"gpu{gpu}.coll" in channels
    assert "collective" in channels
    spans = [record for record in tracer.records
             if record.channel == "collective"]
    assert spans and spans[0].label == "all_reduce:ring"

    snapshot = metrics.snapshot()
    assert any("collective_runtime_ms" in key
               for key in snapshot["histograms"])
    assert any("collective_bytes" in key for key in snapshot["counters"])
