"""Edge-case and failure-injection tests across the stack."""

import pytest

from repro.core import MECH_POLLING, PollingAgent, ProactConfig
from repro.core.polling import CHUNK_DISPATCH_OVERHEAD
from repro.errors import SimulationError
from repro.hw import PLATFORM_4X_VOLTA
from repro.runtime import System
from repro.sim import Engine
from repro.units import KiB, MiB


# ---------------------------------------------------------------------------
# Polling agent dispatch serialization
# ---------------------------------------------------------------------------

def test_polling_dispatch_serializes_per_chunk():
    """N ready chunks pay N serialized dispatch overheads."""
    system = System(PLATFORM_4X_VOLTA)
    config = ProactConfig(MECH_POLLING, 4 * KiB, 8192,
                          poll_period=1e-9)
    agent = PollingAgent(system, 0, config, destinations=[1],
                         elide_transfers=True)
    agent.start()
    chunks = 64
    for _ in range(chunks):
        agent.chunk_ready(4 * KiB)
    system.run(until=agent.close())
    agent.stop()
    # With transfers elided, the drain time is dominated by the
    # serialized per-chunk dispatch work.
    assert system.now >= chunks * CHUNK_DISPATCH_OVERHEAD
    assert system.now < chunks * CHUNK_DISPATCH_OVERHEAD * 1.5


def test_polling_double_start_rejected():
    system = System(PLATFORM_4X_VOLTA)
    agent = PollingAgent(system, 0,
                         ProactConfig(MECH_POLLING, 64 * KiB, 512),
                         destinations=[1])
    agent.start()
    from repro.errors import ProactError
    with pytest.raises(ProactError):
        agent.start()
    agent.stop()
    with pytest.raises(ProactError):
        agent.stop()


# ---------------------------------------------------------------------------
# Route receipts
# ---------------------------------------------------------------------------

def test_transfer_receipt_fields_consistent():
    system = System(PLATFORM_4X_VOLTA)
    receipt = system.run(until=system.fabric.send(0, 2, 3 * MiB, 128))
    assert receipt.src == 0
    assert receipt.dst == 2
    assert receipt.payload_bytes == 3 * MiB
    assert receipt.access_size == 128
    assert receipt.end_time >= receipt.start_time
    assert receipt.duration == receipt.end_time - receipt.start_time
    assert receipt.wire_bytes > receipt.payload_bytes


def test_many_interleaved_transfers_complete_without_deadlock():
    system = System(PLATFORM_4X_VOLTA)
    sends = []
    for src in range(4):
        for dst in range(4):
            if src != dst:
                sends.append(system.fabric.send(src, dst, 2 * MiB, 256))
    receipts = system.run(until=system.engine.all_of(sends))
    assert len(receipts) == 12
    assert system.fabric.total_goodput_bytes() == 12 * 2 * MiB


# ---------------------------------------------------------------------------
# Engine misuse
# ---------------------------------------------------------------------------

def test_cross_engine_yield_detected():
    engine_a = Engine()
    engine_b = Engine()

    def confused(engine_a, engine_b):
        yield engine_b.timeout(1.0)

    engine_a.process(confused(engine_a, engine_b))
    with pytest.raises(SimulationError, match="another engine"):
        engine_a.run()


def test_zero_duration_timeout_processes_in_order():
    engine = Engine()
    order = []

    def worker(tag):
        yield engine.timeout(0.0)
        order.append(tag)

    engine.process(worker("a"))
    engine.process(worker("b"))
    engine.run()
    assert order == ["a", "b"]
