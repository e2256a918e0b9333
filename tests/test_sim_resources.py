"""Unit tests for the Resource primitive."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    engine = Engine()
    res = Resource(engine, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    engine.run()
    assert r1.processed and r2.processed
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queued == 1


def test_resource_release_wakes_fifo():
    engine = Engine()
    res = Resource(engine, capacity=1)
    order = []

    def user(engine, res, tag, hold):
        yield res.request()
        order.append(f"{tag}:acquired")
        yield engine.timeout(hold)
        res.release()

    engine.process(user(engine, res, "a", 2.0))
    engine.process(user(engine, res, "b", 1.0))
    engine.process(user(engine, res, "c", 1.0))
    engine.run()
    assert order == ["a:acquired", "b:acquired", "c:acquired"]
    assert engine.now == 4.0


def test_resource_over_release_rejected():
    engine = Engine()
    res = Resource(engine)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_zero_capacity_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        Resource(engine, capacity=0)


def test_resource_serializes_contention():
    engine = Engine()
    res = Resource(engine, capacity=1)
    completion_times = []

    def user(engine, res):
        yield res.request()
        yield engine.timeout(1.0)
        res.release()
        completion_times.append(engine.now)

    for _ in range(5):
        engine.process(user(engine, res))
    engine.run()
    assert completion_times == [1.0, 2.0, 3.0, 4.0, 5.0]
