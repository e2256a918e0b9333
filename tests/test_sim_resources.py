"""Unit tests for the Resource and Store primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource, Store


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


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_then_get():
    engine = Engine()
    store = Store(engine)
    store.put("item")
    got = store.get()
    engine.run()
    assert got.value == "item"


def test_store_get_blocks_until_put():
    engine = Engine()
    store = Store(engine)
    results = []

    def consumer(engine, store):
        item = yield store.get()
        results.append((item, engine.now))

    def producer(engine, store):
        yield engine.timeout(3.0)
        store.put("late item")

    engine.process(consumer(engine, store))
    engine.process(producer(engine, store))
    engine.run()
    assert results == [("late item", 3.0)]


def test_store_fifo_ordering():
    engine = Engine()
    store = Store(engine)
    for i in range(3):
        store.put(i)
    taken = []

    def consumer(engine, store):
        for _ in range(3):
            item = yield store.get()
            taken.append(item)

    engine.process(consumer(engine, store))
    engine.run()
    assert taken == [0, 1, 2]


def test_store_capacity_blocks_put():
    engine = Engine()
    store = Store(engine, capacity=1)
    timeline = []

    def producer(engine, store):
        for i in range(2):
            yield store.put(i)
            timeline.append(("put", i, engine.now))

    def consumer(engine, store):
        yield engine.timeout(5.0)
        item = yield store.get()
        timeline.append(("got", item, engine.now))

    engine.process(producer(engine, store))
    engine.process(consumer(engine, store))
    engine.run()
    assert ("put", 0, 0.0) in timeline
    assert ("put", 1, 5.0) in timeline  # blocked until the get


def test_store_len_and_items():
    engine = Engine()
    store = Store(engine)
    store.put("a")
    store.put("b")
    assert len(store) == 2
    assert store.items == ("a", "b")


def test_store_invalid_capacity_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        Store(engine, capacity=0)
