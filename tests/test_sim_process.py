"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_process_return_value():
    engine = Engine()

    def body(engine):
        yield engine.timeout(1.0)
        return "finished"

    proc = engine.process(body(engine))
    engine.run()
    assert proc.value == "finished"
    assert not proc.is_alive


def test_process_receives_timeout_value():
    engine = Engine()
    seen = []

    def body(engine):
        got = yield engine.timeout(1.0, value="hello")
        seen.append(got)

    engine.process(body(engine))
    engine.run()
    assert seen == ["hello"]


def test_process_can_wait_on_process():
    engine = Engine()

    def child(engine):
        yield engine.timeout(2.0)
        return 99

    def parent(engine):
        result = yield engine.process(child(engine))
        return result + 1

    proc = engine.process(parent(engine))
    engine.run()
    assert proc.value == 100


def test_process_waiting_on_finished_process_resumes():
    engine = Engine()

    def child(engine):
        yield engine.timeout(1.0)
        return "early"

    def parent(engine, child_proc):
        yield engine.timeout(5.0)
        result = yield child_proc  # already processed by now
        return result

    child_proc = engine.process(child(engine))
    parent_proc = engine.process(parent(engine, child_proc))
    engine.run()
    assert parent_proc.value == "early"
    assert engine.now == 5.0


def test_process_exception_propagates_to_waiter():
    engine = Engine()

    def failing(engine):
        yield engine.timeout(1.0)
        raise RuntimeError("kernel fault")

    def waiter(engine):
        try:
            yield engine.process(failing(engine))
        except RuntimeError as exc:
            return f"caught: {exc}"

    proc = engine.process(waiter(engine))
    engine.run()
    assert proc.value == "caught: kernel fault"


def test_unwaited_process_exception_raises_from_run():
    engine = Engine()

    def failing(engine):
        yield engine.timeout(1.0)
        raise RuntimeError("unobserved")

    engine.process(failing(engine))
    with pytest.raises(RuntimeError, match="unobserved"):
        engine.run()


def test_yielding_non_event_raises_inside_process():
    engine = Engine()

    def bad(engine):
        try:
            yield "not an event"
        except SimulationError:
            return "rejected"

    proc = engine.process(bad(engine))
    engine.run()
    assert proc.value == "rejected"


def test_non_generator_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.process(lambda: None)  # type: ignore[arg-type]


def test_many_processes_complete():
    engine = Engine()
    done = []

    def body(engine, i):
        yield engine.timeout(float(i % 7) * 0.001)
        done.append(i)

    for i in range(500):
        engine.process(body(engine, i))
    engine.run()
    assert sorted(done) == list(range(500))
