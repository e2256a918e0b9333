"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine, Event
from repro.sim.events import PRIORITY_URGENT


def test_clock_starts_at_zero():
    engine = Engine()
    assert engine.now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    engine.timeout(2.5)
    engine.run()
    assert engine.now == 2.5


def test_timeout_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_run_until_time_stops_exactly():
    engine = Engine()
    engine.timeout(1.0)
    engine.timeout(10.0)
    engine.run(until=5.0)
    assert engine.now == 5.0


def test_run_until_past_time_rejected():
    engine = Engine()
    engine.run(until=10.0)
    with pytest.raises(SimulationError):
        engine.run(until=5.0)


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []

    def waiter(engine, delay, tag):
        yield engine.timeout(delay)
        fired.append(tag)

    engine.process(waiter(engine, 3.0, "c"))
    engine.process(waiter(engine, 1.0, "a"))
    engine.process(waiter(engine, 2.0, "b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo_order():
    engine = Engine()
    fired = []

    def waiter(engine, tag):
        yield engine.timeout(1.0)
        fired.append(tag)

    for tag in ("first", "second", "third"):
        engine.process(waiter(engine, tag))
    engine.run()
    assert fired == ["first", "second", "third"]


def test_step_on_empty_heap_raises_deadlock():
    engine = Engine()
    with pytest.raises(DeadlockError):
        engine.step()


def test_run_until_event_returns_value():
    engine = Engine()

    def producer(engine):
        yield engine.timeout(4.0)
        return 42

    proc = engine.process(producer(engine))
    assert engine.run(until=proc) == 42
    assert engine.now == 4.0


def test_run_until_unreachable_event_deadlocks():
    engine = Engine()
    orphan = engine.event()
    with pytest.raises(DeadlockError):
        engine.run(until=orphan)


def test_event_succeed_value():
    engine = Engine()
    event = engine.event()
    event.succeed("payload")
    engine.run()
    assert event.ok
    assert event.value == "payload"


def test_event_double_trigger_rejected():
    engine = Engine()
    event = engine.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_value_before_trigger_rejected():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_event_fail_requires_exception():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failed_event_raises_in_run():
    engine = Engine()
    event = engine.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        engine.run()


def test_all_of_collects_values():
    engine = Engine()
    t1 = engine.timeout(1.0, value="one")
    t2 = engine.timeout(2.0, value="two")
    both = engine.all_of([t1, t2])
    result = engine.run(until=both)
    assert set(result.values()) == {"one", "two"}
    assert engine.now == 2.0


def test_all_of_empty_fires_immediately():
    engine = Engine()
    both = engine.all_of([])
    assert both.triggered


def test_condition_rejects_foreign_events():
    engine_a = Engine()
    engine_b = Engine()
    t_foreign = engine_b.timeout(1.0)
    with pytest.raises(SimulationError):
        engine_a.all_of([t_foreign])


def test_schedule_negative_delay_rejected():
    engine = Engine()
    event = Event(engine)
    with pytest.raises(SimulationError):
        engine.schedule(event, delay=-0.1)


def test_all_of_fails_when_constituent_fails():
    engine = Engine()

    def failing(engine):
        yield engine.timeout(1.0)
        raise ValueError("constituent died")

    def ok(engine):
        yield engine.timeout(5.0)

    both = engine.all_of([engine.process(failing(engine)),
                          engine.process(ok(engine))])

    def waiter(engine, both):
        try:
            yield both
        except ValueError as exc:
            return f"saw: {exc}"

    proc = engine.process(waiter(engine, both))
    engine.run()
    assert proc.value == "saw: constituent died"


def test_nested_conditions():
    engine = Engine()
    t1 = engine.timeout(1.0, value="a")
    t2 = engine.timeout(2.0, value="b")
    t3 = engine.timeout(3.0, value="c")
    inner = engine.all_of([t1, t2])
    outer = engine.all_of([inner, t3])
    result = engine.run(until=outer)
    assert engine.now == 3.0
    assert result == {inner: {t1: "a", t2: "b"}, t3: "c"}


def test_all_of_over_processed_and_pending_event():
    engine = Engine()
    done = engine.timeout(1.0, value="early")
    engine.run(until=done)
    pending = engine.timeout(2.0, value="late")
    both = engine.all_of([done, pending])
    result = engine.run(until=both)
    assert engine.now == 3.0
    assert result == {done: "early", pending: "late"}



@pytest.mark.parametrize("case", ["fired", "pending", "failed", "foreign"])
def test_all_of_over_one_event(case):
    # A one-event condition is an ordinary AllOf: it fires once, in one
    # heap entry of its own, with {event: value}; it fails with the
    # constituent's exception and rejects another engine's event.
    engine = Engine()
    if case == "foreign":
        with pytest.raises(SimulationError):
            engine.all_of([Engine().timeout(1.0)])
        return
    event = engine.timeout(1.0, value="v") if case != "failed" else Event(engine)
    if case == "fired":
        engine.run(until=event)
    fired_before = engine.events_fired
    wait = engine.all_of([event])
    seen = []
    wait.callbacks.append(seen.append)
    if case == "failed":
        event.fail(ValueError("constituent died"))

        def waiter(engine):
            try:
                yield wait
            except ValueError as exc:
                return f"saw: {exc}"

        proc = engine.process(waiter(engine))
        engine.run()
        assert proc.value == "saw: constituent died"
        assert seen == [wait] and not wait.ok
        return
    assert engine.run(until=wait) == {event: "v"}
    assert seen == [wait]
    assert engine.now == 1.0
    # The wait's own entry, plus the timeout's when it was still pending.
    assert engine.events_fired - fired_before == (2 if case == "pending" else 1)

# ---------------------------------------------------------------------------
# Error context: every escaping exception carries the simulation time
# ---------------------------------------------------------------------------

def test_process_raising_mid_run_carries_sim_time():
    engine = Engine()

    def crasher(engine):
        yield engine.timeout(2.5)
        raise RuntimeError("kernel fault")

    engine.process(crasher(engine))
    with pytest.raises(RuntimeError, match="kernel fault") as err:
        engine.run()
    assert err.value.sim_time == 2.5
    assert "t=2.5s" in "".join(getattr(err.value, "__notes__", []))


def test_run_until_failed_event_carries_sim_time():
    engine = Engine()

    def crasher(engine):
        yield engine.timeout(1.25)
        raise ValueError("mid-phase")

    proc = engine.process(crasher(engine))
    with pytest.raises(ValueError, match="mid-phase") as err:
        engine.run(until=proc)
    assert err.value.sim_time == 1.25


def test_deadlock_error_carries_sim_time_and_message():
    engine = Engine()
    engine.timeout(3.0)
    engine.run()
    orphan = engine.event()
    with pytest.raises(DeadlockError, match="t=3s") as err:
        engine.run(until=orphan)
    assert err.value.sim_time == 3.0


def test_sim_time_of_first_raise_is_preserved():
    """An exception that escapes once keeps its original raise time even
    if it is re-raised through a later engine at a different clock."""
    engine = Engine()

    def crasher(engine):
        yield engine.timeout(0.5)
        raise RuntimeError("original")

    engine.process(crasher(engine))
    with pytest.raises(RuntimeError) as err:
        engine.run()
    exc = err.value
    assert exc.sim_time == 0.5
    other = Engine()
    other.run(until=9.0)
    other._attach_time(exc)
    assert exc.sim_time == 0.5


# ---------------------------------------------------------------------------
# Callable heap entries: the engine's own waits, beside events
# ---------------------------------------------------------------------------

def test_callable_and_event_due_together_run_in_priority_then_sequence_order():
    engine = Engine()
    fired = []
    first = engine.timeout(1.0)
    first.callbacks.append(lambda _event: fired.append("event 1"))
    engine._call(1.0, lambda: fired.append("callable 2"))
    second = engine.timeout(1.0)
    second.callbacks.append(lambda _event: fired.append("event 3"))
    engine._call(1.0, lambda: fired.append("callable 4"))
    engine.run()
    assert fired == ["event 1", "callable 2", "event 3", "callable 4"]


def test_urgent_callable_scheduled_later_runs_first():
    engine = Engine()
    fired = []
    engine.event().succeed().callbacks.append(
        lambda _event: fired.append("normal event"))
    engine._call(0.0, lambda: fired.append("normal callable"))
    engine._call(0.0, lambda: fired.append("urgent callable"),
                 PRIORITY_URGENT)
    engine.run()
    assert fired == ["urgent callable", "normal event", "normal callable"]


def test_every_run_mode_dispatches_and_counts_callables():
    engine = Engine()
    fired = []
    for when in (1.0, 2.0, 3.0, 4.0):
        engine._call(when, lambda when=when: fired.append(when))
    engine.step()
    assert (fired, engine.now, engine.events_fired) == ([1.0], 1.0, 1)
    engine.run(until=2.5)
    assert (fired, engine.events_fired) == ([1.0, 2.0], 2)
    marker = engine.timeout(0.5)  # due at 3.0, after the callable
    engine.run(until=marker)
    assert (fired, engine.events_fired) == ([1.0, 2.0, 3.0], 4)
    engine.run()
    assert (fired, engine.now, engine.events_fired) == (
        [1.0, 2.0, 3.0, 4.0], 4.0, 5)
    assert engine.events_scheduled == 5


def test_callable_raising_carries_sim_time():
    engine = Engine()

    def crash():
        raise RuntimeError("link fault")

    engine._call(0.75, crash)
    with pytest.raises(RuntimeError, match="link fault") as err:
        engine.run()
    assert err.value.sim_time == 0.75
    assert "t=0.75s" in "".join(getattr(err.value, "__notes__", []))


def test_process_sleep_resumes_after_the_delay_with_none():
    engine = Engine()
    woke = []

    def sleeper(engine):
        yield engine.timeout(1.0)
        value = yield engine._sleep(0.5)
        woke.append((engine.now, value))

    engine.process(sleeper(engine))
    engine.run()
    assert woke == [(1.5, None)]


def test_process_sleep_rejects_negative_delay():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine._sleep(-1.0)


# ---------------------------------------------------------------------------
# One dispatch loop behind run(), run(until=t), run(until=event) and step()
# ---------------------------------------------------------------------------

def _mixed_scenario():
    """Events, callables and urgent entries, most of them due at one
    instant, and a callable that schedules more at that instant."""
    engine = Engine()
    order = []

    def note(tag):
        return lambda *_args: order.append(tag)

    engine.timeout(1.0).callbacks.append(note("timeout"))
    engine._call(1.0, note("call"))
    engine._call(1.0, note("urgent call"), PRIORITY_URGENT)

    def chain():
        order.append("chain")
        engine._call(0.0, note("urgent from chain"), PRIORITY_URGENT)
        engine.event().succeed().callbacks.append(note("event from chain"))
        engine._call(0.0, note("call from chain"))

    engine._call(1.0, chain)

    def body(engine):
        yield engine.timeout(1.0)
        order.append("process woke")
        yield engine._sleep(1.0)
        order.append("process slept")
        return "end"

    last = engine.process(body(engine))
    return engine, order, last


def _run_to_end(engine, _last):
    engine.run()


def _run_until_time(engine, _last):
    engine.run(until=1.0)
    engine.run(until=2.0)


def _run_until_event(engine, last):
    assert engine.run(until=last) == "end"


def _step_to_end(engine, _last):
    while engine._heap:
        engine.step()


@pytest.mark.parametrize("drive", [_run_to_end, _run_until_time,
                                   _run_until_event, _step_to_end])
def test_every_run_form_dispatches_the_same_entries_in_the_same_order(drive):
    engine, order, last = _mixed_scenario()
    drive(engine, last)
    assert order == ["urgent call", "timeout", "call", "chain",
                     "urgent from chain", "process woke",
                     "event from chain", "call from chain",
                     "process slept"]
    assert (engine.now, engine.events_fired) == (2.0, 11)
    assert engine.events_scheduled == 11
    assert not engine._heap


@pytest.mark.parametrize("form", ["until time", "until event", "step"])
def test_callable_raising_in_any_run_form_carries_sim_time(form):
    """The other forms of ``test_callable_raising_carries_sim_time``."""
    engine = Engine()

    def crash():
        raise RuntimeError("link fault")

    engine._call(0.25, lambda: None)
    engine._call(0.75, crash)
    never = engine.event()
    with pytest.raises(RuntimeError, match="link fault") as err:
        if form == "until time":
            engine.run(until=5.0)
        elif form == "until event":
            engine.run(until=never)
        else:
            engine.step()
            engine.step()
    assert err.value.sim_time == 0.75
    assert "t=0.75s" in "".join(getattr(err.value, "__notes__", []))
    assert engine.events_fired == 2


def test_drained_heap_deadlocks_with_the_time_it_drained_at():
    engine = Engine()
    engine._call(0.5, lambda: None)
    engine.timeout(1.5)
    orphan = engine.event()
    with pytest.raises(DeadlockError, match="drained before") as err:
        engine.run(until=orphan)
    assert err.value.sim_time == 1.5
    assert engine.events_fired == 2
    with pytest.raises(DeadlockError, match="no scheduled events remain"):
        engine.step()
