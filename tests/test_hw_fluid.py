"""Unit and property tests for the fluid-share compute model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hw.fluid import FluidShare
from repro.sim import Engine


def make_share(capacity=1.0):
    engine = Engine()
    return engine, FluidShare(engine, capacity=capacity)


# ---------------------------------------------------------------------------
# Basic execution
# ---------------------------------------------------------------------------

def test_solo_task_runs_at_full_demand():
    engine, share = make_share()
    task = share.launch("kernel", work=2.0, demand=1.0)
    engine.run(until=task.done)
    assert engine.now == pytest.approx(2.0)


def test_low_demand_task_alone_is_not_slowed():
    engine, share = make_share()
    task = share.launch("agent", work=0.5, demand=0.1)
    engine.run(until=task.done)
    # Work means "seconds to complete alone", regardless of demand.
    assert engine.now == pytest.approx(0.5)


def test_zero_work_completes_immediately():
    engine, share = make_share()
    task = share.launch("empty", work=0.0)
    assert task.finished
    assert engine.now == 0.0


def test_oversubscription_slows_everything():
    engine, share = make_share()
    a = share.launch("a", work=1.0, demand=1.0)
    b = share.launch("b", work=1.0, demand=1.0)
    engine.run(until=engine.all_of([a.done, b.done]))
    # Two full-demand tasks at capacity 1: both take 2x.
    assert engine.now == pytest.approx(2.0)


def test_kernel_with_small_agent_sees_proportional_slowdown():
    """A 6.25% demand agent slows a saturating kernel by 1.0625x.

    This is the SM-stealing effect of a software PROACT polling agent
    (128 threads on a GPU with 2048-thread capacity would be demand=1/16).
    """
    engine, share = make_share()
    kernel = share.launch("kernel", work=1.0, demand=1.0)
    share.launch("agent", work=math.inf, demand=0.0625)
    engine.run(until=kernel.done)
    assert engine.now == pytest.approx(1.0625)


def test_undersubscription_runs_everyone_at_full_speed():
    engine, share = make_share()
    a = share.launch("a", work=0.4, demand=0.4)
    b = share.launch("b", work=0.4, demand=0.4)
    engine.run(until=engine.all_of([a.done, b.done]))
    # Total demand 0.8 fits in capacity 1.0: both run unslowed, in parallel.
    assert engine.now == pytest.approx(0.4)


def test_task_arriving_midway_slows_remainder():
    engine, share = make_share()
    first = share.launch("first", work=2.0, demand=1.0)

    def late_arrival(engine, share):
        yield engine.timeout(1.0)
        second = share.launch("second", work=0.5, demand=1.0)
        yield second.done

    engine.process(late_arrival(engine, share))
    engine.run(until=first.done)
    # t in [0,1): first alone, consumes 1.0 of its 2.0.
    # t in [1,2): both share at half speed; second finishes its 0.5 at t=2,
    #            first consumes another 0.5.
    # t in [2,2.5): first alone again, finishes its last 0.5.
    assert engine.now == pytest.approx(2.5)


def test_departures_speed_up_survivors():
    engine, share = make_share()
    short = share.launch("short", work=0.5, demand=1.0)
    long = share.launch("long", work=1.0, demand=1.0)
    engine.run(until=short.done)
    assert engine.now == pytest.approx(1.0)
    engine.run(until=long.done)
    # long had 0.5 consumed at t=1.0; then runs alone.
    assert engine.now == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Milestones
# ---------------------------------------------------------------------------

def test_milestones_fire_at_progress_points():
    engine, share = make_share()
    task = share.launch("kernel", work=4.0, milestones=[0.25, 0.5, 1.0])
    times = []
    for event in task.milestone_events:
        def record(_event):
            times.append(engine.now)
        assert event.callbacks is not None
        event.callbacks.append(record)
    engine.run(until=task.done)
    assert times == pytest.approx([1.0, 2.0, 4.0])


def test_milestones_shift_under_contention():
    engine, share = make_share()
    task = share.launch("kernel", work=1.0, milestones=[0.5])
    share.launch("other", work=math.inf, demand=1.0)
    milestone = task.milestone_events[0]
    engine.run(until=milestone)
    assert engine.now == pytest.approx(1.0)  # running at half rate


def test_milestone_validation():
    engine, share = make_share()
    with pytest.raises(SimulationError):
        share.launch("bad", work=1.0, milestones=[0.0])
    with pytest.raises(SimulationError):
        share.launch("bad", work=1.0, milestones=[1.5])
    with pytest.raises(SimulationError):
        share.launch("bad", work=1.0, milestones=[0.5, 0.25])
    with pytest.raises(SimulationError):
        share.launch("bad", work=math.inf, milestones=[0.5])


# ---------------------------------------------------------------------------
# Infinite tasks and stop()
# ---------------------------------------------------------------------------

def test_infinite_task_stopped_explicitly():
    engine, share = make_share()
    agent = share.launch("agent", work=math.inf, demand=0.25)

    def stopper(engine, share, agent):
        yield engine.timeout(2.0)
        share.stop(agent)

    engine.process(stopper(engine, share, agent))
    engine.run(until=agent.done)
    assert engine.now == pytest.approx(2.0)
    assert agent.stopped
    assert agent.consumed == pytest.approx(2.0)  # uncontended: full speed


def test_late_waiter_sees_an_unwaited_stopped_task_done():
    """A stopped task nobody waits on (an agent's copy task) takes no
    heap entry for its ``done``, yet a process or an ``AllOf`` that
    waits on it afterwards still resumes."""
    engine, share = make_share()
    copy = share.launch("cdp-copy", work=math.inf, demand=0.25)
    resumed = []

    def stopper(engine):
        yield engine.timeout(1.0)
        share.stop(copy)
        fired = engine.events_fired
        yield engine.timeout(1.0)
        # The stop scheduled nothing: one entry, this timeout's.
        resumed.append(("entries", engine.events_fired - fired))
        value = yield copy.done
        resumed.append(("process", engine.now, value))
        yield engine.all_of([copy.done, engine.timeout(0.5)])
        resumed.append(("all_of", engine.now))

    engine.run(until=engine.process(stopper(engine)))
    assert copy.done.processed and copy.stopped
    assert resumed == [("entries", 1), ("process", 2.0, copy),
                       ("all_of", 2.5)]


def test_milestone_waiters_may_launch_and_stop_on_their_share():
    """A milestone fires inside the operation that crossed it, after the
    share is consistent: a waiter that stops one task and launches
    another leaves correct rates and a correctly armed wakeup."""
    engine, share = make_share()
    kernel = share.launch("kernel", work=2.0, milestones=[0.5])
    agent = share.launch("agent", work=math.inf, demand=1.0)
    launched = []

    def on_milestone(_event):
        share.stop(agent)
        launched.append(share.launch("copy", work=0.5, demand=1.0))

    kernel.milestone_events[0].callbacks.append(on_milestone)
    engine.run(until=kernel.done)
    # Half rate until the milestone at t=2, then the kernel and the
    # copy share the GPU: the copy ends at t=3, the kernel at t=3.5.
    assert engine.now == pytest.approx(3.5)
    assert launched[0].finished and agent.stopped
    assert share.total_demand == 0


def test_stop_finished_task_rejected():
    engine, share = make_share()
    task = share.launch("t", work=0.1)
    engine.run(until=task.done)
    with pytest.raises(SimulationError):
        share.stop(task)


def test_set_demand_changes_rates():
    engine, share = make_share()
    kernel = share.launch("kernel", work=1.0, demand=1.0)
    agent = share.launch("agent", work=math.inf, demand=1.0)

    def tune(engine, share, agent):
        yield engine.timeout(1.0)
        share.set_demand(agent, 0.000001)

    engine.process(tune(engine, share, agent))
    engine.run(until=kernel.done)
    # First second at rate 0.5, then essentially alone for remaining 0.5.
    assert engine.now == pytest.approx(1.5, rel=1e-3)


def test_validation_errors():
    engine, share = make_share()
    with pytest.raises(SimulationError):
        share.launch("bad", work=-1.0)
    with pytest.raises(SimulationError):
        share.launch("bad", work=1.0, demand=0.0)
    with pytest.raises(SimulationError):
        FluidShare(engine, capacity=0.0)
    task = share.launch("ok", work=10.0)
    with pytest.raises(SimulationError):
        share.set_demand(task, -1.0)


def test_slowdown_reporting():
    engine, share = make_share()
    assert share.slowdown() == 1.0
    share.launch("a", work=10.0, demand=1.0)
    assert share.slowdown() == 1.0
    share.launch("b", work=10.0, demand=0.5)
    assert share.slowdown() == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@given(works=st.lists(st.floats(min_value=0.01, max_value=5.0),
                      min_size=1, max_size=6))
def test_total_time_equals_total_work_at_full_demand(works):
    """N saturating tasks take exactly sum(work) — conservation of service."""
    engine = Engine()
    share = FluidShare(engine, capacity=1.0)
    tasks = [share.launch(f"t{i}", work=w, demand=1.0)
             for i, w in enumerate(works)]
    engine.run(until=engine.all_of([t.done for t in tasks]))
    assert engine.now == pytest.approx(sum(works), rel=1e-6)


@given(work=st.floats(min_value=0.01, max_value=10.0),
       demand=st.floats(min_value=0.01, max_value=1.0))
def test_solo_task_duration_equals_work(work, demand):
    engine = Engine()
    share = FluidShare(engine, capacity=1.0)
    task = share.launch("t", work=work, demand=demand)
    engine.run(until=task.done)
    assert engine.now == pytest.approx(work, rel=1e-9)


@given(fractions=st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=5))
def test_milestones_fire_in_order_and_before_done(fractions):
    engine = Engine()
    share = FluidShare(engine, capacity=1.0)
    milestones = sorted(fractions)
    task = share.launch("t", work=1.0, milestones=milestones)
    fire_times = {}
    for i, event in enumerate(task.milestone_events):
        def record(_event, i=i):
            fire_times[i] = engine.now
        assert event.callbacks is not None
        event.callbacks.append(record)
    engine.run(until=task.done)
    assert len(fire_times) == len(milestones)
    for i, fraction in enumerate(milestones):
        assert fire_times[i] == pytest.approx(fraction, rel=1e-6)
