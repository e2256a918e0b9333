"""Fluid (processor-sharing) model of GPU execution resources.

A GPU's compute fabric is modelled as one unit of fluid capacity shared by
concurrently running *tasks* — compute kernels, PROACT polling warps, CDP
copy kernels.  Each task declares a *demand* (the fraction of the GPU it
would consume when running alone, e.g. ``1.0`` for a saturating compute
kernel, ``transfer_threads / max_threads`` for a transfer agent) and an
amount of *work*, measured in **seconds to complete when running alone**.

While total demand fits within capacity every task progresses at full
speed; when demand exceeds capacity, *all* tasks slow down by the factor
``total_demand / capacity``.  This reproduces the paper's observation that
software PROACT agents steal SM resources from the computation (Figure 8):
a polling agent using 1/16 of the GPU's thread capacity slows a saturating
kernel by 1.0625x — with the effect largest on small GPUs like Kepler.

Tasks may carry *milestones* at fractional progress points.  Kernels use
milestones to signal "the CTAs writing chunk k have finished", which is
what drives PROACT's readiness counters without simulating thousands of
CTA processes individually.

A milestone takes no heap entry: it fires inside the wakeup or share
operation that crossed it, once the task list is consistent and the next
wakeup armed, so its waiters may launch or stop tasks here.  Nor does a
stopped task's unwaited ``done``: it is marked fired at once, and a later
waiter (a process, an ``AllOf``) finds it so.
"""

from __future__ import annotations

import math
import typing
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_EPS = 1e-12


class FluidTask:
    """One consumer of a :class:`FluidShare`'s capacity."""

    def __init__(self, engine: "Engine", name: str, work: float,
                 demand: float, milestones: Sequence[float] = (),
                 events: Optional[Sequence[Event]] = None) -> None:
        if demand <= 0:
            raise SimulationError(f"task demand must be > 0: {demand}")
        if work < 0:
            raise SimulationError(f"task work must be >= 0: {work}")
        if math.isinf(work) and milestones:
            raise SimulationError("infinite tasks cannot carry milestones")
        self.name = name
        self.work = work
        self.demand = demand
        self.consumed = 0.0
        self.done = Event(engine)
        self.stopped = False
        self._milestones: List[Tuple[float, Event]] = []
        if events is None:
            events = [Event(engine) for _ in milestones]
        last = 0.0
        for fraction, event in zip(milestones, events):
            if not 0.0 < fraction <= 1.0:
                raise SimulationError(
                    f"milestone fraction out of (0, 1]: {fraction}")
            if fraction < last:
                raise SimulationError("milestones must be non-decreasing")
            last = fraction
            self._milestones.append((fraction * work, event))
        self._next_milestone = 0
        self._rate = 0.0

    @property
    def milestone_events(self) -> Tuple[Event, ...]:
        """Events firing as execution crosses each milestone, in order."""
        return tuple(event for _target, event in self._milestones)

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def _next_target(self) -> float:
        """The next service amount at which something must happen."""
        if self._next_milestone < len(self._milestones):
            return self._milestones[self._next_milestone][0]
        return self.work

    def _cross_milestones(self, crossed: list) -> None:
        """Append each milestone the consumed work has reached, in order."""
        while self._next_milestone < len(self._milestones):
            target, event = self._milestones[self._next_milestone]
            if self.consumed + _EPS < target:
                break
            crossed.append((event, self))
            self._next_milestone += 1


class FluidShare:
    """A capacity shared by fluid tasks with proportional slowdown."""

    def __init__(self, engine: "Engine", capacity: float = 1.0,
                 name: str = "fluid") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0: {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._tasks: List[FluidTask] = []
        self._last_update = engine.now
        self.total_service = 0.0
        # The currently-armed wakeup: the absolute instant it fires at and
        # its generation.  A firing wakeup of an older generation is stale
        # (superseded by a later state change) and ignored.
        self._armed_time: float = math.nan
        self._gen = 0
        # Milestones the running operation crossed, fired at its end.
        self._crossed: List[Tuple[Event, FluidTask]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def total_demand(self) -> float:
        return sum(task.demand for task in self._tasks)

    def slowdown(self) -> float:
        """Current slowdown factor relative to an uncontended GPU."""
        demand = self.total_demand
        if demand <= self.capacity:
            return 1.0
        return demand / self.capacity

    def launch(self, name: str, work: float, demand: float = 1.0,
               milestones: Sequence[float] = (),
               events: Optional[Sequence[Event]] = None) -> FluidTask:
        """Start a task; its ``done`` event fires when the work completes
        and ``events`` (built here if not given) at its ``milestones``."""
        task = FluidTask(self.engine, name, work, demand, milestones, events)
        if work == 0:
            task.done.succeed(task)
            return task
        self._advance()
        self._tasks.append(task)
        self._rebalance()
        return task

    def stop(self, task: FluidTask) -> None:
        """Retire a task early (used for infinite agent tasks)."""
        if task.finished:
            raise SimulationError(f"task {task.name!r} already finished")
        self._advance()
        if task not in self._tasks:
            raise SimulationError(f"task {task.name!r} is not running here")
        self._tasks.remove(task)
        task.stopped = True
        task._cross_milestones(self._crossed)
        if task.done.callbacks:
            task.done.succeed(task)
        else:
            task.done._fire_now(task)  # nobody waits: no heap entry
        self._rebalance()

    def set_demand(self, task: FluidTask, demand: float) -> None:
        """Change a running task's demand (e.g. agent ramping threads)."""
        if demand <= 0:
            raise SimulationError(f"task demand must be > 0: {demand}")
        if task not in self._tasks:
            raise SimulationError(f"task {task.name!r} is not running here")
        if demand == task.demand:
            # No rate actually changes, so the armed wakeup (which fires at
            # the next target-crossing instant) remains exactly right.
            return
        self._advance()
        task.demand = demand
        self._rebalance()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Credit service for time elapsed since the last update."""
        now = self.engine.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0:
            return
        finished: List[FluidTask] = []
        for task in self._tasks:
            progress = elapsed * task._rate
            task.consumed += progress
            self.total_service += progress * task.demand
            task._cross_milestones(self._crossed)
            if task.consumed + _EPS >= task.work:
                finished.append(task)
        for task in finished:
            self._tasks.remove(task)
            task.done.succeed(task)

    def _rebalance(self) -> None:
        """Recompute rates, arm the next interesting instant, then fire
        the milestones the running operation crossed.

        Re-solves are batched by *fire time*: if the armed wakeup already
        fires at exactly the instant this re-solve wants, it is kept
        instead of being superseded by a fresh one.  Rates were just
        recomputed, so whichever wakeup fires simply credits service at
        the then-current rates — the same work either way.
        """
        demand = self.total_demand
        scale = 1.0 if demand <= self.capacity else self.capacity / demand
        horizon = math.inf
        for task in self._tasks:
            # All tasks progress at the same *relative* speed; capacity
            # is allotted in proportion to demand, so each task's own
            # clock runs at `scale` of real time.
            task._rate = scale
            remaining = task._next_target() - task.consumed
            if not math.isinf(remaining):
                horizon = min(horizon, max(remaining, 0.0) / scale)
        if math.isinf(horizon):
            # Nothing finite to wait for; any pending wakeup is stale.
            self._armed_time = math.nan
        elif self.engine.now + horizon != self._armed_time:
            # (Otherwise the pending wakeup already covers this instant.)
            self._gen += 1
            self._armed_time = self.engine.now + horizon
            self.engine._call(horizon, partial(self._on_wakeup, self._gen))
        # The task list is consistent and the next wakeup armed: run the
        # crossed milestones' waiters here, in crossing order.  A
        # waiter's own operation on this share starts a fresh list.
        crossed = self._crossed
        if crossed:
            self._crossed = []
            for event, task in crossed:
                event._fire_now(task)

    def _on_wakeup(self, gen: int) -> None:
        if gen != self._gen:
            return  # a newer state change superseded this wakeup
        self._armed_time = math.nan
        self._advance()
        self._rebalance()
