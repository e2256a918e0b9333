"""PROACT's compile-time profiler (Section III-A, Table II).

The profiler sweeps PROACT's configuration space — transfer mechanism,
chunk granularity, transfer-thread count — by *running the application*
(its phase list) under each candidate configuration and keeping the one
with the best end-to-end runtime.  The result is then baked into the
compiled configuration, exactly as the paper's framework emits the chosen
parameters into the generated code.

Three search modes:

* ``"exhaustive"`` — the paper's brute force over the full grid;
* ``"coordinate"`` (default) — sweep granularity at the largest thread
  count, then threads at the best granularity.  Far cheaper, and exact
  whenever the two knobs are separable (granularity trades initiation
  against tail, threads only gate copy bandwidth).  They are not always
  separable: on the quick Table II grid coordinate picks a different
  configuration than the exhaustive argmin for Kepler PageRank, SSSP
  and ALS and for Pascal ALS (see EXPERIMENTS.md, Table II);
* ``"search"`` — best-first branch-and-bound over a two-level lower
  bound: measure candidates best-first until every remaining bound
  exceeds the best runtime measured so far.

The ``search`` pruning is sound.  A candidate's floor is its runtime
under an *infinite-bandwidth* fabric — transfers complete instantly, so
the run is far cheaper to simulate (no per-quantum link events) and its
runtime is a true lower bound on the real measurement (removing all
interconnect time can only shorten the schedule; with ``infinite_bw``
the decoupled agents also drop their copy-bandwidth throttle).  Below
the floor sits an analytic bound (:func:`_floor_bounds`) computed from
the phase list without simulating: per phase, the slowest GPU's kernel
launch plus its work at the slowest rate the fluid share can grant it,
and for CDP its chunks' serialized child launches.  Its formulas come
from the helpers the executor and the polling agent themselves call,
and it gives back a margin for the fluid share's completion tolerance
and clock rounding, so ``bound <= floor <= runtime``.

One heap holds every candidate at its best known lower bound — the
analytic bound until its floor has run, then the floor.  A popped bound
becomes a floor run, whose result goes back on the heap; a popped floor
becomes a measurement.  While no runtime is known no floor can prune,
so the first wave's head, the least analytic bound, is measured at once
instead of floored.  A candidate is skipped only when its bound or
floor *strictly* exceeds the best runtime measured so far: its real
runtime would then exceed the incumbent, so it can neither be the
argmin nor tie the minimum.  Every entry the exhaustive sweep would
rank first — including all runtime ties — is therefore measured, and
:attr:`ProfileResult.best` is identical to brute force.  Because a
bound never exceeds its floor, popped values never decrease, so with
``R*`` the best runtime a serial sweep floors exactly the candidates
whose bound does not exceed ``R*`` except the head, and measures
exactly those whose floor does not exceed ``R*`` plus the head.  A
sweep that floors before it measures would floor the head too (its
bound is at most the argmin's), so measuring first saves one floor and
costs a measurement only when the head's floor exceeds ``R*``.  With
``jobs=N`` each wave pops up to ``N`` entries, floor runs and
measurements alike, re-checking them against the freshest incumbent
between waves.

Sweep pool
----------

Every measurement is an independent pure function of
``(platform, config, phase_builder)``, which makes the sweep
embarrassingly parallel.  Its one orchestration choice is how many
candidates run at once: ``Profiler(..., jobs=N)``.  Each ``profile()``
call opens one :class:`SweepPool` that maps waves of tasks through a
task function.  At ``jobs=1`` (the default) it measures in-process, one
by one, and imports no pool machinery.

Above one job the pool keeps **warm workers** for the sweep, which is
what makes parallel sweeps actually pay off: the pickled sweep context
(platform + phase builder, the expensive part) ships to each worker
exactly once at pool init, and every subsequent task crossing the queue
is a lightweight config delta — ``(mechanism, chunk_size, threads,
kind)`` tuples — batched to amortize queue round-trips.  Results come
back in task order, so serial and pooled sweeps produce byte-identical
:class:`ProfileEntry` lists.

A worker process that dies mid-sweep (OOM kill, segfault, ``os._exit``)
surfaces as a :class:`~repro.errors.ProactError` naming every unfinished
batch's tasks instead of poisoning the pool silently.

Ties on runtime are broken toward the smallest ``(chunk_size,
transfer_threads)`` (then mechanism name), so the chosen configuration is
reproducible across search modes, job counts, and entry orderings.

Sweep telemetry
---------------

Candidate simulations always run unobserved (every wave is mapped under
``suppress``) — that is what keeps sweep results byte-identical across
job counts and captures.  Under an active observation (``capture()``,
``Session(trace=True)``, runner ``--trace``/``--report``) the sweep
itself becomes observable instead: every task function is wrapped in a
:class:`_TelemetryFn` that stamps wall-clock start/end, worker pid, and
batch id in the worker, and :meth:`_SweepTelemetry.map` unwraps those
records, lays them out as one ``sweep.worker{N}`` lane per worker on the
observation's ambient tracer (task spans nested in batch spans), and
folds queue-wait/batch/task histograms into the shared registry via a
phase-safe :meth:`~repro.obs.metrics.MetricsRegistry.merge`.  Every
search decision — floor waves run, candidates measured (with config,
runtime and platform) or pruned (with the bound or floor that decided
it), incumbent updates, measurement waves — lands in the observation's
typed :class:`~repro.obs.decisions.DecisionLog` (mirrored on the
``decision`` trace channel), with the invariant that each grid candidate
ends in exactly one ``measure`` or ``prune`` event.  Unobserved sweeps
map the bare task function and record nothing.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
import time
import typing
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import (
    ALL_MECHANISMS,
    MECH_CDP,
    MECH_INLINE,
    MECH_POLLING,
    PROFILE_CHUNK_SIZES,
    PROFILE_THREAD_COUNTS,
    Mechanisms,
    ProactConfig,
)
from repro.core.polling import resident_demand
from repro.core.region import ProactRegion
from repro.core.runtime import (
    GpuPhaseWork,
    ProactPhaseExecutor,
    decoupled_kernel_work,
)
from repro.errors import ProactError
from repro.hw.fluid import _EPS
from repro.hw.platform import PlatformSpec
from repro.obs.capture import Observation
from repro.obs.capture import active as active_observation
from repro.obs.capture import suppress as suppress_observation
from repro.obs.metrics import MetricsRegistry
from repro.runtime.system import System
from repro.validate.sanitizer import NULL_SANITIZER
from repro.validate.scope import active as active_validation
from repro.validate.scope import validation

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import concurrent.futures

#: A phase builder produces the application's phases for a given system.
PhaseBuilder = Callable[[System], List[List[GpuPhaseWork]]]

#: The recognized search modes (see the module docstring).
SEARCH_MODES: Tuple[str, ...] = ("coordinate", "exhaustive", "search")


@dataclass(frozen=True)
class ProfileEntry:
    """One profiled configuration and its measured runtime."""

    config: ProactConfig
    runtime: float


def _entry_order(entry: ProfileEntry) -> Tuple[float, int, int, str]:
    """Total order for picking winners: runtime, then smallest config.

    Runtime ties resolve toward the smallest ``(chunk_size,
    transfer_threads)`` and finally the mechanism name, so the winner
    does not depend on the order entries were measured in (coordinate
    vs. exhaustive search, serial vs. pooled sweeps).
    """
    return (entry.runtime, entry.config.chunk_size,
            entry.config.transfer_threads, entry.config.mechanism)


def _config_order(config: ProactConfig) -> Tuple[int, int, str]:
    """The tie-break direction applied to bare configs (smallest first)."""
    return (config.chunk_size, config.transfer_threads, config.mechanism)


@dataclass
class ProfileResult:
    """Outcome of a profiling pass.

    ``pruned_configs``/``floor_runs`` are only non-zero for ``search``
    sweeps: how many candidates were skipped outright, and how many
    infinite-bandwidth floor simulations actually ran to decide (the
    analytic bound rules the rest out unsimulated).
    """

    entries: List[ProfileEntry]
    pruned_configs: int = 0
    floor_runs: int = 0

    @property
    def best(self) -> ProfileEntry:
        if not self.entries:
            raise ProactError("profile produced no entries")
        return min(self.entries, key=_entry_order)

    @property
    def best_config(self) -> ProactConfig:
        return self.best.config

    def best_for_mechanism(self, mechanism: str) -> ProfileEntry:
        candidates = [entry for entry in self.entries
                      if entry.config.mechanism == mechanism]
        if not candidates:
            raise ProactError(f"no entries for mechanism {mechanism!r}")
        return min(candidates, key=_entry_order)


def run_phases(platform: PlatformSpec, config: ProactConfig,
               phase_builder: PhaseBuilder,
               infinite_bw: bool = False,
               toggles: Optional[Mechanisms] = None) -> float:
    """Simulate an application under one configuration; returns runtime.

    ``toggles`` is the mechanism-ablation policy
    (:class:`~repro.core.config.Mechanisms`); ``None`` means everything
    enabled.
    """
    system = System(platform, infinite_bw=infinite_bw, mechanisms=toggles)
    executor = ProactPhaseExecutor(system, config)
    phases = phase_builder(system)

    def driver():
        for works in phases:
            yield executor.execute(works)

    done = system.engine.process(driver(), name="app")
    system.run(until=done)
    system._finish()
    return system.now


def measure_config(platform: PlatformSpec, config: ProactConfig,
                   phase_builder: PhaseBuilder,
                   toggles: Optional[Mechanisms] = None) -> ProfileEntry:
    """Measure one configuration (the profiler's unit of work).

    A module-level pure function so a :class:`SweepPool` can ship it to
    worker processes.
    """
    runtime = run_phases(platform, config, phase_builder, toggles=toggles)
    return ProfileEntry(config=config, runtime=runtime)


#: Relative slack taken off a floor bound for the float rounding of the
#: simulated clock, which sums thousands of wakeup delays per run.
_BOUND_ROUNDING = 1e-9


def _floor_bounds(platform: PlatformSpec, phase_builder: PhaseBuilder,
                 configs: Sequence[ProactConfig],
                 toggles: Optional[Mechanisms] = None,
                 ) -> Dict[ProactConfig, float]:
    """A lower bound on each config's infinite-bandwidth floor, unsimulated.

    Phases run one after another, and a phase ends only when every GPU's
    part of it has, so a run lasts at least the sum over phases of the
    slowest GPU's own time.  No GPU finishes its part before its kernel
    has launched and done its work at the slowest rate the fluid share
    can grant it: ``kernel_launch_latency + work * slowdown``.  ``work``
    is the executor's own (:func:`~repro.core.runtime.decoupled_kernel_work`
    for decoupled mechanisms).  A resident polling agent's demand ``d``
    (:func:`~repro.core.polling.resident_demand`) runs beside the whole
    kernel, so the kernel runs at ``1 / (1 + d)``; every other co-runner
    only slows it further.  A CDP GPU also waits for its chunks' child
    launches, which its device's launch FIFO serves one at a time, none
    before the kernel starts.

    Each GPU term gives back the fluid share's completion tolerance
    (``_EPS`` of work, at most doubled by the slowdown), and the sum
    gives back :data:`_BOUND_ROUNDING` of itself, so the bound stays at
    or below the simulated floor.  The phase list is built once, on a
    throwaway system that simulates nothing: it carries the null
    sanitizer and no observation, so it neither counts as validated nor
    opens a trace.
    """
    with suppress_observation():
        system = System(platform, infinite_bw=True, mechanisms=toggles,
                        sanitizer=NULL_SANITIZER)
        phases = phase_builder(system)
    mechanisms = system.mechanisms
    bounds: Dict[ProactConfig, float] = {}
    for config in configs:
        total = 0.0
        for works in phases:
            slowest = 0.0
            for gpu, work in zip(system.gpus, works):
                spec = gpu.spec
                slowdown = 1.0
                if (work.region_bytes == 0 or system.num_gpus == 1
                        or config.mechanism == MECH_INLINE):
                    kernel_work = work.kernel.uncontended_time(gpu)
                else:
                    kernel_work = decoupled_kernel_work(
                        gpu, work.kernel, config.mechanism, mechanisms)
                    if (config.mechanism == MECH_POLLING
                            and mechanisms.fluid_contention):
                        slowdown += resident_demand(
                            spec, config.transfer_threads)
                    elif config.mechanism == MECH_CDP:
                        chunks = ProactRegion(work.region_bytes,
                                              config.chunk_size).num_chunks
                        slowest = max(slowest, spec.kernel_launch_latency
                                      + chunks * spec.cdp_launch_latency)
                slowest = max(slowest, spec.kernel_launch_latency
                              + kernel_work * slowdown - 2 * _EPS)
            total += slowest
        bounds[config] = total * (1.0 - _BOUND_ROUNDING)
    return bounds


# ---------------------------------------------------------------------------
# Warm-worker protocol
# ---------------------------------------------------------------------------

#: A streamed sweep task: ``(mechanism, chunk_size, threads, kind)`` where
#: ``kind`` is ``"measure"`` (full run, returns a :class:`ProfileEntry`)
#: or ``"floor"`` (infinite-bandwidth lower bound, returns a float).
SweepTask = Tuple[str, int, int, str]


def _sweep_task(platform: PlatformSpec, phase_builder: PhaseBuilder,
                task: SweepTask, toggles: Optional[Mechanisms] = None):
    """Worker-side dispatch for one streamed config delta.

    ``toggles`` rides in the worker-resident partial (like the platform
    and phase builder), so only task tuples cross the queue.
    """
    mechanism, chunk_size, threads, kind = task
    config = ProactConfig(mechanism, chunk_size, threads)
    if kind == "floor":
        return run_phases(platform, config, phase_builder, infinite_bw=True,
                          toggles=toggles)
    return measure_config(platform, config, phase_builder, toggles=toggles)


def _measure_task(config: ProactConfig) -> SweepTask:
    return (config.mechanism, config.chunk_size, config.transfer_threads,
            "measure")


def _floor_task(config: ProactConfig) -> SweepTask:
    return (config.mechanism, config.chunk_size, config.transfer_threads,
            "floor")


#: Worker-global task function, installed once by ``_warm_worker_init``.
_WORKER_FN: Optional[Callable[[Any], Any]] = None

#: Worker-global batch counter, bumped per ``_warm_worker_batch`` call,
#: so telemetry records can be grouped back into their true queue
#: batches (an in-process pool leaves it at 0: one map call, one batch).
_WORKER_BATCH: int = 0


def _warm_worker_init(payload: bytes) -> None:
    """Worker initializer: unpack the sweep's shared context exactly once.

    ``payload`` is the pickled task function — for profiler sweeps a
    ``partial(_sweep_task, platform, phase_builder)`` closing over the
    heavyweight state.  After this, only task tuples cross the queue.
    """
    import pickle
    global _WORKER_FN
    _WORKER_FN = pickle.loads(payload)


def _warm_worker_batch(batch: Sequence[Any]) -> List[Any]:
    """Apply the installed task function to one batch of tasks."""
    global _WORKER_BATCH
    assert _WORKER_FN is not None, "warm worker used before initialization"
    _WORKER_BATCH += 1
    return [_WORKER_FN(task) for task in batch]


def _validated_task(fn: Callable[[Any], Any],
                    task: Any) -> Tuple[Any, Dict[str, int]]:
    """Run one task under its own validation scope; return its counters.

    Pool workers never see the parent's ambient validation, so each task
    validates itself and the parent folds the counters back in.
    """
    with validation() as scope:
        result = fn(task)
    return result, scope.summary()


class SweepPool:
    """Runs one sweep's tasks through ``fn``, returning results in order.

    At ``jobs=1`` :meth:`map` is a plain in-process loop.  Above that
    the pool forks/spawns ``jobs`` warm workers once per sweep:
    ``initargs`` carries the pickled task function, so the platform and
    phase builder cross the process boundary a single time instead of
    once per candidate.  Tasks are streamed in batches — enough batches
    per worker that uneven candidate costs still balance, few enough
    that queue overhead stays negligible.  Both the function and every
    task must then be picklable (platform specs, configs, and the
    workloads' bound ``build_phases`` methods all are).  Under an
    ambient validation every task is validated in its worker and the
    counters fold into the parent's scope.  Use as a context manager so
    the workers are torn down deterministically.
    """

    #: Batches submitted per worker: load-balance vs. queue overhead.
    BATCHES_PER_WORKER = 8

    def __init__(self, fn: Callable[[Any], Any], jobs: int = 1) -> None:
        if jobs < 1:
            raise ProactError(f"need >= 1 job: {jobs}")
        self.fn = fn
        self.jobs = jobs
        self._validation = None
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        if jobs == 1:
            return
        # The pool stack (multiprocessing, pickle) loads only here, so
        # serial sweeps never import it.
        import concurrent.futures
        import pickle
        self._validation = active_validation()
        if self._validation is not None:
            fn = functools.partial(_validated_task, fn)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_warm_worker_init,
            initargs=(pickle.dumps(fn),))

    def map(self, tasks: Sequence[Any]) -> List[Any]:
        if self.jobs == 1:
            return [self.fn(task) for task in tasks]
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool
        if self._pool is None:
            raise ProactError("sweep pool already closed")
        tasks = list(tasks)
        if not tasks:
            return []
        size = max(1, math.ceil(
            len(tasks) / (self.jobs * self.BATCHES_PER_WORKER)))
        batches = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        futures = [self._pool.submit(_warm_worker_batch, batch)
                   for batch in batches]
        results: List[Any] = []
        for future in futures:
            try:
                results.extend(future.result())
            except BrokenProcessPool as exc:
                # A dead worker breaks every pending future, so any
                # unfinished batch may hold the task that killed it.
                concurrent.futures.wait(futures)
                broken = [index for index, other in enumerate(futures)
                          if other.exception() is not None]
                numbers = ", ".join(f"{index + 1}/{len(batches)}"
                                    for index in broken)
                named = ", ".join(repr(task) for index in broken
                                  for task in batches[index])
                raise ProactError(
                    "worker process died during the sweep; unfinished "
                    f"batches ({numbers}) contained: {named}") from exc
        if self._validation is not None:
            for _result, counters in results:
                self._validation.fold(counters)
            results = [result for result, _counters in results]
        return results

    def close(self) -> None:
        """Shut the workers down (idempotent; a no-op at ``jobs=1``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Sweep telemetry
# ---------------------------------------------------------------------------

class _TaskRecord(NamedTuple):
    """A task result wrapped with its worker-side timing envelope."""

    result: Any
    pid: int
    batch: int
    started: float  #: Wall clock (``time.time``), comparable across procs.
    ended: float
    task: SweepTask


class _TelemetryFn:
    """Picklable task-function wrapper that times each task in the worker.

    Wall-clock (`time.time`) stamps are the only clock meaningful across
    process boundaries; the parent rebases them onto the observation's
    epoch.  The wrapper deliberately does not touch the result — sweep
    outputs stay byte-identical with telemetry on.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, task: SweepTask) -> _TaskRecord:
        started = time.time()
        result = self.fn(task)
        return _TaskRecord(result, os.getpid(), _WORKER_BATCH,
                           started, time.time(), task)


class _SweepTelemetry:
    """Parent-side recorder of one sweep: worker lanes and decision log.

    :meth:`map` runs each wave unobserved and, when the sweep is
    observed, unwraps the :class:`_TelemetryFn` envelopes in task order
    (so callers see exactly the results they would unobserved) and
    merges them into the observation: one ``sweep.worker{N}`` tracer
    lane per worker process (task spans nested inside batch spans), plus
    queue-wait/batch/task histograms folded in through a local registry
    and the phase-safe :meth:`~repro.obs.metrics.MetricsRegistry.merge`.

    It also owns the decision bookkeeping (every grid candidate must end
    in exactly one ``measure`` or ``prune`` event) and the incumbent
    tracking (same :func:`_entry_order` tie-breaks as
    :attr:`ProfileResult.best`, so the decision log's final incumbent is
    the sweep's actual winner).  Without an observation every method is
    a cheap early return and the pool maps the bare task function, so
    unobserved sweeps pay nothing.
    """

    def __init__(self, observation: Optional[Observation],
                 platform: str) -> None:
        self.observation = observation
        self.platform = platform
        self._best: Optional[ProfileEntry] = None
        self._worker_lanes: Dict[int, str] = {}

    def map(self, pool: SweepPool, tasks: Sequence[SweepTask]) -> List[Any]:
        """Run one wave of tasks through ``pool``, results in task order.

        Candidate measurements build hundreds of throwaway systems; the
        ambient observation is suppressed around them so they do not
        flood the trace (and so serial and pooled sweeps — where workers
        never see the parent's scope — observe identically).
        """
        submitted = time.time()
        with suppress_observation():
            results = pool.map(tasks)
        if self.observation is None:
            return results
        return self._merge(results, submitted)

    def _lane(self, pid: int) -> str:
        lane = self._worker_lanes.get(pid)
        if lane is None:
            lane = f"sweep.worker{len(self._worker_lanes)}"
            self._worker_lanes[pid] = lane
        return lane

    def _merge(self, records: Sequence[_TaskRecord],
               submitted: float) -> List[Any]:
        observation = self.observation
        epoch = observation.epoch
        tracer = observation.ambient_tracer
        local = MetricsRegistry()
        results: List[Any] = []
        batches: Dict[Tuple[int, int], List[_TaskRecord]] = {}
        lane_first_start: Dict[str, float] = {}
        for record in records:
            results.append(record.result)
            lane = self._lane(record.pid)
            batches.setdefault((record.pid, record.batch), []).append(record)
            started, ended = record.started, max(record.ended, record.started)
            if lane not in lane_first_start or started < lane_first_start[lane]:
                lane_first_start[lane] = started
            mechanism, chunk_size, threads, kind = record.task
            duration = ended - started
            tracer.span(started - epoch, ended - epoch, lane,
                        f"{kind} {mechanism}/c{chunk_size}/t{threads}",
                        payload={"kind": kind, "mechanism": mechanism,
                                 "chunk_size": chunk_size, "threads": threads,
                                 "wall_ms": duration * 1e3})
            local.observe("sweep_task_ms", duration * 1e3, kind=kind)
        for (pid, _batch), group in sorted(batches.items()):
            lane = self._lane(pid)
            start = min(record.started for record in group)
            end = max(max(record.ended, record.started) for record in group)
            tracer.span(start - epoch, end - epoch, lane, "batch",
                        payload={"tasks": len(group)})
            local.observe("sweep_batch_ms", (end - start) * 1e3, worker=lane)
        for lane, first_start in lane_first_start.items():
            local.observe("sweep_queue_wait_ms",
                          max(0.0, first_start - submitted) * 1e3,
                          worker=lane)
        local.inc("sweep_tasks", len(records))
        observation.metrics.merge(local)
        return results

    def _log(self, kind: str, config: Optional[str] = None,
             **payload: Any) -> None:
        if self.observation is not None:
            self.observation.decisions.log(kind, config=config, **payload)

    def floors_done(self, floors: Dict[ProactConfig, float]) -> None:
        """One wave's infinite-BW lower bounds finished."""
        if self.observation is None or not floors:
            return
        for value in floors.values():
            self.observation.metrics.observe(
                "sweep_floor_runtime_ms", value * 1e3,
                platform=self.platform)
        values = floors.values()
        self._log("floors", count=len(floors),
                  min_floor=min(values), max_floor=max(values))

    def measured_entries(self, entries: Sequence[ProfileEntry]) -> None:
        """Record measure (and any incumbent-improvement) events."""
        if self.observation is None:
            return
        for entry in entries:
            self._log("measure", config=entry.config.label(),
                      runtime=entry.runtime, platform=self.platform)
            if self._best is None or _entry_order(entry) < _entry_order(
                    self._best):
                self._best = entry
                self._log("incumbent", config=entry.config.label(),
                          runtime=entry.runtime)

    def pruned_config(self, config: ProactConfig, kind: str, value: float,
                      incumbent: float) -> None:
        """One candidate skipped because its ``kind`` lower bound (the
        analytic ``bound`` or the ``floor``) exceeds the incumbent."""
        self._log("prune", config=config.label(), incumbent=incumbent,
                  **{kind: value})

    def certify_wave(self, size: int) -> None:
        self._log("certify", size=size)


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------

class Profiler:
    """Configuration-space search for one platform."""

    def __init__(self, platform: PlatformSpec,
                 chunk_sizes: Sequence[int] = PROFILE_CHUNK_SIZES,
                 thread_counts: Sequence[int] = PROFILE_THREAD_COUNTS,
                 mechanisms: Sequence[str] = ALL_MECHANISMS,
                 search: str = "coordinate",
                 jobs: int = 1,
                 toggles: Optional[Mechanisms] = None) -> None:
        if search not in SEARCH_MODES:
            raise ProactError(
                f"unknown search mode {search!r}; "
                f"expected one of {SEARCH_MODES}")
        if not chunk_sizes or not thread_counts or not mechanisms:
            raise ProactError("profiler needs non-empty sweep ranges")
        if jobs < 1:
            raise ProactError(f"need >= 1 job: {jobs}")
        for axis, values in (("chunk_sizes", chunk_sizes),
                             ("thread_counts", thread_counts),
                             ("mechanisms", mechanisms)):
            if len(set(values)) != len(values):
                # A repeated value would be measured twice.
                raise ProactError(f"duplicate {axis}: {tuple(values)}")
        #: Mechanism-ablation policy applied to every measurement
        #: (``None`` = all on).  With ``decoupled_agent`` ablated the
        #: sweep space collapses to inline only.
        self.toggles = toggles
        if toggles is not None and not toggles.decoupled_agent:
            mechanisms = [m for m in mechanisms if m == MECH_INLINE]
            if not mechanisms:
                raise ProactError(
                    "decoupled_agent is ablated and the requested "
                    "mechanism list has no inline entry — nothing to sweep")
        self.platform = platform
        self.chunk_sizes = tuple(sorted(chunk_sizes))
        self.thread_counts = tuple(sorted(thread_counts))
        self.mechanisms = tuple(mechanisms)
        #: The configured mode: one of :data:`SEARCH_MODES`.
        self.search_mode = search
        #: Candidates measured at once (:class:`SweepPool` workers).
        self.jobs = jobs

    def profile(self, phase_builder: PhaseBuilder) -> ProfileResult:
        """Run the sweep for one application.

        Every mode measures in waves of independent configurations:
        exhaustive measures the full grid in one wave, coordinate search
        runs a chunk wave and then a thread wave, and ``search="search"``
        runs floors and measurements best-first by their lower bounds
        (see the module docstring).  Exhaustive and coordinate entries
        are identical, in identical order, at any job count; a search
        sweep's winner is, and so are its serial entries.

        One :class:`SweepPool` serves the whole sweep, so the platform
        and builder ship to its workers once.  Under an active
        observation the task function is wrapped in :class:`_TelemetryFn`
        (workers stamp timing envelopes that :meth:`_SweepTelemetry.map`
        unwraps and merges); otherwise the pool maps the bare task
        function.
        """
        telemetry = _SweepTelemetry(active_observation(), self.platform.name)
        fn = functools.partial(_sweep_task, self.platform, phase_builder,
                               toggles=self.toggles)
        if telemetry.observation is not None:
            fn = _TelemetryFn(fn)
        with SweepPool(fn, self.jobs) as pool:
            if self.search_mode == "search":
                return self._profile_search(pool, telemetry, phase_builder)
            if self.search_mode == "coordinate":
                return self._profile_coordinate(pool, telemetry)
            return ProfileResult(entries=self._measure(
                self._full_grid(), pool, telemetry))

    def _full_grid(self, thread_counts: Optional[Sequence[int]] = None,
                   ) -> List[ProactConfig]:
        """Every candidate of the exhaustive search, in mechanism order.

        ``thread_counts`` narrows the decoupled mechanisms' thread axis
        (coordinate search's chunk wave uses only the top count).
        """
        if thread_counts is None:
            thread_counts = self.thread_counts
        grid: List[ProactConfig] = []
        for mechanism in self.mechanisms:
            if mechanism == MECH_INLINE:
                # Inline has no decoupled knobs; one representative point.
                grid.append(ProactConfig(MECH_INLINE, self.chunk_sizes[0],
                                         self.thread_counts[0]))
                continue
            grid.extend(ProactConfig(mechanism, chunk_size, threads)
                        for chunk_size in self.chunk_sizes
                        for threads in thread_counts)
        return grid

    def _measure(self, configs: Sequence[ProactConfig],
                 pool: SweepPool, telemetry: _SweepTelemetry,
                 ) -> List[ProfileEntry]:
        """Fully measure one wave of configs, in order."""
        entries = telemetry.map(pool, [_measure_task(config)
                                       for config in configs])
        telemetry.measured_entries(entries)
        return entries

    def _profile_coordinate(self, pool: SweepPool,
                            telemetry: _SweepTelemetry) -> ProfileResult:
        """Chunks at the top thread count, then threads at the best chunk.

        Entries are grouped by mechanism: each one's chunk wave followed
        by its thread wave.
        """
        grouped: Dict[str, List[ProfileEntry]] = {
            mechanism: [] for mechanism in self.mechanisms}
        chunk_wave = self._full_grid(self.thread_counts[-1:])
        for entry in self._measure(chunk_wave, pool, telemetry):
            grouped[entry.config.mechanism].append(entry)
        best_chunk = {
            mechanism: min(entries, key=_entry_order).config.chunk_size
            for mechanism, entries in grouped.items()
            if mechanism != MECH_INLINE}
        thread_wave = [ProactConfig(mechanism, chunk_size, threads)
                       for mechanism, chunk_size in best_chunk.items()
                       for threads in self.thread_counts[:-1]]
        for entry in self._measure(thread_wave, pool, telemetry):
            grouped[entry.config.mechanism].append(entry)
        return ProfileResult(entries=[entry for entries in grouped.values()
                                      for entry in entries])

    def _profile_search(self, pool: SweepPool, telemetry: _SweepTelemetry,
                        phase_builder: PhaseBuilder) -> ProfileResult:
        """Best-first branch-and-bound over the two-level bound.

        One heap holds every candidate by its best known lower bound:
        the analytic :func:`_floor_bounds` until its floor has run, then
        the floor.  Ties go toward the smallest config.  A popped bound
        becomes a floor task whose result goes back on the heap; a
        popped floor becomes a measurement.  Each wave pops up to
        ``jobs`` entries whose value does not exceed the incumbent.
        The first wave measures its head (the least bound) directly and
        floors the rest, so serially the floors run are one fewer than
        a floor-before-measure search's.
        """
        candidates = self._full_grid()
        bounds = _floor_bounds(self.platform, phase_builder, candidates,
                               self.toggles)
        heap = [(bounds[config], _config_order(config), "bound", config)
                for config in candidates]
        heapq.heapify(heap)
        entries: List[ProfileEntry] = []
        incumbent = math.inf
        floor_runs = 0
        while heap and heap[0][0] <= incumbent:
            wave = []
            while heap and heap[0][0] <= incumbent and len(wave) < self.jobs:
                wave.append(heapq.heappop(heap))
            tasks = [_floor_task(config) if kind == "bound"
                     else _measure_task(config)
                     for _value, _order, kind, config in wave]
            if incumbent == math.inf:
                # No incumbent, so no floor can prune yet: measure the
                # least-bound candidate instead of flooring it first.
                tasks[0] = _measure_task(wave[0][3])
            measuring = sum(task[3] == "measure" for task in tasks)
            if measuring:
                telemetry.certify_wave(measuring)
            results = telemetry.map(pool, tasks)
            floors: Dict[ProactConfig, float] = {}
            measured: List[ProfileEntry] = []
            for (_value, order, _kind, config), task, result in zip(
                    wave, tasks, results):
                if task[3] == "floor":
                    floors[config] = result
                    heapq.heappush(heap, (result, order, "floor", config))
                else:
                    measured.append(result)
            floor_runs += len(floors)
            telemetry.floors_done(floors)
            telemetry.measured_entries(measured)
            entries.extend(measured)
            incumbent = min((entry.runtime for entry in entries),
                            default=math.inf)
        for value, _order, kind, config in sorted(heap):
            telemetry.pruned_config(config, kind, value, incumbent)
        return ProfileResult(
            entries=entries,
            pruned_configs=len(candidates) - len(entries),
            floor_runs=floor_runs)
