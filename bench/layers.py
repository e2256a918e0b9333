"""The per-layer trace of one pass: counts at layer boundaries and
``cProfile`` self time grouped by simulator package.

Counts come from two places.  ``cProfile`` counts calls of the layer
entry points (``Route.transfer``, ``FluidShare.launch`` ...) by code
object, so no entry point needs a wrapper.  Three wrappers, installed
from outside ``src/`` for the traced pass only, see what call counts
cannot: the name of every process started (``Engine.process``), every
``System`` built (its engine's event count and its fabric's byte totals
are read once its operation ends), and every collective schedule built.

Self time of a C built-in (``heapq.heappush`` ...) is charged to the
package of the Python function that called it, so the fractions say
where the simulator's own code spends its time.  They sum to 1.
"""

from __future__ import annotations

import cProfile
import os
from collections import Counter
from typing import Any, Dict, List, Optional

#: Packages of ``src/repro`` reported as layers; everything else
#: (``repro.api``, experiments, the standard library, this harness) is
#: ``other``.
LAYERS = ("sim", "interconnect", "hw", "core", "runtime", "collectives",
          "cluster", "workloads", "paradigms", "obs", "validate")

#: Every per-layer metric, in report order.
METRICS = (
    "sim.events", "sim.processes", "sim.ns_per_event",
    "interconnect.transfers", "interconnect.quantum_processes",
    "interconnect.wire_bytes", "interconnect.goodput_ratio",
    "hw.fluid_launches", "hw.fluid_demand_changes",
    "core.phase_executions", "core.configs_measured", "core.floor_runs",
    "core.measure_frac",
    "runtime.systems_built", "runtime.system_build_frac",
    "collectives.schedule_ops", "collectives.schedule_build_frac",
    "workloads.build_phases_frac",
    *(f"{layer}.self_frac" for layer in LAYERS), "other.self_frac",
    "harness.trace_overhead",
)

_BUILTIN = "~"


def _key(function) -> tuple:
    """``cProfile``'s key for a Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class LayerTrace:
    """Traces the code run inside ``with LayerTrace():``.

    Call :meth:`after_op` with each operation's result, then read
    :meth:`metrics` once the block has exited.
    """

    def __init__(self) -> None:
        import repro
        from repro.collectives.algorithms import build_schedule
        from repro.collectives.schedule import ScheduleBuilder
        from repro.core.profiler import measure_config
        from repro.core.runtime import ProactPhaseExecutor
        from repro.hw.fluid import FluidShare
        from repro.interconnect.route import (InfiniteRoute, LoopbackRoute,
                                              Route)
        from repro.runtime.system import System
        from repro.sim.engine import Engine
        from repro.workloads import Workload

        self._repro_dir = os.path.dirname(repro.__file__) + os.sep
        self._engine, self._system, self._builder = (
            Engine, System, ScheduleBuilder)
        self._originals: List[tuple] = []
        self._keys = {
            "transfers": [_key(cls.transfer) for cls in
                          (Route, LoopbackRoute, InfiniteRoute)],
            "fluid_launches": [_key(FluidShare.launch)],
            "fluid_demand_changes": [_key(FluidShare.set_demand)],
            "phase_executions": [_key(ProactPhaseExecutor.execute)],
            "configs_measured": [_key(measure_config)],
            "system_build": [_key(System.__init__)],
            "schedule_build": [_key(build_schedule)],
            "build_phases": [_key(cls.__dict__["build_phases"])
                             for cls in _subclasses(Workload)
                             if "build_phases" in cls.__dict__],
        }
        self.processes: Counter = Counter()
        self.schedule_ops = 0
        self.events = 0
        self.wire_bytes = 0
        self.goodput_bytes = 0
        self.systems_built = 0
        self.floor_runs = 0
        self._systems: List[Any] = []
        self._profile = cProfile.Profile()
        self._stats: Optional[dict] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        trace = self
        process = self._engine.process
        init = self._system.__init__
        build = self._builder.build

        def traced_process(engine, generator, name=None):
            trace.processes[(name or "").split(":")[0]] += 1
            return process(engine, generator, name)

        def traced_init(system, *args, **kwargs):
            init(system, *args, **kwargs)
            trace._systems.append(system)

        def traced_build(builder):
            schedule = build(builder)
            trace.schedule_ops += len(schedule.ops)
            return schedule

        self._originals = [(self._engine, "process", process),
                           (self._system, "__init__", init),
                           (self._builder, "build", build)]
        self._engine.process = traced_process
        self._system.__init__ = traced_init
        self._builder.build = traced_build
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()
        for owner, name, original in self._originals:
            setattr(owner, name, original)
        self._profile.create_stats()
        self._stats = self._profile.stats

    def after_op(self, result: Any) -> None:
        """Reads the systems the finished operation built, then drops
        them so a pass holds one operation's systems at a time."""
        for system in self._systems:
            self.events += system.engine.events_fired
            self.wire_bytes += system.fabric.total_wire_bytes()
            self.goodput_bytes += system.fabric.total_goodput_bytes()
        self.systems_built += len(self._systems)
        self._systems.clear()
        self.floor_runs += getattr(result, "floor_runs", 0)

    # ------------------------------------------------------------------
    def metrics(self, untraced_run_host_s: float,
                trace_overhead: float) -> Dict[str, float]:
        """Every metric of :data:`METRICS`.

        ``untraced_run_host_s`` is the untraced pass's timed host seconds
        (for ``sim.ns_per_event``), ``trace_overhead`` the traced pass's
        host time over the untraced one's.
        """
        stats = self._stats
        self_time = self._self_time_by_group()
        self_total = sum(self_time.values())
        # The pass's traced time: inclusive time of the calls made from
        # untraced frames.  A little larger than the summed self times,
        # since cProfile leaves its own bookkeeping unattributed.
        total = sum(entry[3] for entry in stats.values() if not entry[4])

        def calls(name):
            return sum(stats[key][1] for key in self._keys[name]
                       if key in stats)

        def inclusive_frac(name):
            return sum(stats[key][3] for key in self._keys[name]
                       if key in stats) / total

        values = {
            "sim.events": self.events,
            "sim.processes": sum(self.processes.values()),
            "sim.ns_per_event": (untraced_run_host_s / self.events * 1e9
                                 if self.events else 0.0),
            "interconnect.transfers": calls("transfers"),
            "interconnect.quantum_processes": self.processes["quantum"],
            "interconnect.wire_bytes": self.wire_bytes,
            "interconnect.goodput_ratio": (
                self.goodput_bytes / self.wire_bytes
                if self.wire_bytes else 0.0),
            "hw.fluid_launches": calls("fluid_launches"),
            "hw.fluid_demand_changes": calls("fluid_demand_changes"),
            "core.phase_executions": calls("phase_executions"),
            "core.configs_measured": calls("configs_measured"),
            "core.floor_runs": self.floor_runs,
            "core.measure_frac": inclusive_frac("configs_measured"),
            "runtime.systems_built": self.systems_built,
            "runtime.system_build_frac": inclusive_frac("system_build"),
            "collectives.schedule_ops": self.schedule_ops,
            "collectives.schedule_build_frac":
                inclusive_frac("schedule_build"),
            "workloads.build_phases_frac": inclusive_frac("build_phases"),
            "harness.trace_overhead": trace_overhead,
        }
        for group, seconds in self_time.items():
            values[f"{group}.self_frac"] = seconds / self_total
        return values

    def process_counts(self) -> Dict[str, int]:
        """Processes started, by name prefix (the part before ``:``)."""
        return dict(sorted(self.processes.items()))

    def _group(self, key: tuple) -> str:
        filename = key[0]
        if filename.startswith(self._repro_dir):
            package = filename[len(self._repro_dir):].split(os.sep)[0]
            if package in LAYERS:
                return package
        return "other"

    def _self_time_by_group(self) -> Dict[str, float]:
        groups = dict.fromkeys((*LAYERS, "other"), 0.0)
        for key, (_cc, _nc, self_s, _cum, callers) in self._stats.items():
            if key[0] != _BUILTIN:
                groups[self._group(key)] += self_s
                continue
            # A built-in's self time per call site is the third field of
            # its callers entry; charge it to the caller's package.
            charged = 0.0
            for caller, caller_stats in callers.items():
                group = ("other" if caller[0] == _BUILTIN
                         else self._group(caller))
                groups[group] += caller_stats[2]
                charged += caller_stats[2]
            groups["other"] += max(0.0, self_s - charged)
        return groups


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
