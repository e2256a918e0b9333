"""Declarative experiment registry and the structured result schema.

Every figure/table harness registers itself here under a stable name and
exposes one entry point::

    def experiment(ctx: ExperimentContext) -> ExperimentResult

The :class:`ExperimentResult` carries the rendered table blocks (exactly
what the serial runner has always printed) *plus* machine-readable
metadata — wall time, row count, and the key scalars each figure's
assertions hang off — so CI and the bench trajectory can consume a
``results.json`` instead of scraping pretty-printed text.

Experiments are independent of each other by construction (each builds
its own simulated systems), which is what lets the runner execute them
on a process pool; :func:`run_experiment` is the picklable unit of work.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ProactError
from repro.experiments.report import TextTable
from repro.units import MiB


@dataclass(frozen=True)
class ProfilePolicy:
    """How the sweeping experiments drive the profiler.

    ``strategy`` is the search mode (``"coordinate"``, ``"exhaustive"``,
    or ``"search"`` for the floor-seeded autotuner); ``jobs`` fans each
    sweep over that many warm worker processes.  The defaults reproduce
    the historical serial coordinate sweep byte-for-byte.
    """

    strategy: str = "coordinate"
    jobs: int = 1


DEFAULT_PROFILE_POLICY = ProfilePolicy()


@dataclass(frozen=True)
class ExperimentContext:
    """Run-wide knobs an experiment may consult.

    ``quick`` shrinks the microbenchmark data size and the profiler
    grids so the full suite completes in minutes; the shapes are the
    same, just with coarser sweeps.  ``observe`` wraps each experiment
    in an :func:`repro.obs.capture` scope so every system it builds is
    traced and metered; the captured Chrome-trace document, metrics
    snapshot and any profiler sweep's decision log travel back on the
    :class:`ExperimentResult` (picklable, so this works across the
    runner's worker processes).  Observation never changes an
    experiment's tables — tracing only records, it does not schedule.
    ``validate`` wraps each experiment in a
    :func:`repro.validate.validation` scope: every system it builds runs
    under the readiness sanitizer and conservation checker, and any
    tripped invariant surfaces as that experiment's failure (the suite
    keeps going and exits non-zero).  Like observation, validation only
    checks — it never changes what an experiment computes.

    ``profile`` is the :class:`ProfilePolicy` for the experiments that
    sweep configuration spaces: its search mode and how many warm worker
    processes fan each sweep.  It defaults to the historical serial
    coordinate sweep, so existing tables are byte-identical unless
    explicitly overridden (``--profile-strategy`` / ``--profile-jobs``
    on the runner CLI).
    """

    quick: bool = True
    observe: bool = False
    validate: bool = False
    profile: ProfilePolicy = DEFAULT_PROFILE_POLICY

    @property
    def micro_bytes(self) -> int:
        """Microbenchmark data size (the paper uses 256 MiB)."""
        return 64 * MiB if self.quick else 256 * MiB


@dataclass
class ExperimentResult:
    """One experiment's output: rendered tables + structured metadata."""

    name: str
    label: str
    tables: List[str]
    rows: int
    scalars: Dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0
    #: Chrome-trace document captured when the context asked to observe.
    trace: Optional[Dict] = None
    #: Metrics snapshot captured when the context asked to observe.
    metrics: Optional[Dict] = None
    #: Decision-log export of the sweeps an observed experiment ran.
    decisions: Optional[List[Dict]] = None
    #: Sanitizer summary captured when the context asked to validate.
    validation: Optional[Dict] = None
    #: Set when the experiment raised instead of producing tables; the
    #: runner reports it and exits non-zero.
    error: Optional[str] = None

    @classmethod
    def build(cls, name: str, label: str, tables: Sequence[TextTable],
              scalars: Mapping[str, float]) -> "ExperimentResult":
        """Assemble a result from rendered tables, counting data rows."""
        return cls(
            name=name,
            label=label,
            tables=[str(table) for table in tables],
            rows=sum(len(table.rows) for table in tables),
            scalars={key: float(value) for key, value in scalars.items()},
        )

    def to_dict(self) -> Dict:
        """JSON-ready form (tables omitted; they live in the text log).

        Metrics are merged into the results schema when captured; the
        trace document is left out (it gets its own file via
        ``--trace``) to keep ``results.json`` lean.
        """
        payload = {
            "name": self.name,
            "label": self.label,
            "elapsed": self.elapsed,
            "rows": self.rows,
            "scalars": dict(self.scalars),
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if self.decisions is not None:
            payload["decisions"] = self.decisions
        if self.validation is not None:
            payload["validation"] = self.validation
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def failed(cls, name: str, label: str,
               error: BaseException) -> "ExperimentResult":
        """A placeholder result for an experiment that raised."""
        return cls(name=name, label=label, tables=[], rows=0,
                   error=f"{type(error).__name__}: {error}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: a stable name bound to a harness module."""

    name: str
    label: str
    module: str

    def run(self, ctx: ExperimentContext) -> ExperimentResult:
        harness = importlib.import_module(self.module)
        return harness.experiment(ctx)


#: Every experiment, in the suite's canonical (serial) output order.
REGISTRY: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec("table1", "Table I",
                   "repro.experiments.table1_systems"),
    ExperimentSpec("fig1", "Figure 1",
                   "repro.experiments.fig1_paradigms"),
    ExperimentSpec("fig2", "Figure 2",
                   "repro.experiments.fig2_goodput"),
    ExperimentSpec("fig4", "Figure 4",
                   "repro.experiments.fig4_profile"),
    ExperimentSpec("fig6", "Figure 6",
                   "repro.experiments.fig6_micro"),
    ExperimentSpec("fig7", "Figure 7",
                   "repro.experiments.fig7_endtoend"),
    ExperimentSpec("table2", "Table II",
                   "repro.experiments.table2_configs"),
    ExperimentSpec("fig8", "Figure 8",
                   "repro.experiments.fig8_overhead"),
    ExperimentSpec("fig9", "Figure 9",
                   "repro.experiments.fig9_overlap"),
    ExperimentSpec("fig10", "Figure 10",
                   "repro.experiments.fig10_scaling"),
    ExperimentSpec("ablations", "Ablations",
                   "repro.experiments.ablations"),
    ExperimentSpec("ablation", "Mechanism ablation",
                   "repro.experiments.ablation_mechanisms"),
    ExperimentSpec("utilization", "Utilization smoothing",
                   "repro.experiments.utilization"),
    ExperimentSpec("sensitivity", "Sensitivity",
                   "repro.experiments.sensitivity"),
    ExperimentSpec("collectives", "Collectives",
                   "repro.experiments.collectives"),
    ExperimentSpec("cluster", "Cluster",
                   "repro.experiments.cluster"),
    ExperimentSpec("autotune", "Search autotuner",
                   "repro.experiments.autotune"),
)

_BY_NAME: Dict[str, ExperimentSpec] = {spec.name: spec for spec in REGISTRY}


def experiment_names() -> List[str]:
    return [spec.name for spec in REGISTRY]


def get_spec(name: str) -> ExperimentSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ProactError(
            f"unknown experiment {name!r}; "
            f"known: {', '.join(experiment_names())}") from None


def select_specs(only: Optional[Sequence[str]] = None,
                 ) -> List[ExperimentSpec]:
    """Registry order, optionally restricted to the named experiments."""
    if only is None:
        return list(REGISTRY)
    requested = {name: get_spec(name) for name in only}
    return [spec for spec in REGISTRY if spec.name in requested]


def run_experiment(name: str, ctx: ExperimentContext) -> ExperimentResult:
    """Execute one registered experiment, stamping its wall time.

    Module-level (and argument-picklable) so the runner can ship it to
    ``ProcessPoolExecutor`` workers.
    """
    spec = get_spec(name)
    started = time.perf_counter()
    # One Session per experiment carries the context's observe/validate
    # policy; its ambient scopes wrap the harness exactly as the old
    # nested capture()/validation() blocks did.
    from repro.api import Session
    session = Session(trace=ctx.observe, validate=ctx.validate)
    try:
        with session.scope():
            result = spec.run(ctx)
        if ctx.observe:
            result.trace = session.chrome_trace()
            result.metrics = session.metrics.snapshot()
            result.decisions = session.decisions.export() or None
        if ctx.validate:
            result.validation = session.validation_summary()
    except Exception as exc:  # noqa: BLE001 - suite must outlive one failure
        result = ExperimentResult.failed(name, spec.label, exc)
    result.elapsed = time.perf_counter() - started
    return result
