"""One-stop session facade over the simulator.

Four PRs of growth left the library with powerful but scattered entry
points: ``System`` construction, paradigm classes, the profiler, the
collective executor, and three separate ambient scopes (observation,
validation, suppression).  :class:`Session` bundles a platform plus an
observability/validation policy into one object with one method per
thing you actually do::

    from repro.api import Session
    from repro.workloads import PageRankWorkload

    session = Session("4x_volta", validate=True, trace=True)
    result = session.run(PageRankWorkload(), paradigm="proact")
    profile = session.profile(PageRankWorkload(), strategy="search")
    reduced = session.collective("all_reduce", 16 << 20)

    print(result.runtime, profile.best_config.label())
    session.save_chrome_trace("trace.json")
    print(session.validation_summary())

Every entry point runs inside the session's ambient scopes, so traces,
metrics, and validation counters from successive calls accumulate on the
session; grab them with :meth:`chrome_trace`, :attr:`metrics`, and
:meth:`validation_summary`.
"""

from __future__ import annotations

import json
import typing
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Union

from contextlib import ExitStack, contextmanager

from repro.errors import ConfigurationError
from repro.hw.platform import PlatformSpec, platform_by_name
from repro.obs.capture import Observation, observing
from repro.obs.metrics import MetricsRegistry
from repro.validate.scope import Validation, validating

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import Mechanisms

__all__ = ["Session"]

#: Paradigm registry: public name -> factory.  Resolved lazily so that
#: importing :mod:`repro.api` stays cheap and cycle-free.
def _paradigm_factories() -> Dict[str, Callable[..., Any]]:
    from repro import paradigms as p
    return {
        "bulk": p.BulkMemcpyParadigm,
        "um": p.UnifiedMemoryParadigm,
        "p2p": p.P2pLoadParadigm,
        "inline": p.ProactInlineParadigm,
        "decoupled": p.ProactDecoupledParadigm,
        "proact": p.ProactAutoParadigm,
        "hardware": p.ProactHardwareParadigm,
        "infinite": p.InfiniteBandwidthParadigm,
    }


class Session:
    """A platform plus an observability/validation policy.

    Args:
        platform: A Table I platform name (``"4x_volta"``), a
            :class:`~repro.hw.platform.PlatformSpec`, or ``None`` for
            the default platform.
        num_gpus: Override the platform's GPU count.
        validate: Run every simulation under the readiness sanitizer and
            conservation checker; violations raise
            :class:`~repro.errors.ValidationError`.
        trace: Record structural traces and metrics for every run
            (exported with :meth:`chrome_trace` and :attr:`metrics`).
            Profiler sweeps also record per-worker activity lanes,
            the search/prune :class:`DecisionLog` (:attr:`decisions`),
            and sweep latency histograms; candidate simulations inside
            sweeps stay unobserved, so results are unchanged.
        mechanisms: Mechanism-ablation policy
            (:class:`~repro.core.config.Mechanisms`).  Every system,
            paradigm, and profiler built through this session honors
            the switches; ``None`` (the default) enables everything::

                Session(mechanisms=Mechanisms(write_coalescing=False))
    """

    DEFAULT_PLATFORM = "4x_volta"

    def __init__(self, platform: Union[str, PlatformSpec, None] = None, *,
                 num_gpus: Optional[int] = None,
                 validate: bool = False,
                 trace: bool = False,
                 mechanisms: Optional["Mechanisms"] = None) -> None:
        if platform is None:
            platform = self.DEFAULT_PLATFORM
        if isinstance(platform, str):
            platform = platform_by_name(platform)
        if not isinstance(platform, PlatformSpec):
            raise ConfigurationError(
                f"platform must be a name or PlatformSpec, got {platform!r}")
        if num_gpus is not None:
            platform = platform.with_num_gpus(num_gpus)
        self.platform = platform
        self.mechanisms = mechanisms
        # One long-lived observation/validation per session: every entry
        # point below re-installs them as the ambient scopes, so results
        # accumulate across calls.
        self._observation: Optional[Observation] = None
        if trace:
            self._observation = Observation()
        self._validation: Optional[Validation] = None
        if validate:
            self._validation = Validation()

    # ------------------------------------------------------------------
    # Scope plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self) -> Iterator["Session"]:
        """Install this session's ambient scopes around arbitrary code.

        The escape hatch for APIs the facade does not wrap yet::

            with session.scope():
                run_experiment("fig7_endtoend", ctx)
        """
        with ExitStack() as stack:
            if self._observation is not None:
                stack.enter_context(observing(self._observation))
            if self._validation is not None:
                stack.enter_context(validating(self._validation))
            yield self

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def system(self):
        """Build a :class:`~repro.runtime.system.System` for manual use.

        The system picks up the session's tracer/metrics/sanitizer
        policy; call :meth:`finish` on it when your manual run
        completes to flush observability and run the validation audit.
        """
        with self.scope():
            return self._build_system()

    def finish(self, system) -> None:
        """Flush a hand-driven system built via :meth:`system`.

        Exports merged link-occupancy lanes and run totals into the
        session's trace/metrics and runs the end-of-run conservation
        audit.  Idempotent.  ``run``/``profile``/``collective`` do this
        themselves — only manually driven systems need it.
        """
        system._finish()

    def run(self, workload, paradigm: Union[str, Any] = "proact",
            **paradigm_kwargs):
        """Execute ``workload`` under a paradigm; returns its result.

        ``paradigm`` is a registry name (one of ``bulk``, ``um``,
        ``p2p``, ``inline``, ``decoupled``, ``proact``, ``hardware``,
        ``infinite``) or an already constructed
        :class:`~repro.paradigms.Paradigm`.  Keyword arguments go to the
        paradigm constructor (e.g. ``config=ProactConfig(...)`` for
        ``decoupled``, ``dma_engines=2`` for ``bulk``).  Returns a
        :class:`~repro.paradigms.ParadigmResult`.
        """
        instance = self._resolve_paradigm(paradigm, paradigm_kwargs)
        if self.mechanisms is not None and instance.mechanisms is None:
            # The session's ablation policy applies unless the paradigm
            # was constructed with an explicit one.
            instance.mechanisms = self.mechanisms
        with self.scope():
            return instance.execute(workload, self.platform)

    def profile(self, workload, *, strategy: str = "coordinate",
                chunk_sizes: Optional[Sequence[int]] = None,
                thread_counts: Optional[Sequence[int]] = None,
                mechanisms: Optional[Sequence[str]] = None,
                jobs: int = 1):
        """Run PROACT's compile-time profiler for ``workload``.

        ``strategy`` names the search mode (``"coordinate"``,
        ``"exhaustive"``, or ``"search"`` for the floor-seeded
        autotuner: the exhaustive argmin from fewer full measurements).
        ``jobs`` above 1 fans the sweep over that many warm workers.
        Returns a :class:`~repro.core.profiler.ProfileResult`.
        """
        from repro.core.profiler import Profiler
        grid = {axis: values for axis, values in (
            ("chunk_sizes", chunk_sizes), ("thread_counts", thread_counts),
            ("mechanisms", mechanisms)) if values is not None}
        profiler = Profiler(
            self.platform, **grid, search=strategy, jobs=jobs,
            toggles=self.mechanisms)
        builder = (workload.phase_builder()
                   if hasattr(workload, "phase_builder") else workload)
        with self.scope():
            return profiler.profile(builder)

    def collective(self, collective: str, nbytes: int, *,
                   algorithm: str = "ring",
                   chunk_size: Optional[int] = None,
                   root: int = 0):
        """Run one collective to completion; returns its result.

        Builds a fresh system under the session's policy, launches the
        collective, runs the simulation until it finishes, and flushes
        observability — the whole
        ``System``/``run``/:meth:`finish` dance in one call.
        Returns a :class:`~repro.collectives.executor.CollectiveResult`.
        """
        with self.scope():
            system = self._build_system()
            proc = system.collective(collective, nbytes,
                                     algorithm=algorithm,
                                     chunk_size=chunk_size, root=root)
            result = system.run(until=proc)
            system._finish()
            return result

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The session's shared metrics registry (``None`` untracked)."""
        if self._observation is None:
            return None
        return self._observation.metrics

    def chrome_trace(self) -> Dict:
        """Everything traced so far as one Chrome-trace document."""
        if self._observation is None:
            raise ConfigurationError(
                "session was created without trace; "
                "pass trace=True to Session()")
        return self._observation.chrome_trace()

    def save_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)

    @property
    def decisions(self):
        """The sweep :class:`~repro.obs.decisions.DecisionLog`.

        Populated by :meth:`profile` calls on a ``Session(trace=True)``;
        ``None`` when the session observes nothing.
        """
        if self._observation is None:
            return None
        return self._observation.decisions

    def save_report(self, path: str, title: str = "Session report") -> None:
        """Write a run report (trace + metrics + decisions) to ``path``.

        ``.json`` paths get the structured report; anything else gets
        the rendered markdown (see :mod:`repro.obs.report`).
        """
        if self._observation is None:
            raise ConfigurationError(
                "session was created without trace; "
                "pass trace=True to Session()")
        from repro.obs.report import observation_report, write_report
        write_report(path, observation_report(self._observation,
                                              title=title))

    def validation_summary(self) -> Dict[str, int]:
        """Aggregated sanitizer counters over every validated run."""
        if self._validation is None:
            raise ConfigurationError(
                "session was created without validate=True")
        return self._validation.summary()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_system(self):
        from repro.runtime.system import System
        return System(self.platform, mechanisms=self.mechanisms)

    def _resolve_paradigm(self, paradigm: Union[str, Any],
                          kwargs: Dict[str, Any]):
        from repro.paradigms import Paradigm
        if isinstance(paradigm, Paradigm):
            if kwargs:
                raise ConfigurationError(
                    "paradigm kwargs only apply when the paradigm is "
                    "given by name")
            return paradigm
        if not isinstance(paradigm, str):
            raise ConfigurationError(
                f"paradigm must be a name or Paradigm, got {paradigm!r}")
        factories = _paradigm_factories()
        try:
            factory = factories[paradigm]
        except KeyError:
            raise ConfigurationError(
                f"unknown paradigm {paradigm!r}; "
                f"expected one of {', '.join(sorted(factories))}"
            ) from None
        return factory(**kwargs)

    def __repr__(self) -> str:
        flags = []
        if self._validation is not None:
            flags.append("validate")
        if self._observation is not None:
            flags.append("trace")
        if self.mechanisms is not None and not self.mechanisms.all_enabled:
            flags.append(self.mechanisms.describe())
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (f"<Session {self.platform.name}: "
                f"{self.platform.num_gpus} GPUs{suffix}>")
