"""Persistent profile store: PROACT's compile-time artifact.

The paper's framework runs the profiler once per application/platform and
bakes the chosen configuration into the compiled binary.  This module is
that artifact for the library: a JSON-backed store mapping
``(platform, workload, sweep signature)`` to the profiled
:class:`ProactConfig`, so repeated runs skip the sweep.

    store = ProfileStore(path=".proact_profiles.json")
    config = store.get_or_profile(platform, workload, profiler)

The *sweep signature* (:meth:`Profiler.sweep_signature`) identifies the
full search space — mechanisms, grids, and search mode — so sweeps over
different grids never collide in the store, and every worker of a
parallel sweep (or a parallel experiment runner) shares hits with its
serial twin: the signature deliberately excludes the executor backend.

Because ``--jobs N`` runner workers and parallel sweeps may share one
store file, the store rides
:class:`~repro.core.store.SignatureKeyedStore`: every operation is
thread-safe, and saves are a locked read-merge-write with an atomic
write-then-rename, so concurrent writers never lose each other's entries
and a reader sharing the store path never sees a torn document.
"""

from __future__ import annotations

import typing
from typing import Dict, Optional, Tuple

from repro.core.config import ProactConfig
from repro.core.profiler import Profiler
from repro.core.store import SignatureKeyedStore
from repro.errors import ProactError
from repro.hw.platform import PlatformSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import Workload

#: ``(platform, workload, sweep signature)``.
_Key = Tuple[str, str, str]


def _config_to_dict(config: ProactConfig) -> Dict:
    return {
        "mechanism": config.mechanism,
        "chunk_size": config.chunk_size,
        "transfer_threads": config.transfer_threads,
        "poll_period": config.poll_period,
    }


def _config_from_dict(data: Dict) -> ProactConfig:
    try:
        return ProactConfig(
            mechanism=data["mechanism"],
            chunk_size=int(data["chunk_size"]),
            transfer_threads=int(data["transfer_threads"]),
            poll_period=float(data.get("poll_period", 4e-6)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProactError(f"corrupt profile entry: {data!r}") from exc


class ProfileStore(SignatureKeyedStore[ProactConfig]):
    """JSON-backed, concurrency-safe cache of profiled configurations."""

    KEY_PARTS = 3
    ERROR = ProactError
    KEY_LAYOUT = "platform::workload::signature"
    KIND = "profile store"

    def __contains__(self, key: _Key) -> bool:
        return self._get_entry(key) is not None

    def get(self, platform_name: str, workload_name: str,
            signature: str) -> Optional[ProactConfig]:
        """The stored configuration, or ``None`` if never profiled."""
        return self._get_entry((platform_name, workload_name, signature))

    def put(self, platform_name: str, workload_name: str,
            config: ProactConfig, signature: str) -> None:
        """Store (and persist, when backed by a file) a configuration."""
        self._put_entry((platform_name, workload_name, signature), config)

    def get_or_profile(self, platform: PlatformSpec, workload: "Workload",
                       profiler: Optional[Profiler] = None) -> ProactConfig:
        """Return the cached config, profiling (and caching) on a miss.

        Results are keyed by the profiler's sweep signature, so asking
        again with a different grid re-profiles instead of returning a
        config chosen from a different search space.  The profiler must
        sweep ``platform`` itself: its winner is stored under that name.
        """
        active_profiler = profiler or Profiler(platform)
        if active_profiler.platform.name != platform.name:
            raise ProactError(
                f"profiler sweeps {active_profiler.platform.name!r} but "
                f"the plan would be stored for {platform.name!r}")
        signature = active_profiler.sweep_signature()
        cached = self.get(platform.name, workload.name, signature)
        if cached is not None:
            return cached
        profile = active_profiler.profile(workload.phase_builder())
        config = profile.best_config
        self.put(platform.name, workload.name, config, signature)
        return config

    # ------------------------------------------------------------------
    # Persistence schema
    # ------------------------------------------------------------------
    def _encode_value(self, value: ProactConfig) -> Dict:
        return _config_to_dict(value)

    def _decode_value(self, data: Dict) -> ProactConfig:
        return _config_from_dict(data)
