"""Concurrency-safe base for the signature-keyed plan stores.

:class:`~repro.core.cache.ProfileStore` and
:class:`~repro.collectives.tuner.CollectivePlanStore` are the same data
structure with different value types: a dict from a signature-suffixed
key tuple to a small plan object, optionally mirrored to a JSON file.
Parallel sweeps (``--jobs N`` runner workers, sweep worker pools) and
threads share one store, which is what this base exists for.  It
provides:

**Thread safety.**  Every public operation holds one re-entrant lock,
so interleaved ``get``/``put``/``reload`` calls from a thread pool
never lose updates or observe a half-applied mutation.

**Torn-read-free persistence.**  Saves write a private temporary file
and ``os.replace`` it over the store path, so a concurrent reader — a
sweep worker sharing the store path — always loads either the old
complete document or the new complete document, never a truncated
prefix.  Saves additionally fold in entries that another process
persisted since our last load (read-merge-write; our own entries win),
and the read-merge-replace sequence holds an exclusive ``flock`` on a
sidecar lock file so concurrent saves from two processes serialize —
two processes appending different signatures to one file both survive,
with no lost updates even under contention.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar, Union

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError


@contextlib.contextmanager
def _file_lock(path: pathlib.Path) -> Iterator[None]:
    """Cross-process mutual exclusion around one store file.

    An exclusive ``flock`` on a sidecar ``<name>.lock`` file serializes
    the read-merge-write save critical section between *processes* (the
    store's RLock only covers threads), so two processes appending to
    one file cannot interleave read and replace and lose each other's
    entries.  Plain readers never take the lock — the atomic rename
    already guarantees they see a complete document.  Degrades to a
    no-op where ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)

#: Separator between key parts in the persisted JSON document.
KEY_SEPARATOR = "::"

ValueT = TypeVar("ValueT")

#: A store key: fixed leading parts plus the trailing sweep signature.
Key = Tuple[str, ...]


class SignatureKeyedStore(Generic[ValueT]):
    """Locked, atomically-persisted ``{key tuple: plan}``.

    Subclasses define the schema: how many parts a key has
    (:attr:`KEY_PARTS`, signature last), how values serialize
    (:meth:`_encode_value` / :meth:`_decode_value`), and which error
    type corrupt documents raise (:attr:`ERROR`).
    """

    #: Number of parts in a key, including the trailing signature.
    KEY_PARTS: int = 3

    #: Error type for corrupt documents (a :class:`ReproError` subclass).
    ERROR = ReproError

    #: Human-readable key layout, used in corrupt-document errors.
    KEY_LAYOUT = "part::part::signature"

    #: What the store holds, for error messages ("profile store", ...).
    KIND = "store"

    def __init__(self, path: Optional[Union[str, pathlib.Path]] = None,
                 ) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._entries: Dict[Key, ValueT] = {}
        if self.path is not None and self.path.exists():
            with self._lock:
                self._entries = self._read_file(self.path)

    # ------------------------------------------------------------------
    # Schema hooks
    # ------------------------------------------------------------------
    def _encode_value(self, value: ValueT) -> Dict:
        raise NotImplementedError

    def _decode_value(self, data: Dict) -> ValueT:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Core operations (all locked)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _get_entry(self, key: Key) -> Optional[ValueT]:
        with self._lock:
            return self._entries.get(key)

    def _put_entry(self, key: Key, value: ValueT) -> None:
        """Store ``value`` and persist it when file-backed."""
        with self._lock:
            self._entries[key] = value
            if self.path is not None:
                self._save_locked()

    def reload(self) -> None:
        """Re-read the backing file, folding in other processes' puts.

        Disk entries for keys we also hold are ignored — our in-memory
        state is authoritative for anything this process computed.
        No-op for in-memory stores.
        """
        if self.path is None:
            return
        with self._lock:
            if not self.path.exists():
                return
            for key, value in self._read_file(self.path).items():
                self._entries.setdefault(key, value)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _save_locked(self) -> None:
        """Atomically replace the store file with the current entries.

        Entries another process persisted since we last read the file
        are preserved (ours win on conflict); a torn or unreadable
        on-disk document is skipped — losing a merge is survivable,
        corrupting the save is not.  The whole read-merge-replace
        sequence runs under :func:`_file_lock`, so a concurrent save in
        another process cannot slip its entries in between our read and
        our replace and have them clobbered.
        """
        assert self.path is not None
        with _file_lock(self.path):
            if self.path.exists():
                try:
                    disk = self._read_file(self.path)
                except ReproError:
                    disk = {}
                disk.update(self._entries)
                self._entries = disk
            payload = {KEY_SEPARATOR.join(key): self._encode_value(value)
                       for key, value in sorted(self._entries.items())}
            text = json.dumps(payload, indent=2, sort_keys=True)
            # Private temp name (pid-suffixed so two processes saving
            # the same store path never scribble on each other's temp
            # file), then an atomic rename: readers see old-or-new,
            # never partial.
            tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
            try:
                tmp.write_text(text)
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                raise

    def _read_file(self, path: pathlib.Path) -> Dict[Key, ValueT]:
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise self.ERROR(
                f"{self.KIND} {path} is not valid JSON") from exc
        if not isinstance(payload, dict):
            raise self.ERROR(
                f"{self.KIND} {path} has an unexpected layout")
        entries: Dict[Key, ValueT] = {}
        for raw_key, data in payload.items():
            parts = tuple(raw_key.split(KEY_SEPARATOR, self.KEY_PARTS - 1))
            if len(parts) < self.KEY_PARTS:
                raise self.ERROR(
                    f"{self.KIND} key {raw_key!r} is not "
                    f"'{self.KEY_LAYOUT}'")
            entries[parts] = self._decode_value(data)
        return entries
