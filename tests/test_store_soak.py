"""Multi-process soak for the signature-keyed plan stores.

Two *real* operating-system processes share one
:class:`~repro.core.cache.ProfileStore` file and write disjoint keys
concurrently.  The store's read-merge-write put-saves must preserve
every update (no lost updates), and its temp-file + ``os.replace``
persistence must never expose a truncated document to a concurrent
reader (no torn reads).  This is the cross-process half of the
thread-safety story the store's module docstring promises; the
in-process half is covered by ``test_profile_store.py``.
"""

import json
import multiprocessing
import pathlib

from repro.core.cache import ProfileStore
from repro.core.config import DEFAULT_CONFIG

WRITES_PER_WORKER = 25


def _writer(path: str, worker_id: int, barrier, n: int) -> None:
    """Persist ``n`` distinct entries through a private store instance.

    Module-level so it pickles under any multiprocessing start method.
    """
    store = ProfileStore(path=path)
    barrier.wait()  # maximize interleaving: both writers start together
    for i in range(n):
        store.put(f"plat{worker_id}", f"wl{i}", DEFAULT_CONFIG, "sig")


def _reader(path: str, stop, failures) -> None:
    """Re-read the shared file until told to stop.

    Every observed state must be a complete JSON document that a fresh
    store accepts — a truncated prefix (torn read) fails both checks.
    """
    target = pathlib.Path(path)
    while not stop.is_set():
        if not target.exists():
            continue
        try:
            text = target.read_text()
            if not text:
                continue
            document = json.loads(text)
            if not isinstance(document, dict):
                raise ValueError(f"non-dict document: {type(document)}")
            ProfileStore(path=path)  # full decode must succeed too
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            failures.put(f"{type(exc).__name__}: {exc}")
            return


def test_two_processes_share_one_store_file(tmp_path):
    path = str(tmp_path / "profiles.json")
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    stop = ctx.Event()
    failures = ctx.Queue()

    reader = ctx.Process(target=_reader, args=(path, stop, failures))
    writers = [
        ctx.Process(target=_writer,
                    args=(path, worker_id, barrier, WRITES_PER_WORKER))
        for worker_id in (0, 1)]
    reader.start()
    for proc in writers:
        proc.start()
    for proc in writers:
        proc.join(timeout=120)
        assert proc.exitcode == 0, "writer process failed"
    stop.set()
    reader.join(timeout=30)
    assert reader.exitcode == 0, "reader process died mid-soak"
    assert failures.empty(), f"torn read observed: {failures.get()}"

    # No lost updates: every key from both writers survived the
    # concurrent read-merge-write saves.
    merged = ProfileStore(path=path)
    assert len(merged) == 2 * WRITES_PER_WORKER
    for worker_id in (0, 1):
        for i in range(WRITES_PER_WORKER):
            assert merged.get(f"plat{worker_id}", f"wl{i}",
                              "sig") == DEFAULT_CONFIG


def test_fresh_process_sees_persisted_entries(tmp_path):
    """A second store instance (as a new process would build) sees the
    first instance's persisted entries without coordination."""
    path = tmp_path / "profiles.json"
    first = ProfileStore(path=path)
    first.put("p", "a", DEFAULT_CONFIG, "sig")
    second = ProfileStore(path=path)
    assert second.get("p", "a", "sig") == DEFAULT_CONFIG
    # And the reverse direction via reload().
    second.put("p", "b", DEFAULT_CONFIG, "sig")
    first.reload()
    assert first.get("p", "b", "sig") == DEFAULT_CONFIG
