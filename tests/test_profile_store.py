"""Tests for the persistent profile store and its concurrency contracts.

Runner workers (``--jobs N``) and parallel sweeps share one store file,
and threads may share one store object.  Besides the plain round trips,
these tests pin what makes that safe for both
:class:`~repro.core.cache.ProfileStore` and
:class:`~repro.collectives.tuner.CollectivePlanStore`: no lost updates
under a thread pool, byte-identical plans across a persist/reload round
trip, read-merge-write saves, and atomic (never torn) store files.
"""

import json
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.tuner import CollectiveChoice, CollectivePlanStore
from repro.core import MECH_CDP, MECH_POLLING, ProactConfig, Profiler
from repro.core.cache import ProfileStore
from repro.errors import CollectiveError, ProactError
from repro.hw import PLATFORM_4X_KEPLER, PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from repro.workloads import JacobiWorkload, PageRankWorkload

fast_settings = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def config(i):
    """A distinct-but-valid plan per index (chunk size encodes i)."""
    return ProactConfig("polling", (i + 1) * 4 * KiB, 1024)


def choice(i):
    return CollectiveChoice("ring", (i + 1) * 4 * KiB)


def test_in_memory_store_roundtrip():
    store = ProfileStore()
    config = ProactConfig(MECH_POLLING, 128 * KiB, 2048)
    store.put("4x_volta", "Pagerank", config, "sig")
    assert store.get("4x_volta", "Pagerank", "sig") == config
    assert store.get("4x_volta", "SSSP", "sig") is None
    assert ("4x_volta", "Pagerank", "sig") in store
    assert len(store) == 1


def test_file_store_persists(tmp_path):
    path = tmp_path / "profiles.json"
    store = ProfileStore(path=path)
    config = ProactConfig(MECH_CDP, 1 * MiB, 512, poll_period=2e-6)
    store.put("4x_kepler", "ALS", config, "sig")
    assert path.exists()

    reloaded = ProfileStore(path=path)
    assert reloaded.get("4x_kepler", "ALS", "sig") == config


def test_file_store_rejects_garbage(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text("not json at all")
    with pytest.raises(ProactError):
        ProfileStore(path=path)

    path.write_text('{"missing-separator": {}}')
    with pytest.raises(ProactError):
        ProfileStore(path=path)

    path.write_text('{"a::b::sig": {"mechanism": "polling"}}')
    with pytest.raises(ProactError):
        ProfileStore(path=path)


def test_sweep_signature_keys_roundtrip(tmp_path):
    # Different sweep signatures are distinct namespaces: a config chosen
    # from a coarse grid must not satisfy a query about a finer one.
    path = tmp_path / "profiles.json"
    store = ProfileStore(path=path)
    coarse = ProactConfig(MECH_POLLING, 1 * MiB, 2048)
    fine = ProactConfig(MECH_CDP, 128 * KiB, 4096)
    sig_coarse = "coordinate|mech=a|chunks=1048576|threads=2048"
    sig_fine = "coordinate|mech=a|chunks=131072,1048576|threads=2048,4096"
    store.put("4x_volta", "Pagerank", coarse, signature=sig_coarse)
    store.put("4x_volta", "Pagerank", fine, signature=sig_fine)
    assert store.get("4x_volta", "Pagerank", sig_coarse) == coarse
    assert store.get("4x_volta", "Pagerank", sig_fine) == fine
    assert len(store) == 2

    reloaded = ProfileStore(path=path)
    assert reloaded.get("4x_volta", "Pagerank", sig_coarse) == coarse
    assert reloaded.get("4x_volta", "Pagerank", sig_fine) == fine
    assert ("4x_volta", "Pagerank", sig_fine) in reloaded


def test_legacy_two_part_keys_are_rejected(tmp_path):
    # Stores written before sweep-signature keys used 'platform::workload';
    # such files must be regenerated, so loading one is a typed error.
    path = tmp_path / "profiles.json"
    path.write_text('{"4x_volta::Jacobi": {"mechanism": "inline", '
                    '"chunk_size": 4096, "transfer_threads": 32}}')
    with pytest.raises(ProactError, match="platform::workload::signature"):
        ProfileStore(path=path)
    plans = tmp_path / "plans.json"
    plans.write_text(json.dumps({"4x_volta::all_reduce::small": {
        "algorithm": "ring", "chunk_size": 4096}}))
    with pytest.raises(CollectiveError):
        CollectivePlanStore(plans)


def test_get_or_profile_distinguishes_sweeps(tmp_path):
    # A store hit requires the same search space, not just the same app.
    store = ProfileStore(path=tmp_path / "profiles.json")
    workload = JacobiWorkload(num_unknowns=2_000_000, bandwidth=20,
                              iterations=2)
    narrow = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=(1 * MiB,),
                      thread_counts=(2048,))
    wide = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=(128 * KiB, 1 * MiB),
                    thread_counts=(1024, 2048))
    store.get_or_profile(PLATFORM_4X_VOLTA, workload, narrow)
    assert len(store) == 1
    store.get_or_profile(PLATFORM_4X_VOLTA, workload, wide)
    assert len(store) == 2  # the wider sweep did not hit the narrow entry


def test_get_or_profile_caches(tmp_path):
    calls = []

    class CountingProfiler(Profiler):
        def profile(self, phase_builder):
            calls.append(1)
            return super().profile(phase_builder)

    profiler = CountingProfiler(
        PLATFORM_4X_VOLTA, chunk_sizes=(1 * MiB,), thread_counts=(2048,))
    store = ProfileStore(path=tmp_path / "profiles.json")
    workload = JacobiWorkload(num_unknowns=2_000_000, bandwidth=20,
                              iterations=2)
    first = store.get_or_profile(PLATFORM_4X_VOLTA, workload, profiler)
    second = store.get_or_profile(PLATFORM_4X_VOLTA, workload, profiler)
    assert first == second
    assert len(calls) == 1  # second call hit the cache

    # A fresh store backed by the same file also skips profiling.
    fresh = ProfileStore(path=tmp_path / "profiles.json")
    third = fresh.get_or_profile(PLATFORM_4X_VOLTA, workload, profiler)
    assert third == first
    assert len(calls) == 1


def test_get_or_profile_rejects_a_profiler_for_another_platform():
    # The winner is stored under ``platform``, so the profiler must sweep
    # that platform: on this grid Volta picks D 64kB 2048 Poll, while
    # Kepler's own sweep picks D 64kB 256 CDP.
    store = ProfileStore()
    volta = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=(64 * KiB, 1 * MiB),
                     thread_counts=(256, 2048), search="exhaustive")
    with pytest.raises(ProactError, match="4x_volta.*4x_kepler"):
        store.get_or_profile(PLATFORM_4X_KEPLER, PageRankWorkload(), volta)
    assert len(store) == 0


# ---------------------------------------------------------------------------
# No lost updates
# ---------------------------------------------------------------------------


def test_profile_store_keeps_every_update_from_a_thread_pool():
    store = ProfileStore()
    threads, puts_each = 8, 50

    def writer(tid):
        for i in range(puts_each):
            store.put("4x_volta", f"w{tid}_{i}", config(i), "sig")
            # Interleave reads; a half-applied mutation would surface
            # here as a None or a foreign value.
            got = store.get("4x_volta", f"w{tid}_{i}", "sig")
            assert got == config(i)

    with ThreadPoolExecutor(threads) as pool:
        for _ in pool.map(writer, range(threads)):
            pass
    assert len(store) == threads * puts_each


def test_plan_store_keeps_every_update_from_a_thread_pool():
    store = CollectivePlanStore()
    threads, puts_each = 8, 50

    def writer(tid):
        for i in range(puts_each):
            store.put("4x_volta", "all_reduce", f"b{tid}_{i}",
                      choice(i), "sig")
            assert store.get("4x_volta", "all_reduce", f"b{tid}_{i}",
                             "sig") == choice(i)

    with ThreadPoolExecutor(threads) as pool:
        for _ in pool.map(writer, range(threads)):
            pass
    assert len(store) == threads * puts_each


# ---------------------------------------------------------------------------
# Serial-equivalence property (hypothesis)
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 7)),
        st.tuples(st.just("get"), st.integers(0, 5), st.just(0)),
    ),
    max_size=40)


@fast_settings
@given(ops=_ops)
def test_store_matches_a_plain_dict_model(ops):
    """Any put/get sequence leaves the store equivalent to a plain dict:
    no op loses, leaks, or aliases a plan."""
    store = ProfileStore()
    model = {}
    for op, k, v in ops:
        if op == "put":
            store.put("4x_volta", f"w{k}", config(v), "sig")
            model[k] = config(v)
        else:
            assert store.get("4x_volta", f"w{k}", "sig") == model.get(k)
        assert len(store) == len(model)


# ---------------------------------------------------------------------------
# Persistence: byte identity, atomicity, merge semantics
# ---------------------------------------------------------------------------


def test_plans_survive_persist_reload_byte_identical(tmp_path):
    path = tmp_path / "profiles.json"
    store = ProfileStore(path)
    plan = ProactConfig("cdp", 128 * KiB, 2048)
    store.put("4x_volta", "Pagerank", plan, "sig")
    reloaded = ProfileStore(path).get("4x_volta", "Pagerank", "sig")
    assert pickle.dumps(reloaded) == pickle.dumps(plan)

    cpath = tmp_path / "plans.json"
    cstore = CollectivePlanStore(cpath)
    pick = CollectiveChoice("tree", 128 * KiB)
    cstore.put("4x_volta", "all_reduce", "large", pick, "sig")
    got = CollectivePlanStore(cpath).get("4x_volta", "all_reduce",
                                         "large", "sig")
    assert pickle.dumps(got) == pickle.dumps(pick)


def test_failed_save_leaves_the_previous_file_intact(tmp_path, monkeypatch):
    """Regression for the torn-read hazard: a save that dies mid-flight
    (here: the rename itself) must leave the old complete document on
    disk, never a truncated or half-written one."""
    path = tmp_path / "profiles.json"
    store = ProfileStore(path)
    store.put("4x_volta", "Pagerank", config(0), "sig")
    before = path.read_text()

    def boom(src, dst):
        raise OSError("simulated crash during rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        store.put("4x_volta", "Jacobi", config(1), "sig")
    monkeypatch.undo()

    assert path.read_text() == before  # old document, byte for byte
    assert not list(tmp_path.glob("*.tmp.*"))  # temp file cleaned up
    survivor = ProfileStore(path)
    assert survivor.get("4x_volta", "Pagerank", "sig") == config(0)
    assert survivor.get("4x_volta", "Jacobi", "sig") is None


def test_concurrent_reloads_never_observe_torn_json(tmp_path):
    """A reader loading the store file while a writer saves repeatedly
    must always parse a complete document (old or new, never partial)."""
    path = tmp_path / "profiles.json"
    store = ProfileStore(path)
    store.put("4x_volta", "seed", config(0), "sig")
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            try:
                ProfileStore(path)
            except ProactError as exc:  # torn read ⇒ invalid JSON
                failures.append(exc)
                return

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(60):
            store.put("4x_volta", f"w{i}", config(i % 8), "sig")
    finally:
        stop.set()
        thread.join()
    assert not failures


def test_put_saves_merge_entries_from_a_sibling_store(tmp_path):
    """Two store objects on one path model two processes appending
    different signatures; read-merge-write keeps both."""
    path = tmp_path / "profiles.json"
    ours, theirs = ProfileStore(path), ProfileStore(path)
    ours.put("4x_volta", "Pagerank", config(0), "a")
    theirs.put("4x_volta", "Jacobi", config(1), "b")
    merged = ProfileStore(path)
    assert merged.get("4x_volta", "Pagerank", "a") == config(0)
    assert merged.get("4x_volta", "Jacobi", "b") == config(1)


def test_reload_folds_in_sibling_puts_without_clobbering_ours(tmp_path):
    path = tmp_path / "profiles.json"
    ours, theirs = ProfileStore(path), ProfileStore(path)
    ours.put("4x_volta", "Pagerank", config(0), "a")
    theirs.put("4x_volta", "Pagerank", config(5), "a")  # conflicting key
    theirs.put("4x_volta", "Jacobi", config(1), "b")
    ours.reload()
    # Ours wins the conflict; the genuinely new entry appears.
    assert ours.get("4x_volta", "Pagerank", "a") == config(0)
    assert ours.get("4x_volta", "Jacobi", "b") == config(1)


def test_corrupt_documents_raise_the_store_specific_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ truncated")
    with pytest.raises(ProactError):
        ProfileStore(bad)
    with pytest.raises(CollectiveError):
        CollectivePlanStore(bad)
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"onlyonepart": {}}))
    with pytest.raises(ProactError):
        ProfileStore(shallow)
