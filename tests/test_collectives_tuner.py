"""Tuner tests: sweep determinism across backends and the plan store."""

import json

import pytest

from repro.api import Session
from repro.collectives import (
    ALGO_RING,
    COLL_ALL_GATHER,
    COLL_ALL_REDUCE,
    CollectiveChoice,
    CollectivePlanStore,
    CollectiveTuner,
    PAYLOAD_BUCKETS,
    payload_bucket,
)
from repro.core.profiler import ExecutorBackend, ProcessPoolBackend
from repro.errors import CollectiveError
from repro.hw.platform import PLATFORMS
from repro.units import KiB, MiB

VOLTA = PLATFORMS["4x_volta"]
CHUNKS = (64 * KiB, 256 * KiB, 1 * MiB)


# ---------------------------------------------------------------------------
# Buckets
# ---------------------------------------------------------------------------

def test_payload_buckets_cover_the_size_axis():
    assert payload_bucket(0) == "small"
    assert payload_bucket(256 * KiB) == "small"
    assert payload_bucket(256 * KiB + 1) == "medium"
    assert payload_bucket(16 * MiB) == "medium"
    assert payload_bucket(64 * MiB) == "large"
    with pytest.raises(CollectiveError):
        payload_bucket(-1)
    names = [name for name, _ in PAYLOAD_BUCKETS]
    assert names == ["small", "medium", "large"]
    for name, representative in PAYLOAD_BUCKETS:
        assert payload_bucket(representative) == name


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_tuner_sweeps_full_grid_and_orders_deterministically():
    tuner = CollectiveTuner(VOLTA, COLL_ALL_REDUCE, chunk_sizes=CHUNKS)
    result = tuner.tune(4 * MiB)
    assert len(result.entries) == len(tuner.algorithms) * len(CHUNKS)
    best = result.best
    assert best.runtime == min(e.runtime for e in result.entries)
    ring = result.best_for_algorithm(ALGO_RING)
    assert ring.algorithm == ALGO_RING
    assert result.best_choice == CollectiveChoice(best.algorithm,
                                                  best.chunk_size)
    with pytest.raises(CollectiveError):
        result.best_for_algorithm("double-binary-tree")


def test_tuner_pick_identical_across_serial_and_process_pool():
    serial = CollectiveTuner(VOLTA, COLL_ALL_REDUCE, chunk_sizes=CHUNKS,
                             backend=ProcessPoolBackend(jobs=1))
    pooled = CollectiveTuner(VOLTA, COLL_ALL_REDUCE, chunk_sizes=CHUNKS,
                             backend=ProcessPoolBackend(jobs=4))
    a = serial.tune(4 * MiB)
    b = pooled.tune(4 * MiB)
    assert a.entries == b.entries  # byte-identical measurements
    assert a.best_choice == b.best_choice
    assert serial.sweep_signature() == pooled.sweep_signature()


def test_tuner_validates_inputs():
    with pytest.raises(CollectiveError):
        CollectiveTuner(VOLTA, "reduce")
    with pytest.raises(CollectiveError):
        CollectiveTuner(VOLTA, COLL_ALL_REDUCE, algorithms=["bogus"])
    with pytest.raises(CollectiveError):
        CollectiveTuner(VOLTA, COLL_ALL_REDUCE, chunk_sizes=())
    with pytest.raises(CollectiveError):
        # Tree needs a power of two; 6-GPU sweeps must reject it.
        CollectiveTuner(VOLTA.with_num_gpus(6), COLL_ALL_REDUCE,
                        algorithms=["tree"])


@pytest.mark.parametrize("axis, values", [
    ("algorithms", ["ring", "tree", "ring"]),
    ("chunk_sizes", (256 * KiB, 256 * KiB)),
])
def test_tuner_rejects_duplicate_grid_values(axis, values):
    # A repeated value would sweep the same candidate twice and key the
    # plan under a signature no deduplicated grid matches.
    with pytest.raises(CollectiveError, match=f"duplicate {axis}"):
        CollectiveTuner(VOLTA, COLL_ALL_REDUCE, **{axis: values})


def test_sweep_signature_distinguishes_grids():
    base = CollectiveTuner(VOLTA, COLL_ALL_REDUCE, chunk_sizes=CHUNKS)
    other_chunks = CollectiveTuner(VOLTA, COLL_ALL_REDUCE,
                                   chunk_sizes=CHUNKS[:2])
    other_coll = CollectiveTuner(VOLTA, COLL_ALL_GATHER,
                                 chunk_sizes=CHUNKS)
    assert base.sweep_signature() != other_chunks.sweep_signature()
    assert base.sweep_signature() != other_coll.sweep_signature()


# ---------------------------------------------------------------------------
# Plan store
# ---------------------------------------------------------------------------

def test_plan_store_roundtrip(tmp_path):
    path = tmp_path / "plans.json"
    store = CollectivePlanStore(path)
    choice = CollectiveChoice("ring", 256 * KiB)
    store.put("4x_volta", "all_reduce", "medium", choice, "sig-a")
    assert len(store) == 1

    reloaded = CollectivePlanStore(path)
    assert reloaded.get("4x_volta", "all_reduce", "medium",
                        "sig-a") == choice
    # Different signature, bucket, or platform: no hit.
    assert reloaded.get("4x_volta", "all_reduce", "medium", "sig-b") is None
    assert reloaded.get("4x_volta", "all_reduce", "large", "sig-a") is None
    assert reloaded.get("4x_kepler", "all_reduce", "medium",
                        "sig-a") is None


def test_plan_store_get_or_tune_caches(tmp_path):
    path = tmp_path / "plans.json"
    store = CollectivePlanStore(path)
    tuner = CollectiveTuner(VOLTA, COLL_ALL_REDUCE,
                            chunk_sizes=(256 * KiB, 1 * MiB))
    first = store.get_or_tune(tuner, 4 * MiB)
    assert len(store) == 1

    class ExplodingBackend(ExecutorBackend):
        def open_session(self, fn):
            raise AssertionError("cache hit expected; sweep re-ran")

    cached_tuner = CollectiveTuner(VOLTA, COLL_ALL_REDUCE,
                                   chunk_sizes=(256 * KiB, 1 * MiB),
                                   backend=ExplodingBackend())
    assert store.get_or_tune(cached_tuner, 5 * MiB) == first  # same bucket
    # A fresh store reading the same file also hits.
    assert CollectivePlanStore(path).get_or_tune(
        cached_tuner, 4 * MiB) == first


def test_session_plan_collective_matches_the_tuner():
    session = Session("4x_volta")
    direct = CollectiveTuner(VOLTA, COLL_ALL_REDUCE,
                             chunk_sizes=CHUNKS).tune(4 * MiB).best_choice
    assert session.plan_collective(COLL_ALL_REDUCE, 4 * MiB,
                                   chunk_sizes=CHUNKS) == direct


def test_session_plan_collective_hits_a_file_backed_store(tmp_path,
                                                           monkeypatch):
    path = tmp_path / "plans.json"
    store = CollectivePlanStore(path)
    session = Session("4x_volta")
    first = session.plan_collective(COLL_ALL_REDUCE, 4 * MiB,
                                    chunk_sizes=CHUNKS, store=store)

    def no_retune(self, nbytes):
        raise AssertionError("cache hit expected; sweep re-ran")

    monkeypatch.setattr(CollectiveTuner, "tune", no_retune)
    second = session.plan_collective(COLL_ALL_REDUCE, 5 * MiB,  # same bucket
                                     chunk_sizes=CHUNKS, store=store)
    assert second == first
    assert len(json.loads(path.read_text())) == 1


def test_plan_store_rejects_corrupt_files(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text("not json")
    with pytest.raises(CollectiveError):
        CollectivePlanStore(path)
    path.write_text(json.dumps(["wrong layout"]))
    with pytest.raises(CollectiveError):
        CollectivePlanStore(path)
    path.write_text(json.dumps({"a::b::c": {"algorithm": "ring"}}))
    with pytest.raises(CollectiveError):
        CollectivePlanStore(path)
    path.write_text(json.dumps({"no-separator": {
        "algorithm": "ring", "chunk_size": 1}}))
    with pytest.raises(CollectiveError):
        CollectivePlanStore(path)
