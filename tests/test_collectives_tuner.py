"""Tuner tests: sweep determinism across job counts and input validation."""

import pytest

from repro.api import Session
from repro.collectives import (
    ALGO_RING,
    COLL_ALL_REDUCE,
    CollectiveChoice,
    CollectiveTuner,
)
from repro.errors import CollectiveError
from repro.hw.platform import PLATFORMS
from repro.units import KiB, MiB

VOLTA = PLATFORMS["4x_volta"]
CHUNKS = (64 * KiB, 256 * KiB, 1 * MiB)


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
                             jobs=1)
    pooled = CollectiveTuner(VOLTA, COLL_ALL_REDUCE, chunk_sizes=CHUNKS,
                             jobs=4)
    a = serial.tune(4 * MiB)
    b = pooled.tune(4 * MiB)
    assert a.entries == b.entries  # byte-identical measurements
    assert a.best_choice == b.best_choice


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
    # A repeated value would sweep the same candidate twice.
    with pytest.raises(CollectiveError, match=f"duplicate {axis}"):
        CollectiveTuner(VOLTA, COLL_ALL_REDUCE, **{axis: values})


def test_session_plan_collective_matches_the_tuner():
    session = Session("4x_volta")
    direct = CollectiveTuner(VOLTA, COLL_ALL_REDUCE,
                             chunk_sizes=CHUNKS).tune(4 * MiB).best_choice
    assert session.plan_collective(COLL_ALL_REDUCE, 4 * MiB,
                                   chunk_sizes=CHUNKS) == direct
