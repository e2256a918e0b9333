"""Lower-bound pruning never changes the profiler's tie-break.

``Profiler(search="search")`` skips configurations whose
infinite-bandwidth floor exceeds the incumbent, but its winner must be
the one the exhaustive sweep picks under the global tie-break order.
The randomized argmin property lives in :mod:`tests.test_profiler_search`;
this file pins one fixed grid.
"""

from repro.core import Profiler
from repro.hw import PLATFORM_4X_VOLTA
from repro.units import KiB, MiB
from tests.conftest import small_pagerank


def test_pruned_sweep_tie_break_preserved():
    """When pruning leaves several runtime ties, the winner is still the
    global tie-break order (smallest chunk, then threads, then name)."""
    chunks = (128 * KiB, 1 * MiB)
    threads = (1024, 4096)
    builder = small_pagerank(iterations=2).phase_builder()
    brute = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                     thread_counts=threads,
                     search="exhaustive").profile(builder)
    pruned = Profiler(PLATFORM_4X_VOLTA, chunk_sizes=chunks,
                      thread_counts=threads,
                      search="search").profile(builder)
    ties = [e for e in brute.entries if e.runtime == brute.best.runtime]
    # The brute-force winner among ties must be exactly the pruned winner.
    assert pruned.best.config == brute.best.config
    assert pruned.best.runtime == brute.best.runtime
    assert all(e.config in {x.config for x in brute.entries} for e in ties)
