"""Property test: folding busy intervals on add never changes the union.

:class:`~repro.sim.trace.IntervalStats` folds an interval that starts
inside the last one kept into it.  Every query must still return the
exact floats of the plain sort-and-coalesce over all intervals added.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import IntervalStats

#: A coarse grid makes touching and nested intervals common; arbitrary
#: floats cover the rest.
_points = st.one_of(st.integers(0, 40).map(lambda n: n / 4),
                    st.floats(0.0, 10.0, allow_nan=False))


def _reference_merge(intervals):
    """The unfolded union: sort every interval, coalesce overlaps."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_points, _points), max_size=40),
       in_order=st.booleans())
def test_folding_matches_unfolded_union(pairs, in_order):
    intervals = [(min(a, b), max(a, b)) for a, b in pairs]
    if in_order:
        intervals.sort()
    stats = IntervalStats()
    for start, end in intervals:
        stats.add(start, end)
    expected = _reference_merge(intervals)
    assert stats.merged() == expected
    assert stats.busy_time() == sum(end - start for start, end in expected)
    assert _reference_merge(stats.intervals) == expected
    if intervals:
        assert stats.span() == (max(end for _s, end in intervals)
                                - min(start for start, _e in intervals))
    else:
        assert stats.span() == 0.0


def test_back_to_back_quanta_fold_into_one_interval():
    stats = IntervalStats()
    for k in range(4):
        stats.add(k * 0.5, (k + 1) * 0.5)
    assert stats.intervals == [(0.0, 2.0)]
    stats.add(1.0, 1.5)    # out of order, inside the kept one
    stats.add(3.0, 4.0)
    assert stats.intervals == [(0.0, 2.0), (3.0, 4.0)]
    assert stats.busy_time() == 3.0
