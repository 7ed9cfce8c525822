"""Property-based tests (hypothesis) for HINT's core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro import HintIndex, IntervalCollection, NaiveScan, ReferenceHint
from repro.hint.assignment import assign_interval
from repro.hint.bits import partition_range

# Strategy: an m, a list of intervals within [0, 2^m - 1], and a query.
ms = hs.integers(min_value=0, max_value=8)


@hs.composite
def hint_case(draw):
    m = draw(ms)
    top = (1 << m) - 1
    n = draw(hs.integers(min_value=0, max_value=60))
    st = [draw(hs.integers(min_value=0, max_value=top)) for _ in range(n)]
    end = [draw(hs.integers(min_value=s, max_value=top)) for s in st]
    q_st = draw(hs.integers(min_value=0, max_value=top))
    q_end = draw(hs.integers(min_value=q_st, max_value=top))
    return m, st, end, q_st, q_end


@settings(max_examples=150, deadline=None)
@given(hint_case())
def test_index_equals_naive(case):
    m, st, end, q_st, q_end = case
    coll = (
        IntervalCollection(st, end) if st else IntervalCollection.empty()
    )
    index = HintIndex(coll, m=m)
    naive = NaiveScan(coll)
    got = index.query(q_st, q_end)
    assert len(set(got.tolist())) == got.size
    assert sorted(got.tolist()) == sorted(naive.query(q_st, q_end).tolist())
    assert index.query_count(q_st, q_end) == naive.query_count(q_st, q_end)


@settings(max_examples=150, deadline=None)
@given(hint_case())
def test_reference_equals_naive(case):
    m, st, end, q_st, q_end = case
    coll = (
        IntervalCollection(st, end) if st else IntervalCollection.empty()
    )
    ref = ReferenceHint(coll, m=m)
    naive = NaiveScan(coll)
    got = ref.query(q_st, q_end)
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(naive.query(q_st, q_end).tolist())


@hs.composite
def interval_in_domain(draw):
    m = draw(hs.integers(min_value=0, max_value=12))
    top = (1 << m) - 1
    st = draw(hs.integers(min_value=0, max_value=top))
    end = draw(hs.integers(min_value=st, max_value=top))
    return m, st, end


@settings(max_examples=300, deadline=None)
@given(interval_in_domain())
def test_assignment_invariants(case):
    """The three HINT assignment guarantees, for arbitrary intervals."""
    m, st, end = case
    placements = assign_interval(m, st, end)

    # 1. at most two partitions per level
    per_level = {}
    for a in placements:
        per_level.setdefault(a.level, []).append(a)
    assert all(len(v) <= 2 for v in per_level.values())

    # 2. the partitions exactly tile [st, end]
    covered = []
    for a in placements:
        lo, hi = partition_range(m, a.level, a.partition)
        covered.append((lo, hi))
    covered.sort()
    assert covered[0][0] == st
    assert covered[-1][1] == end
    for (_, hi_a), (lo_b, _) in zip(covered, covered[1:]):
        assert lo_b == hi_a + 1  # gapless, non-overlapping

    # 3. exactly one original
    assert sum(1 for a in placements if a.is_original) == 1


@settings(max_examples=100, deadline=None)
@given(interval_in_domain())
def test_single_interval_found_by_every_overlapping_query(case):
    m, st, end = case
    coll = IntervalCollection([st], [end])
    index = HintIndex(coll, m=m)
    top = (1 << m) - 1
    # overlapping queries must find it; disjoint ones must not
    assert index.query_count(st, end) == 1
    assert index.query_count(0, top) == 1
    if st > 0:
        assert index.query_count(0, st - 1) == 0
        assert index.query_count(st - 1, st) == 1
    if end < top:
        assert index.query_count(end + 1, top) == 0
        assert index.query_count(end, end + 1) == 1


@hs.composite
def tiled_case(draw):
    """A collection, which of its rows a merge deletes, and how many of
    its last rows the merge stages instead of the build."""
    m = draw(ms)
    top = (1 << m) - 1
    n = draw(hs.integers(min_value=0, max_value=50))
    st = [draw(hs.integers(min_value=0, max_value=top)) for _ in range(n)]
    end = [draw(hs.integers(min_value=s, max_value=top)) for s in st]
    staged = draw(hs.integers(min_value=0, max_value=n))
    dead = [draw(hs.booleans()) for _ in range(n - staged)]
    return m, st, end, staged, dead


@settings(max_examples=150, deadline=None)
@given(tiled_case())
def test_every_row_covers_its_partition_whole(case):
    """The premise of the comparison-free count and checksum folds
    (``HintIndex.fold``): built fresh or merged, every row of every table
    lies inside ``[st, end]`` and covers its partition whole."""
    m, st, end, staged, dead = case
    coll = IntervalCollection(st, end) if st else IntervalCollection.empty()
    keep = np.arange(len(coll)) < len(coll) - staged
    base = coll.select(keep)
    fresh = HintIndex(coll, m=m, storage_optimized=False)
    merged = HintIndex(base, m=m, storage_optimized=False).merged(
        base.select(np.array(dead, dtype=bool)), coll.select(~keep)
    )
    for index in (fresh, merged):
        for data in index.levels:
            shift = m - data.level
            for table in data.tables():
                if not len(table):
                    continue
                parts = np.repeat(
                    np.arange(table.num_partitions), np.diff(table.offsets)
                )
                assert (table.st <= parts << shift).all()
                assert (table.end >= ((parts + 1) << shift) - 1).all()
