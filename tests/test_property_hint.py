"""Property-based tests (hypothesis) for HINT's core data structures and
its comparison-free batch answers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

import repro.obs as obs
from repro import HintIndex, IntervalCollection, NaiveScan, QueryBatch, ReferenceHint
from repro.core.strategies import run_strategy
from repro.hint.assignment import assign_interval
from repro.hint.bits import partition_range
from repro.shard import ShardedHint
from tests.conftest import assert_flat_oracle, oracle_result

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


@hs.composite
def ids_batch_case(draw):
    """A collection (empty, one interval or up to 40), a merge over it,
    and a batch whose queries may reach outside the domain, in one of
    three orders: as given, sorted by start, or shuffled."""
    m = draw(ms)
    top = (1 << m) - 1
    n = draw(hs.sampled_from([0, 1, 2, 10, 40]))
    st = [draw(hs.integers(min_value=0, max_value=top)) for _ in range(n)]
    end = [draw(hs.integers(min_value=s, max_value=top)) for s in st]
    staged = draw(hs.integers(min_value=0, max_value=n))
    dead = [draw(hs.booleans()) for _ in range(n - staged)]
    nq = draw(hs.integers(min_value=0, max_value=12))
    q_st = [draw(hs.integers(min_value=-3, max_value=top + 3)) for _ in range(nq)]
    q_end = [draw(hs.integers(min_value=s, max_value=top + 5)) for s in q_st]
    order = draw(hs.sampled_from(["given", "sorted", "shuffled"]))
    perm = draw(hs.permutations(range(nq)))
    return m, st, end, staged, dead, q_st, q_end, order, perm


@settings(max_examples=120, deadline=None)
@given(ids_batch_case())
def test_ids_batch_equals_the_oracle(case):
    """The id-run gather (``HintIndex.id_runs``) answers an ids batch in
    caller order, whatever order the batch arrives in, on a fresh index,
    a merged one and 2 or 4 shards: the naive oracle's ids, the count
    fold's counts, and the same flat ids traced or not."""
    m, st, end, staged, dead, q_st, q_end, order, perm = case
    coll = IntervalCollection(st, end) if st else IntervalCollection.empty()
    keep = np.arange(len(coll)) < len(coll) - staged
    base = coll.select(keep)
    gone = np.array(dead, dtype=bool)
    live = base.select(~gone).concat(coll.select(~keep))
    batch = QueryBatch(q_st, q_end)
    if order == "sorted":
        work = batch.sorted_by_start()
    elif order == "shuffled":
        perm = np.array(perm, dtype=np.int64)
        work = QueryBatch(batch.st[perm], batch.end[perm], order=perm)
    else:
        work = batch
    want = oracle_result(live, batch, m)

    fresh = HintIndex(live, m=m)
    merged = HintIndex(base, m=m).merged(base.select(gone), coll.select(~keep))
    for index in (fresh, merged):
        got = run_strategy("partition-based", index, work, mode="ids")
        assert_flat_oracle(got, want)
        counts = run_strategy("partition-based", index, work, mode="count").counts
        assert got.counts.tolist() == counts.tolist()
    obs.configure(enabled=True, trace_partitions=True)
    try:
        traced = run_strategy("partition-based", fresh, work, mode="ids")
    finally:
        obs.configure(enabled=False)
    plain = run_strategy("partition-based", fresh, work, mode="ids")
    assert traced.offsets.tolist() == plain.offsets.tolist()
    assert traced.flat_ids.tolist() == plain.flat_ids.tolist()
    for k in (2, 4):
        if k <= 1 << m:
            sharded = ShardedHint(live, k=k, m=m)
            assert_flat_oracle(sharded.execute(work, mode="ids"), want)
