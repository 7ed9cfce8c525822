"""DynamicHint merges its writes into the index instead of rebuilding it.

A merge must produce exactly the tables a fresh build of the same contents
would (not just the same answers), cost no sort longer than the buffer it
absorbs, leave every field alone when it fails, and never be half-seen by
a query that overlaps it.
"""

import sys
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from repro import DynamicHint, HintIndex, IntervalCollection
from repro.verify.faults import SITE_REBUILD, FaultPlan, InjectedFault
from repro.verify.invariants import verify_index, verify_same_tables


def check_against_fresh_build(dyn):
    """The merged index equals a fresh build of its contents, table for table."""
    fresh = HintIndex(dyn.snapshot(), m=dyn.m)  # merges what is staged
    verify_same_tables(dyn.index, fresh)
    verify_index(dyn)


class Churn:
    """Drives a DynamicHint beside a dict model; checks after every merge."""

    def __init__(self, base: IntervalCollection, m: int, threshold: int):
        self.dyn = DynamicHint(base, m=m, rebuild_threshold=threshold)
        self.model = {int(i): (int(s), int(e)) for i, s, e in base}
        self.freed = []  # deleted ids, free for re-use once merged

    def insert(self, st, end, id=None):
        merges = self.dyn.rebuilds
        rid = self.dyn.insert(st, end, id=id)
        self.model[rid] = (st, end)
        if self.dyn.rebuilds != merges:
            check_against_fresh_build(self.dyn)

    def delete(self, rid):
        self.dyn.delete(rid)
        del self.model[rid]
        self.freed.append(rid)

    def compact(self):
        self.dyn.compact()
        check_against_fresh_build(self.dyn)

    def check_answers(self, top):
        for a, b in ((0, top), (0, 0), (top, top), (top // 2, top)):
            want = {i for i, (s, e) in self.model.items() if s <= b and a <= e}
            assert set(self.dyn.query(a, b).tolist()) == want


@settings(max_examples=60, deadline=None)
@given(data=hs.data(), m=hs.sampled_from([0, 1, 2, 4, 6]))
def test_every_merge_equals_a_fresh_build(data, m):
    top = (1 << m) - 1
    point = hs.one_of(hs.just(0), hs.just(top), hs.integers(0, top))
    pairs = data.draw(hs.lists(hs.tuples(point, point), max_size=12))
    # Caller-chosen ids, of any magnitude.
    ids = data.draw(hs.lists(hs.integers(0, 2**62), min_size=len(pairs),
                             max_size=len(pairs), unique=True))
    base = IntervalCollection(
        [min(p) for p in pairs], [max(p) for p in pairs], ids=ids
    )
    churn = Churn(base, m, data.draw(hs.integers(1, 6)))
    ops = data.draw(hs.lists(
        hs.sampled_from(["insert", "insert", "twin", "delete", "delete_staged",
                         "purge", "compact", "reinsert"]),
        max_size=40,
    ))
    for op in ops:
        model = churn.model
        if op == "insert":
            a, b = data.draw(point), data.draw(point)
            churn.insert(min(a, b), max(a, b))
        elif op == "twin" and model:
            # equal (st, end) under a different id
            st, end = model[data.draw(hs.sampled_from(sorted(model)))]
            churn.insert(st, end)
        elif op == "delete" and model:
            churn.delete(data.draw(hs.sampled_from(sorted(model))))
        elif op == "delete_staged" and churn.dyn.buffered:
            staged = [i for i in churn.dyn._buf_ids if i in model]
            if staged:
                churn.delete(staged[-1])
        elif op == "purge":
            # empties every partition, and so every level
            for rid in sorted(model):
                churn.delete(rid)
        elif op == "compact":
            churn.compact()
        elif op == "reinsert":
            # an id deleted before the last merge is free again
            free = [i for i in churn.freed if not churn.dyn._is_tombstoned(i)]
            if free:
                churn.freed.remove(free[0])
                a, b = data.draw(point), data.draw(point)
                churn.insert(min(a, b), max(a, b), id=free[0])
        churn.check_answers(top)
    churn.compact()
    churn.check_answers(top)


class TestMergeShapes:
    """The cases a merge has to special-case, pinned one by one."""

    def test_deleting_everything_leaves_the_fresh_empty_tables(self):
        base = IntervalCollection([0, 3, 5, 0], [0, 9, 5, 15], ids=[7, 8, 9, 10])
        dyn = DynamicHint(base, m=4)
        for rid in (7, 8, 9, 10):
            dyn.delete(rid)
        dyn.compact()
        check_against_fresh_build(dyn)
        for data in dyn.index.levels:
            for table in data.tables():
                assert table.st is None and table.end is None
        assert dyn.index.occupied_levels == ()

    def test_emptying_one_level_keeps_the_others_shared(self):
        # [0, 15] lives at level 0 only, the cells at level 4 only.
        base = IntervalCollection([0, 3, 6], [15, 3, 6], ids=[0, 1, 2])
        dyn = DynamicHint(base, m=4)
        old = dyn.index
        dyn.delete(0)
        dyn.compact()
        check_against_fresh_build(dyn)
        assert dyn.index.occupied_levels == (4,)
        # No placement touched levels 1-4: the level objects are shared.
        for level in (1, 2, 3, 4):
            assert dyn.index.levels[level] is old.levels[level]

    def test_merge_into_an_empty_base_and_m_zero(self):
        dyn = DynamicHint(m=0, rebuild_threshold=2)
        dyn.insert(0, 0)
        dyn.insert(0, 0)
        assert dyn.rebuilds == 1
        check_against_fresh_build(dyn)
        assert sorted(dyn.query(0, 0).tolist()) == [0, 1]

    def test_ties_keep_the_build_order(self):
        # Equal (st, end) under many ids, some in the base, some staged.
        base = IntervalCollection([2] * 4, [9] * 4, ids=[40, 10, 30, 20])
        dyn = DynamicHint(base, m=4, rebuild_threshold=3)
        dyn.delete(10)
        for rid in (5, 50, 25):
            dyn.insert(2, 9, id=rid)
        assert dyn.rebuilds == 1
        check_against_fresh_build(dyn)
        assert dyn.snapshot().ids.tolist() == [40, 30, 20, 5, 50, 25]


def _fields(dyn):
    """Every field of *dyn*, containers copied (the lock aside)."""
    out = {}
    for name, value in vars(dyn).items():
        if name == "_lock":
            continue
        if isinstance(value, deque):
            value = list(value)
        elif isinstance(value, (list, set, dict)):
            value = type(value)(value)
        out[name] = value
    return out


def test_failed_merge_changes_no_field_and_the_next_insert_retries():
    rng = np.random.default_rng(5)
    st = rng.integers(0, 200, 300)
    base = IntervalCollection(
        st, st + rng.integers(0, 50, 300), ids=rng.permutation(300) * 7
    )
    dyn = DynamicHint(
        base, m=8, rebuild_threshold=4, fault_plan=FaultPlan.once(SITE_REBUILD)
    )
    for s in (1, 2, 3):
        dyn.insert(s, s + 10)
    dyn.delete(int(base.ids[0]))
    dyn.query(0, 255)  # builds the read view, which must survive too
    before = _fields(dyn)
    with pytest.raises(InjectedFault):
        dyn.compact()
    after = _fields(dyn)
    assert after.keys() == before.keys()
    for name, value in before.items():
        if isinstance(value, (list, set, dict, int)):
            assert after[name] == value, name
        else:
            assert after[name] is value, name
    dyn.insert(100, 120)  # the fourth staged row: the merge runs again
    assert dyn.rebuilds == 1 and dyn.buffered == 0
    check_against_fresh_build(dyn)


def test_a_merge_sorts_nothing_longer_than_its_buffer(monkeypatch):
    rng = np.random.default_rng(9)
    n, k = 5000, 64
    st = rng.integers(0, 1 << 12, n)
    end = np.minimum(st + rng.integers(0, 300, n), (1 << 12) - 1)
    base = IntervalCollection(st, end)
    dyn = DynamicHint(base, m=12, rebuild_threshold=k)
    for rid in rng.choice(n, k // 2, replace=False).tolist():
        dyn.delete(rid)
    for s in rng.integers(0, 4000, k - 1).tolist():
        dyn.insert(s, s + 20)

    sorted_sizes = []

    def spy(fn, size_of):
        def wrapper(*args, **kwargs):
            sorted_sizes.append(size_of(*args))
            return fn(*args, **kwargs)

        return wrapper

    size = {
        "sort": lambda a, *_: np.size(a),
        "argsort": lambda a, *_: np.size(a),
        "unique": lambda a, *_: np.size(a),
        "lexsort": lambda keys, *_: np.size(keys[0]),
        # sorts both inputs together (or tables the id range)
        "isin": lambda a, b, *_: np.size(a) + np.size(b),
    }
    for name, size_of in size.items():
        monkeypatch.setattr(np, name, spy(getattr(np, name), size_of))
    dyn.insert(5, 9)  # the k-th staged row trips the merge
    monkeypatch.undo()
    assert dyn.rebuilds == 1
    assert sorted_sizes and max(sorted_sizes) <= k
    check_against_fresh_build(dyn)


def test_a_query_overlapping_a_merge_reads_one_state():
    """A merge that commits mid-query must not pair the old index with
    the emptied buffer and tombstones: that loses staged rows and brings
    deleted ones back."""
    base = IntervalCollection([0, 0], [10, 10], ids=[0, 1])
    dyn = DynamicHint(base, m=4, rebuild_threshold=100)
    dyn.delete(0)
    dyn.insert(0, 10, id=2)
    old = dyn.index
    answer = old._run_single  # the index walk a miss makes

    def racing(*args):
        out = answer(*args)
        dyn.compact()  # a writer merges while the query is in flight
        return out

    old._run_single = racing
    assert sorted(dyn.query(0, 10).tolist()) == [1, 2]
    assert dyn.rebuilds == 1 and dyn.index is not old
    assert sorted(dyn.query(0, 10).tolist()) == [1, 2]


def test_writers_and_readers_on_threads_see_whole_states():
    """Two writers churn (and merge) while two readers query: every answer
    holds the never-deleted rows exactly once, and no write is lost."""
    top = 1023
    dyn = DynamicHint(m=10, rebuild_threshold=32)
    stable = {dyn.insert(s, s + 5, id=10**6 + s) for s in range(0, 1000, 50)}
    kept = {}
    problems = []
    stop = threading.Event()

    def writer(w):
        rng = np.random.default_rng(w)
        mine = []
        for i in range(300):
            s = int(rng.integers(0, 1000))
            mine.append(dyn.insert(s, s + int(rng.integers(0, 20)), id=w * 10**5 + i))
            if len(mine) > 10:
                dyn.delete(mine.pop(0))
            if i % 97 == 0:
                dyn.compact()
        kept[w] = mine

    def reader():
        while not stop.is_set():
            got = dyn.query(0, top).tolist()
            if not stable <= set(got) or len(set(got)) != len(got):
                problems.append(got)

    writers = [threading.Thread(target=writer, args=(w,)) for w in (1, 2)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join(timeout=120)
    finally:
        stop.set()
        for t in readers:
            t.join(timeout=30)
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in writers + readers)
    assert not problems
    expected = stable | set(kept[1]) | set(kept[2])
    assert set(dyn.query(0, top).tolist()) == expected
    assert len(dyn) == len(expected)
    check_against_fresh_build(dyn)
