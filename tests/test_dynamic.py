"""Tests for the dynamic (insert/delete) HINT wrapper."""

import numpy as np
import pytest

from repro import DynamicHint, IntervalCollection, NaiveScan


class Model:
    """Reference model: a dict of live intervals."""

    def __init__(self):
        self.live = {}

    def query(self, a, b):
        return {
            i for i, (st, end) in self.live.items() if st <= b and a <= end
        }


class TestBasics:
    def test_starts_empty(self):
        dyn = DynamicHint(m=8)
        assert len(dyn) == 0
        assert dyn.query(0, 255).size == 0

    def test_insert_assigns_sequential_ids(self):
        dyn = DynamicHint(m=8)
        assert dyn.insert(0, 5) == 0
        assert dyn.insert(10, 20) == 1
        assert len(dyn) == 2

    def test_initial_collection(self):
        coll = IntervalCollection.from_pairs([(0, 5), (10, 20)])
        dyn = DynamicHint(coll, m=8)
        assert dyn.insert(30, 40) == 2  # fresh id after existing ones
        assert sorted(dyn.query(0, 255).tolist()) == [0, 1, 2]

    def test_invalid_inserts(self):
        dyn = DynamicHint(m=4)
        with pytest.raises(ValueError):
            dyn.insert(9, 3)
        with pytest.raises(ValueError):
            dyn.insert(0, 16)
        with pytest.raises(ValueError):
            dyn.insert(-1, 3)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DynamicHint(m=4, rebuild_threshold=0)


class TestQueriesSeeBufferAndTombstones:
    def test_buffered_inserts_visible(self):
        dyn = DynamicHint(m=8, rebuild_threshold=1000)
        dyn.insert(10, 20)
        assert dyn.buffered == 1
        assert dyn.query(15, 15).tolist() == [0]

    def test_delete_hides_immediately(self):
        coll = IntervalCollection.from_pairs([(0, 10)])
        dyn = DynamicHint(coll, m=8)
        dyn.delete(0)
        assert dyn.query(5, 5).size == 0
        assert len(dyn) == 0

    def test_delete_buffered_insert(self):
        dyn = DynamicHint(m=8, rebuild_threshold=1000)
        rid = dyn.insert(10, 20)
        dyn.delete(rid)
        assert dyn.query(0, 255).size == 0

    def test_rebuild_triggers_at_threshold(self):
        dyn = DynamicHint(m=10, rebuild_threshold=10)
        for i in range(25):
            dyn.insert(i, i + 2)
        assert dyn.rebuilds == 2
        assert dyn.buffered == 5
        assert len(dyn) == 25

    def test_compact_drops_tombstones(self):
        dyn = DynamicHint(m=8, rebuild_threshold=1000)
        a = dyn.insert(0, 5)
        dyn.insert(10, 20)
        dyn.delete(a)
        dyn.compact()
        assert dyn.buffered == 0
        snap = dyn.snapshot()
        assert len(snap) == 1
        assert snap.ids.tolist() == [1]

    def test_reuse_of_deleted_id_after_compact(self):
        dyn = DynamicHint(m=8, rebuild_threshold=1000)
        rid = dyn.insert(0, 5)
        dyn.delete(rid)
        dyn.compact()
        dyn.insert(7, 9, id=rid)
        assert dyn.query(8, 8).tolist() == [rid]


class TestAgainstModel:
    def test_randomized_workload(self, rng):
        m = 8
        top = (1 << m) - 1
        dyn = DynamicHint(m=m, rebuild_threshold=16)
        model = Model()
        for step in range(400):
            op = rng.random()
            if op < 0.55 or not model.live:
                st = int(rng.integers(0, top + 1))
                end = int(min(st + rng.integers(0, 40), top))
                rid = dyn.insert(st, end)
                model.live[rid] = (st, end)
            elif op < 0.8:
                victim = int(rng.choice(list(model.live)))
                dyn.delete(victim)
                del model.live[victim]
            else:
                a, b = sorted(rng.integers(0, top + 1, size=2).tolist())
                got = set(dyn.query(a, b).tolist())
                assert got == model.query(a, b), f"step {step}"
        # final full check
        assert set(dyn.query(0, top).tolist()) == set(model.live)
        assert len(dyn) == len(model.live)

    def test_snapshot_equals_naive(self, rng):
        m = 7
        top = (1 << m) - 1
        dyn = DynamicHint(m=m, rebuild_threshold=8)
        for _ in range(100):
            st = int(rng.integers(0, top + 1))
            dyn.insert(st, min(st + 5, top))
        snap = dyn.snapshot()
        naive = NaiveScan(snap)
        for _ in range(20):
            a, b = sorted(rng.integers(0, top + 1, size=2).tolist())
            assert sorted(dyn.query(a, b).tolist()) == sorted(
                naive.query(a, b).tolist()
            )


class TestIdLifecycleRegressions:
    """Regression tests for id accounting across the buffer boundary.

    ``len()`` used to drift when delete() accepted ids it had never
    handed out, and a tombstoned id could silently swallow a later
    insert of the same id.  These pin the strict lifecycle: every id is
    live exactly once, and misuse raises instead of corrupting state.
    """

    def test_delete_of_buffered_id_with_later_rebuild(self):
        dyn = DynamicHint(m=8, rebuild_threshold=4)
        keep = [dyn.insert(i * 10, i * 10 + 5) for i in range(2)]
        victim = dyn.insert(100, 120)  # still in the insert buffer
        dyn.delete(victim)
        assert len(dyn) == 2
        assert victim not in set(dyn.query(0, 255).tolist())
        # Push past the threshold so the buffer (still containing the
        # victim's staged row) merges into the base index.
        more = [dyn.insert(200, 210) for _ in range(3)]
        assert dyn.rebuilds >= 1
        got = set(dyn.query(0, 255).tolist())
        assert victim not in got, "deleted-while-buffered id resurrected"
        assert got == set(keep) | set(more)
        assert len(dyn) == 5

    def test_delete_unknown_id_raises_and_changes_nothing(self):
        dyn = DynamicHint(m=8, rebuild_threshold=16)
        rid = dyn.insert(0, 10)
        with pytest.raises(KeyError, match="not live"):
            dyn.delete(rid + 999)
        assert len(dyn) == 1
        assert set(dyn.query(0, 255).tolist()) == {rid}

    def test_double_delete_raises(self):
        dyn = DynamicHint(m=8, rebuild_threshold=16)
        rid = dyn.insert(0, 10)
        dyn.delete(rid)
        with pytest.raises(KeyError, match="not live"):
            dyn.delete(rid)
        assert len(dyn) == 0

    def test_reinsert_of_tombstoned_id_raises(self):
        # Re-using a tombstoned id before compact() would let the
        # tombstone swallow the fresh interval — must raise instead.
        coll = IntervalCollection([5], [15], ids=[7])
        dyn = DynamicHint(coll, m=8, rebuild_threshold=16)
        dyn.delete(7)
        with pytest.raises(ValueError, match="tombstoned"):
            dyn.insert(20, 30, id=7)
        dyn.compact()
        rid = dyn.insert(20, 30, id=7)  # tombstone cleared: fine now
        assert rid == 7
        assert set(dyn.query(0, 255).tolist()) == {7}

    def test_insert_of_an_id_outside_int64_raises_and_changes_nothing(self):
        dyn = DynamicHint(m=8, rebuild_threshold=16)
        rid = dyn.insert(0, 10)
        with pytest.raises(OverflowError):
            dyn.insert(3, 4, id=2**63)
        assert len(dyn) == 1 and dyn.buffered == 1
        assert dyn.insert(5, 6) == rid + 1
        assert sorted(dyn.query(0, 255).tolist()) == [rid, rid + 1]

    def test_insert_duplicate_live_id_raises(self):
        coll = IntervalCollection([5], [15], ids=[7])
        dyn = DynamicHint(coll, m=8, rebuild_threshold=16)
        with pytest.raises(ValueError, match="already live"):
            dyn.insert(40, 50, id=7)
        assert len(dyn) == 1


class TestWritePathLookups:
    """delete() finds an object's coordinates by lookup, and query() keeps
    array forms of the buffer and the tombstones only until the next write."""

    def test_delete_never_scans_the_base_ids(self):
        class NoScan:
            """The base collection with its id column made unreadable."""

            def __init__(self, base):
                self._base = base

            def __getattr__(self, name):
                assert name != "ids", "delete() scanned _base.ids"
                return getattr(self._base, name)

        rng = np.random.default_rng(3)
        ids = rng.permutation(500) + 1000  # unsorted, not starting at 0
        st = rng.integers(0, 200, 500)
        dyn = DynamicHint(IntervalCollection(st, st + 20, ids=ids), m=8, rebuild_threshold=64)
        staged = dyn.insert(7, 9)
        dyn._base = NoScan(dyn._base)
        version = dyn.cache_version
        dyn.delete(int(ids[17]))  # merged into the base
        dyn.delete(staged)  # still in the buffer
        assert dyn.dirty_since(version) == [(int(st[17]), int(st[17]) + 20), (7, 9)]
        with pytest.raises(KeyError):
            dyn.delete(999_999)

    def test_query_sees_every_write_after_warming_its_arrays(self):
        rng = np.random.default_rng(4)
        model = Model()
        dyn = DynamicHint(m=8, rebuild_threshold=40)

        def check():
            for a, b in ((0, 255), (40, 90), (200, 200)):
                assert set(dyn.query(a, b).tolist()) == model.query(a, b)

        for step in range(300):
            check()  # warms the buffer and tombstone arrays before the write
            roll = rng.random()
            if roll < 0.55 or not model.live:
                s = int(rng.integers(0, 250))
                e = min(s + int(rng.integers(0, 30)), 255)
                model.live[dyn.insert(s, e)] = (s, e)
            elif roll < 0.95:
                victim = int(rng.choice(sorted(model.live)))
                dyn.delete(victim)
                del model.live[victim]
            else:
                dyn.compact()
        check()
        assert dyn.rebuilds > 3


class TestDirtySince:
    """dirty_since reads only the log's tail: the records after *version*."""

    def test_nothing_at_the_current_version(self):
        dyn = DynamicHint(m=8)
        dyn.insert(3, 9)
        assert dyn.dirty_since(dyn.cache_version) == []

    def test_none_once_the_log_is_truncated(self):
        dyn = DynamicHint(m=8, rebuild_threshold=4096)
        for i in range(dyn._mutations.maxlen + 1):
            dyn.insert(i % 200, i % 200 + 5)
        assert dyn.dirty_since(0) is None
        assert dyn.dirty_since(1) == [
            (i % 200, i % 200 + 5) for i in range(1, dyn._mutations.maxlen + 1)
        ]

    def test_none_when_the_tail_holds_an_untrackable_record(self):
        dyn = DynamicHint(m=8)
        dyn.insert(0, 4)
        before = dyn.cache_version
        dyn._live.add(77)  # live, yet stored nowhere: its delete has no span
        dyn.delete(77)
        dyn.insert(10, 12)
        assert dyn.dirty_since(before) is None
        # An untrackable record before the version asked about is not read.
        assert dyn.dirty_since(before + 1) == [(10, 12)]

    def test_the_regions_in_order(self):
        coll = IntervalCollection.from_pairs([(0, 5), (20, 30)])
        dyn = DynamicHint(coll, m=8, rebuild_threshold=2)
        version = dyn.cache_version
        dyn.insert(40, 50)
        dyn.delete(1)
        dyn.insert(60, 61)  # trips a merge: no record of its own
        dyn.delete(2)
        assert dyn.rebuilds == 1
        assert dyn.dirty_since(version) == [(40, 50), (20, 30), (60, 61), (40, 50)]
        assert dyn.dirty_since(version + 2) == [(60, 61), (40, 50)]


class TestTombstoneFilter:
    def test_few_and_many_overlapping_tombstones(self):
        from repro.hint.dynamic import _FEW_DEAD

        many = 2 * _FEW_DEAD + 3
        st = np.arange(3 * many) % 40
        base = IntervalCollection(st, st + 30)
        dyn = DynamicHint(base, m=8, rebuild_threshold=1000)
        model = Model()
        model.live = {i: (int(s), int(s) + 30) for i, s in enumerate(st)}
        for victims in (2, many):  # compared one by one, then looked up
            for rid in sorted(model.live)[:victims]:
                dyn.delete(rid)
                del model.live[rid]
            staged = dyn.insert(35, 36)
            model.live[staged] = (35, 36)
            for a, b in ((0, 255), (35, 35), (0, 5), (70, 80)):
                got = dyn.query(a, b).tolist()
                assert len(got) == len(set(got))
                assert set(got) == model.query(a, b), (victims, a, b)
                assert dyn.query_count(a, b) == len(got)


class TestQueryCount:
    def test_counts_equal_the_ids_through_writes_merges_and_compact(self):
        rng = np.random.default_rng(11)
        st = rng.integers(0, 250, 300)
        base = IntervalCollection(st, np.minimum(st + rng.integers(0, 40, 300), 255))
        dyn = DynamicHint(base, m=8, rebuild_threshold=24)
        live = list(base.ids.tolist())
        probes = [(0, 255), (17, 17), (40, 90), (250, 255)]
        for step in range(400):
            roll = rng.random()
            if roll < 0.45:
                s = int(rng.integers(0, 250))
                live.append(dyn.insert(s, min(s + int(rng.integers(0, 30)), 255)))
            elif roll < 0.9:
                dyn.delete(live.pop(int(rng.integers(0, len(live)))))
            elif roll < 0.95:
                dyn.compact()
            a, b = sorted(rng.integers(0, 256, 2).tolist())
            for q in probes + [(a, b)]:
                assert dyn.query_count(*q) == dyn.query(*q).size, (step, q)
        assert dyn.rebuilds > 3
        assert dyn.query_count(-5, 300) == len(dyn) == len(live)
