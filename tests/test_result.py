"""Tests for BatchResult and the collectors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.collector import CountCollector, IdCollector, make_collector
from repro.core.result import MODES, BatchResult


class TestBatchResult:
    def test_count_mode(self):
        res = BatchResult(np.array([3, 0, 2]))
        assert res.mode == "count"
        assert len(res) == 3
        assert res.total() == 5
        with pytest.raises(ValueError):
            res.ids(0)
        with pytest.raises(ValueError):
            res.id_sets()

    def test_ids_mode(self):
        res = BatchResult.from_id_lists([[1, 2], [], [7]])
        assert res.mode == "ids"
        assert res.counts.tolist() == [2, 0, 1]
        assert res.ids(0).tolist() == [1, 2]
        assert res.id_sets() == [frozenset({1, 2}), frozenset(), frozenset({7})]

    def test_mismatched_ids_length(self):
        with pytest.raises(ValueError):
            BatchResult(np.array([1, 2]), [np.array([1])])

    @pytest.mark.parametrize(
        "counts, flat, offsets",
        [
            ([5], [1], [0, 1]),  # a count its offsets do not step by
            ([1, 1], [7, 8], [1, 1, 2]),  # offsets not starting at 0
            ([1, 1], [7, 8, 9], [0, 1, 2]),  # offsets not ending at flat.size
            ([3, -1], [7, 8], [0, 3, 2]),  # offsets decreasing
            ([1, 1], [7, 8], [0, 1]),  # one offset short
            ([2], [[7, 8]], [0, 2]),  # flat ids not flat
        ],
    )
    def test_ids_representation_is_validated(self, counts, flat, offsets):
        with pytest.raises(ValueError):
            BatchResult(np.array(counts), np.array(flat), np.array(offsets))

    def test_one_array_per_query_is_flattened_and_validated(self):
        res = BatchResult(np.array([2, 0]), [np.array([3, 4]), np.array([])])
        assert res == BatchResult.from_id_lists([[4, 3], []])
        assert res.flat_ids.tolist() == [3, 4] and res.offsets.tolist() == [0, 2, 2]
        with pytest.raises(ValueError):  # one id reported as five
            BatchResult(np.array([5]), [np.array([1])])

    def test_ids_need_flat_and_offsets_together(self):
        with pytest.raises(ValueError):
            BatchResult(np.array([1]), np.array([7]))
        with pytest.raises(ValueError):
            BatchResult(np.array([1]), None, np.array([0, 1]))

    def test_ids_are_views_of_one_flat_array(self):
        res = BatchResult(np.array([2, 0, 1]), np.array([4, 5, 6]), np.array([0, 2, 2, 3]))
        assert [res.ids(i).tolist() for i in range(3)] == [[4, 5], [], [6]]
        assert all(res.ids(i).base is res.flat_ids for i in range(3))
        assert res.query_checksum(0) == 4 ^ 5 and res.query_checksum(1) == 0
        assert res == BatchResult.from_id_arrays(
            [np.array([5, 4]), np.array([], dtype=np.int64), np.array([6])], "ids"
        )

    def test_equality_order_insensitive(self):
        a = BatchResult.from_id_lists([[1, 2, 3]])
        b = BatchResult.from_id_lists([[3, 1, 2]])
        c = BatchResult.from_id_lists([[1, 2]])
        assert a == b
        assert a != c
        assert a != 42

    def test_equality_mode_mismatch(self):
        counted = BatchResult(np.array([2]))
        full = BatchResult.from_id_lists([[1, 2]])
        assert counted != full

    def test_checksum_order_independent(self):
        a = BatchResult.from_id_lists([[5, 9], [2]])
        b = BatchResult.from_id_lists([[9, 5], [2]])
        c = BatchResult.from_id_lists([[5, 9], [3]])
        assert a.checksum() == b.checksum()
        assert a.checksum() != c.checksum()

    def test_checksum_count_mode(self):
        assert BatchResult(np.array([1, 2])).checksum() != BatchResult(
            np.array([2, 1])
        ).checksum()
        assert BatchResult(np.empty(0, dtype=np.int64)).checksum() == 0

    def test_repr(self):
        assert "queries=2" in repr(BatchResult(np.array([1, 0])))


@st.composite
def _contributions(draw):
    """``(n, order, parts)``: each part gives some positions a fragment of
    ids, so a position collects several fragments across parts, or none."""
    n = draw(st.integers(0, 6))
    order = draw(st.one_of(st.none(), st.permutations(range(n))))
    fragment = st.lists(st.integers(0, 99), max_size=4)
    parts = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n).flatmap(
                lambda positions: st.tuples(
                    st.just(positions),
                    st.lists(fragment, min_size=len(positions), max_size=len(positions)),
                )
            ),
            st.sampled_from(["ranges", "segments", "arrays"]),
        ),
        max_size=4,
    )) if n else []
    return n, order, parts


def _as_part(positions, fragments, form):
    """One ``BatchResult.merge`` part in the asked ids *form*."""
    arrays = [np.array(f, dtype=np.int64) for f in fragments]
    counts = np.array([a.size for a in arrays], dtype=np.int64)
    sums = np.array(
        [int(np.bitwise_xor.reduce(a)) if a.size else 0 for a in arrays], dtype=np.int64
    )
    cuts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    flat = np.concatenate(arrays + [np.empty(0, dtype=np.int64)])
    if form == "segments":
        ids = (flat, cuts, None)
    elif form == "ranges":  # the same rows, behind three rows of padding
        ids = (np.concatenate([[-1, -1, -1], flat]), cuts[:-1] + 3, cuts[1:] + 3)
    else:
        ids = (np.fromiter(arrays, dtype=object, count=len(arrays)), None, None)
    return np.array(positions, dtype=np.int64), counts, sums, ids


class TestMerge:
    @given(_contributions(), st.sampled_from(MODES))
    def test_merge_matches_dict_of_lists(self, drawn, mode):
        n, order, raw = drawn
        model = {pos: [] for pos in range(n)}
        for (positions, fragments), _ in raw:
            for pos, fragment in zip(positions, fragments):
                model[pos].extend(fragment)
        parts = [_as_part(p, f, form) for (p, f), form in raw]
        got = BatchResult.merge(
            n, mode, parts, None if order is None else np.array(order, dtype=np.int64)
        )
        caller = list(range(n)) if order is None else order
        want = [None] * n
        for pos, ids in model.items():
            want[caller[pos]] = ids
        assert got.mode == mode and len(got) == n
        assert got.counts.tolist() == [len(ids) for ids in want]
        if mode == "checksum":
            xors = [int(np.bitwise_xor.reduce(np.array(ids + [0]))) for ids in want]
            assert got.checksums.tolist() == xors
        if mode == "ids":
            # fragments keep the order their parts came in
            assert [got.ids(i).tolist() for i in range(n)] == want
            assert got.offsets.tolist() == np.cumsum([0] + [len(i) for i in want]).tolist()
            assert got == BatchResult.from_id_lists(want)

    @pytest.mark.parametrize("mode", MODES)
    def test_merge_of_nothing_is_the_empty_result(self, mode):
        assert BatchResult.merge(0, mode, []) == BatchResult.empty(mode)
        assert BatchResult.merge(1, mode, []).counts.tolist() == [0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BatchResult.merge(1, "wat", [])
        with pytest.raises(ValueError):
            BatchResult.empty("wat")


class TestCollectors:
    class FakeTable:
        def __init__(self, ids):
            self.ids = np.asarray(ids, dtype=np.int64)

    def test_count_collector(self):
        c = CountCollector(3)
        c.add_count(0, 5)
        c.add_slice(1, self.FakeTable([1, 2, 3]), 0, 2)
        c.add_slice(1, None, 4, 4)  # empty range ignored
        c.add_ids(2, np.array([7, 8]))
        c.add_counts_vec(np.array([0, 2]), np.array([1, 1]))
        result = c.finalize(np.arange(3))
        assert result.counts.tolist() == [6, 2, 3]

    def test_count_collector_order_restoration(self):
        c = CountCollector(2)
        c.add_count(0, 10)  # sorted position 0 -> original position 1
        c.add_count(1, 20)
        result = c.finalize(np.array([1, 0]))
        assert result.counts.tolist() == [20, 10]

    def test_id_collector(self):
        c = IdCollector(2)
        table = self.FakeTable([10, 11, 12, 13])
        c.add_slice(0, table, 1, 3)
        c.add_ids(0, np.array([99]))
        result = c.finalize(np.arange(2))
        assert sorted(result.ids(0).tolist()) == [11, 12, 99]
        assert result.ids(1).size == 0

    def test_id_collector_rejects_bare_counts(self):
        with pytest.raises(TypeError):
            IdCollector(1).add_count(0, 3)

    def test_id_collector_flat_finalize_equivalence(self):
        """The single-pass flat finalize matches a per-query concatenate
        on ragged batches with empty-fragment and fragment-free queries,
        under a non-trivial order permutation."""
        rng = np.random.default_rng(42)
        n = 37
        order = rng.permutation(n).astype(np.int64)
        fragments = []
        for pos in range(n):
            frags = []
            kind = pos % 4
            if kind == 1:  # one empty fragment plus data
                frags.append(np.empty(0, dtype=np.int64))
            if kind != 3:  # kind 3 queries collect nothing at all
                for _ in range(int(rng.integers(1, 5))):
                    frags.append(
                        rng.integers(0, 1000, int(rng.integers(0, 9)))
                        .astype(np.int64)
                    )
            fragments.append(frags)

        c = IdCollector(n)
        table = self.FakeTable(np.arange(2000))
        for pos, frags in enumerate(fragments):
            for k, frag in enumerate(frags):
                if k % 2 and frag.size:  # exercise both entry points
                    lo = int(frag[0]) % 1000
                    c.add_slice(0, table, lo, lo)  # empty range, no-op
                c.add_ids(pos, frag)
        result = c.finalize(order)

        for pos in range(n):
            expected = (
                np.concatenate(fragments[pos])
                if fragments[pos]
                else np.empty(0, dtype=np.int64)
            )
            got = result.ids(int(order[pos]))
            assert got.tolist() == expected.tolist()
            assert result.counts[int(order[pos])] == expected.size

    def test_id_collector_ids_share_one_flat_buffer(self):
        """Per-query arrays are views into one flat allocation."""
        c = IdCollector(3)
        c.add_ids(0, np.array([1, 2], dtype=np.int64))
        c.add_ids(1, np.array([3], dtype=np.int64))
        c.add_ids(2, np.array([4, 5, 6], dtype=np.int64))
        result = c.finalize(np.arange(3))
        bases = {result.ids(i).base is not None for i in range(3)}
        assert bases == {True}

    def test_make_collector(self):
        assert isinstance(make_collector("count", 1), CountCollector)
        assert isinstance(make_collector("ids", 1), IdCollector)
        with pytest.raises(ValueError):
            make_collector("wat", 1)
