"""Tests for the structural invariant validators (``repro.verify``).

Two halves: valid indexes of every shape must pass, and injected
corruptions of every class (offsets, sort order, packed keys, id
placement, cross-structure accounting) must be named in an
:class:`InvariantViolation`.  The mutation tests are what make the
validators trustworthy — a checker that cannot fail is not checking.
"""

from __future__ import annotations

import pytest

from repro import (
    DynamicHint,
    GridIndex,
    HintIndex,
    IntervalCollection,
    InvariantViolation,
    load_index,
    save_index,
    verify_index,
)
from tests.conftest import random_collection


@pytest.fixture
def coll(rng):
    return random_collection(rng, 400, 1023)


def first_table(index, name, min_rows=2):
    """First subdivision table of class *name* with at least *min_rows*."""
    for level in index.levels:
        table = getattr(level, name)
        if table.ids.size >= min_rows:
            return table
    pytest.skip(f"no {name} table with >= {min_rows} rows")


# --------------------------------------------------------------------- #
# valid indexes pass
# --------------------------------------------------------------------- #


class TestValidIndexesPass:
    @pytest.mark.parametrize("m", [0, 1, 4, 10])
    def test_hint_random(self, rng, m):
        top = (1 << m) - 1
        c = random_collection(rng, 150, top)
        report = verify_index(HintIndex(c, m=m), collection=c)
        assert report.index_type == "HintIndex"
        assert report.num_intervals == len(c)
        assert report.checks > 0
        assert "deep" in str(report)

    def test_hint_unoptimized_storage(self, coll):
        index = HintIndex(coll, m=10, storage_optimized=False)
        verify_index(index, collection=coll)

    def test_hint_shallow(self, coll):
        report = verify_index(HintIndex(coll, m=10), deep=False)
        assert "shallow" in report.notes

    def test_empty_collection(self):
        verify_index(HintIndex(IntervalCollection.empty(), m=5))
        verify_index(GridIndex(IntervalCollection.empty(), 8))
        verify_index(DynamicHint(m=5))

    def test_loaded_index(self, coll, tmp_path):
        index = HintIndex(coll, m=10)
        save_index(index, tmp_path / "idx.npz")
        verify_index(load_index(tmp_path / "idx.npz"), collection=coll)

    def test_grid(self, coll):
        report = verify_index(GridIndex(coll, 32), collection=coll)
        assert report.index_type == "GridIndex"

    def test_grid_single_partition(self, coll):
        verify_index(GridIndex(coll, 1), collection=coll)

    def test_dynamic_mid_churn(self, rng):
        dyn = DynamicHint(m=9, rebuild_threshold=16)
        live = []
        for _ in range(120):
            s = int(rng.integers(0, 400))
            live.append(dyn.insert(s, min(s + int(rng.integers(0, 40)), 511)))
            if live and rng.random() < 0.3:
                dyn.delete(live.pop(int(rng.integers(0, len(live)))))
        assert dyn.buffered > 0  # genuinely mid-churn
        report = verify_index(dyn)
        assert report.index_type == "DynamicHint"
        dyn.compact()
        verify_index(dyn)

    def test_unsupported_type(self):
        with pytest.raises(TypeError, match="verify_index supports"):
            verify_index(object())


# --------------------------------------------------------------------- #
# corrupted indexes fail, with a diagnostic naming the broken table
# --------------------------------------------------------------------- #


class TestCorruptionDetected:
    def expect(self, index, match, collection=None):
        with pytest.raises(InvariantViolation, match=match) as excinfo:
            verify_index(index, collection=collection)
        assert excinfo.value.violations

    def test_offsets_not_monotone(self, coll):
        index = HintIndex(coll, m=10)
        table = first_table(index, "o_in")
        table.offsets[-1] -= 1
        self.expect(index, "offsets|rows")

    def test_unsorted_partition(self, coll):
        index = HintIndex(coll, m=10, storage_optimized=False)
        table = first_table(index, "r_aft", 3)
        table.st[:] = table.st[::-1].copy()
        # R_aft has no sort key; break a sorted class instead.
        table = first_table(index, "o_in", 3)
        table.st[:] = table.st[::-1].copy()
        self.expect(index, "sort|comp")

    def test_comp_packing_mismatch(self, coll):
        index = HintIndex(coll, m=10)
        table = first_table(index, "o_in")
        table.comp[0] += 1
        self.expect(index, "comp")

    def test_replica_id_corrupted(self, coll):
        index = HintIndex(coll, m=10)
        table = first_table(index, "r_in")
        table.ids[0] = 10**6
        self.expect(index, "placement|reconstructed|ends-inside")

    def test_original_renamed_vs_collection(self, coll):
        index = HintIndex(coll, m=10)
        table = first_table(index, "o_in")
        table.ids[0] = 10**6
        self.expect(index, "disagree|placement", collection=coll)

    def test_duplicated_original(self, coll):
        index = HintIndex(coll, m=10)
        table = first_table(index, "o_aft", 2)
        table.ids[0] = int(table.ids[1])
        self.expect(index, "original|placement")

    def test_level_count_wrong(self, coll):
        index = HintIndex(coll, m=10)
        index.levels = index.levels[:-1]
        self.expect(index, "levels")

    def test_grid_swapped_ids(self, coll):
        grid = GridIndex(coll, 32)
        grid.o_ids[0], grid.o_ids[-1] = int(grid.o_ids[-1]), int(grid.o_ids[0])
        self.expect(grid, "grid")

    def test_grid_replica_endpoint_corrupted(self, coll):
        grid = GridIndex(coll, 32)
        if grid.r_ids.size == 0:
            pytest.skip("no replicas")
        grid.r_st[0] -= 1
        self.expect(grid, "replica")

    def test_dynamic_tombstone_of_unknown_id(self, rng):
        dyn = DynamicHint(m=8, rebuild_threshold=64)
        dyn.insert(0, 10)
        # bypass delete()'s validation: a tombstone row for an unknown id
        dyn._dead_ids.append(99_999)
        dyn._dead_st.append(0)
        dyn._dead_end.append(10)
        self.expect(dyn, "tombstones reference ids never stored")

    def test_dynamic_buffer_columns_diverge(self):
        dyn = DynamicHint(m=8, rebuild_threshold=64)
        dyn.insert(0, 10)
        dyn._buf_st.append(3)  # id/end columns not extended
        self.expect(dyn, "buffer")

    def test_dynamic_tombstone_columns_diverge(self):
        dyn = DynamicHint(IntervalCollection.from_pairs([(0, 10)]), m=8)
        dyn.delete(0)
        dyn._dead_st.append(3)  # id/end columns not extended
        self.expect(dyn, "tombstone columns")

    def test_dynamic_tombstone_row_misplaced(self):
        dyn = DynamicHint(IntervalCollection.from_pairs([(0, 10), (4, 6)]), m=8)
        dyn.delete(1)
        dyn._dead_st[0] = 5  # no longer the base row's start
        self.expect(dyn, "tombstone rows")

    def test_dynamic_staged_tombstone_recorded_twice(self):
        dyn = DynamicHint(m=8, rebuild_threshold=64)
        dyn.delete(dyn.insert(0, 10))
        dyn._buf_gone.append(dyn._buf_gone[0])
        self.expect(dyn, "an id twice")

    def test_dynamic_live_set_diverges(self):
        dyn = DynamicHint(m=8, rebuild_threshold=64)
        dyn.insert(0, 10)
        dyn._live.add(123)
        self.expect(dyn, "live")

    def test_violations_are_collected_not_first_only(self, coll):
        index = HintIndex(coll, m=10)
        a = first_table(index, "o_in")
        b = first_table(index, "r_in")
        a.comp[0] += 1
        b.end[:] = b.end[::-1].copy()
        with pytest.raises(InvariantViolation) as excinfo:
            verify_index(index, deep=False)
        assert len(excinfo.value.violations) >= 2


# --------------------------------------------------------------------- #
# the debug_checks build flag
# --------------------------------------------------------------------- #


class TestDebugChecksFlag:
    def test_hint_flag_builds_and_verifies(self, coll):
        index = HintIndex(coll, m=10, debug_checks=True)
        assert index.debug_checks
        assert sorted(index.query(0, 100).tolist()) == sorted(
            HintIndex(coll, m=10).query(0, 100).tolist()
        )

    def test_grid_flag(self, coll):
        GridIndex(coll, 16, debug_checks=True)

    def test_dynamic_flag_checks_every_rebuild(self):
        dyn = DynamicHint(m=8, rebuild_threshold=5, debug_checks=True)
        for i in range(23):
            dyn.insert(i, min(i + 3, 255))
        assert dyn.rebuilds == 4

    def test_loaded_index_defaults_off(self, coll, tmp_path):
        save_index(HintIndex(coll, m=10, debug_checks=True), tmp_path / "i.npz")
        assert load_index(tmp_path / "i.npz").debug_checks is False
