"""Tests for index serialization (save_index / load_index)."""

import numpy as np
import pytest

from repro import (
    HintIndex,
    IntervalCollection,
    NaiveScan,
    QueryBatch,
    load_index,
    partition_based,
    query_based,
    save_index,
)
from tests.conftest import random_batch, random_collection


@pytest.fixture
def round_trip(tmp_path, rng):
    coll = random_collection(rng, 400, 1023)
    index = HintIndex(coll, m=10)
    path = tmp_path / "index.npz"
    save_index(index, path)
    return index, load_index(path), coll


class TestRoundTrip:
    def test_metadata(self, round_trip):
        original, loaded, _ = round_trip
        assert loaded.m == original.m
        assert loaded.num_intervals == original.num_intervals
        assert loaded.storage_optimized == original.storage_optimized
        assert loaded.num_placements() == original.num_placements()

    def test_single_queries(self, round_trip, rng):
        original, loaded, _ = round_trip
        for _ in range(40):
            a, b = sorted(rng.integers(0, 1024, size=2).tolist())
            assert sorted(loaded.query(a, b).tolist()) == sorted(
                original.query(a, b).tolist()
            )
            assert loaded.query_count(a, b) == original.query_count(a, b)

    def test_batch_strategies_on_loaded_index(self, round_trip, rng):
        original, loaded, coll = round_trip
        batch = random_batch(rng, 30, 1023)
        expected = NaiveScan(coll).batch(batch).counts
        assert np.array_equal(partition_based(loaded, batch).counts, expected)
        assert np.array_equal(query_based(loaded, batch).counts, expected)
        checked = partition_based(loaded, batch, mode="checksum")
        assert np.array_equal(
            checked.checksums,
            partition_based(original, batch, mode="checksum").checksums,
        )

    def test_empty_index(self, tmp_path):
        index = HintIndex(IntervalCollection.empty(), m=4)
        path = tmp_path / "empty.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert len(loaded) == 0
        assert loaded.query(0, 15).size == 0

    def test_unoptimized_storage(self, tmp_path, rng):
        coll = random_collection(rng, 200, 255)
        index = HintIndex(coll, m=8, storage_optimized=False)
        path = tmp_path / "full.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert not loaded.storage_optimized
        assert sorted(loaded.query(0, 255).tolist()) == sorted(
            index.query(0, 255).tolist()
        )


class TestFormat:
    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, meta=np.array([999, 4, 0, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="format version"):
            load_index(path)

    def test_file_is_plain_npz(self, round_trip, tmp_path, rng):
        coll = random_collection(rng, 50, 255)
        index = HintIndex(coll, m=8)
        path = tmp_path / "plain.npz"
        save_index(index, path)
        with np.load(path) as archive:
            assert "meta" in archive
            assert "L8_o_in_offsets" in archive

    @pytest.mark.parametrize(
        "dropped",
        ["L0_o_in_offsets", "L3_r_aft_ids", "L8_o_aft_keybits"],
    )
    def test_truncated_archive_rejected(self, tmp_path, rng, dropped):
        """Regression: a doctored/truncated archive must fail with a
        clear ``ValueError`` naming the missing level keys, not a bare
        ``KeyError`` deep inside reconstruction."""
        coll = random_collection(rng, 60, 255)
        index = HintIndex(coll, m=8)
        path = tmp_path / "whole.npz"
        save_index(index, path)
        with np.load(path) as archive:
            kept = {
                name: archive[name]
                for name in archive.files
                if name != dropped
            }
        doctored = tmp_path / "doctored.npz"
        np.savez(doctored, **kept)
        with pytest.raises(ValueError, match=dropped):
            load_index(doctored)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "nometa.npz"
        np.savez(path, junk=np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError, match="meta"):
            load_index(path)


class TestMidChurnSnapshotRoundTrip:
    def test_snapshot_taken_mid_churn_persists_faithfully(self, tmp_path, rng):
        """Snapshot a dynamic index with a dirty buffer and tombstones,
        persist an index built from it, and prove the reload answers
        exactly like the live dynamic index."""
        from repro import DynamicHint, verify_index

        m, top = 9, (1 << 9) - 1
        dyn = DynamicHint(m=m, rebuild_threshold=13)
        live = []
        for _ in range(90):
            s = int(rng.integers(0, top + 1))
            live.append(dyn.insert(s, int(min(s + rng.integers(0, 50), top))))
            if len(live) > 5 and rng.random() < 0.35:
                dyn.delete(live.pop(int(rng.integers(0, len(live)))))
        # The interesting case: snapshot while state is split across the
        # base index, the staging buffer and the tombstones.
        assert dyn.buffered > 0
        assert dyn._dead_ids or dyn._buf_gone

        snap = dyn.snapshot()
        index = HintIndex(snap, m=m)
        path = tmp_path / "mid_churn.npz"
        save_index(index, path)
        loaded = load_index(path)
        verify_index(loaded, collection=snap)

        assert sorted(loaded.query(0, top).tolist()) == sorted(live)
        for _ in range(25):
            a, b = sorted(rng.integers(0, top + 1, size=2).tolist())
            assert sorted(loaded.query(a, b).tolist()) == sorted(
                dyn.query(a, b).tolist()
            )
