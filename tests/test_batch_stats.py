"""Tests for the batch-characterization analysis."""

import numpy as np
import pytest

from repro import HintIndex, IntervalCollection, QueryBatch
from repro.analysis.batch_stats import analyze_batch, batch_extents
from tests.conftest import random_batch, random_collection


def brute_force_level(m, level, batch):
    shift = m - level
    incidences = 0
    touched = set()
    for s, e in batch:
        f, l = s >> shift, e >> shift
        incidences += l - f + 1
        touched.update(range(f, l + 1))
    return incidences, len(touched)


class TestAnalyzeBatch:
    def test_empty_batch(self, small_index):
        stats = analyze_batch(small_index, QueryBatch([], []))
        assert stats.num_queries == 0
        assert stats.total_incidences == 0
        assert stats.sharing_factor == 0.0
        assert stats.incidences_per_query == 0.0

    def test_single_query(self, small_index):
        # q = [2, 5]: 4+2+2+1+1 = 10 incidences, all partitions distinct
        stats = analyze_batch(small_index, QueryBatch([2], [5]))
        assert stats.total_incidences == 10
        assert stats.total_distinct == 10
        assert stats.sharing_factor == 1.0

    def test_identical_queries_share_fully(self, small_index):
        stats = analyze_batch(small_index, QueryBatch([2] * 8, [5] * 8))
        assert stats.total_incidences == 80
        assert stats.total_distinct == 10
        assert stats.sharing_factor == pytest.approx(8.0)

    def test_disjoint_queries_share_only_upper_levels(self, small_index):
        # [0,1] and [14,15] touch disjoint bottom partitions but meet at
        # the root.
        stats = analyze_batch(small_index, QueryBatch([0, 14], [1, 15]))
        by_level = {s.level: s for s in stats.levels}
        assert by_level[4].sharing_factor == 1.0
        assert by_level[0].sharing_factor == 2.0

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_vs_bruteforce(self, m, rng):
        top = (1 << m) - 1
        coll = random_collection(rng, 100, top)
        index = HintIndex(coll, m=m)
        batch = random_batch(rng, 30, top)
        stats = analyze_batch(index, batch)
        for level_stats in stats.levels:
            inc, distinct = brute_force_level(m, level_stats.level, batch)
            assert level_stats.incidences == inc, f"level {level_stats.level}"
            assert level_stats.distinct_partitions == distinct

    def test_occupied_incidences_bounded(self, rng):
        m = 6
        top = (1 << m) - 1
        coll = random_collection(rng, 150, top)
        index = HintIndex(coll, m=m)
        batch = random_batch(rng, 25, top)
        stats = analyze_batch(index, batch)
        for s in stats.levels:
            # occupied counts at most one incidence per table per query
            assert 0 <= s.occupied_incidences <= 4 * len(batch)

    def test_describe(self, small_index):
        stats = analyze_batch(small_index, QueryBatch([2], [5]))
        text = stats.describe()
        assert "sharing" in text
        assert "level" in text

    def test_queries_clipped(self, small_index):
        a = analyze_batch(small_index, QueryBatch([-100], [500]))
        b = analyze_batch(small_index, QueryBatch([0], [15]))
        assert a.total_incidences == b.total_incidences


class TestExtentSummary:
    def test_extents_match_endpoints(self):
        batch = QueryBatch([10, 20], [10, 30])
        assert batch_extents(batch).tolist() == [0, 10]
