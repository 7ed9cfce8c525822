"""Tests for the m-selection model and the advisor."""

import numpy as np
import pytest

from repro import IntervalCollection, QueryBatch, choose_m, recommend_strategy
from repro.core.advisor import cold_start_recommendation
from repro.hint.model import tune_m
from repro.workloads.synthetic import generate_synthetic


class TestChooseM:
    def test_empty_collection(self):
        assert choose_m(IntervalCollection.empty()) == 1

    def test_covers_raw_domain(self):
        coll = IntervalCollection.from_pairs([(0, 1000)])
        m = choose_m(coll)
        assert (1 << m) > 1000

    def test_short_intervals_get_deeper_hierarchy(self):
        domain = 1 << 16
        short = generate_synthetic(20_000, domain, 1.8, domain // 8, seed=1)
        long_ = IntervalCollection(
            short.st // 2, short.st // 2 + domain // 2, copy=False
        )
        m_short = choose_m(short)
        m_long = choose_m(long_)
        assert m_short >= m_long

    def test_respects_cap_when_normalized(self):
        coll = generate_synthetic(5_000, 1 << 12, 1.2, 500, seed=2)
        assert choose_m(coll, max_m=10) <= 12  # cap + domain floor

    def test_index_builds_with_auto_m(self):
        from repro import HintIndex

        coll = generate_synthetic(2_000, 1 << 14, 1.4, 1000, seed=3)
        index = HintIndex(coll)  # must not raise
        assert index.query_count(0, (1 << 14) - 1) == len(coll)


class TestTuneM:
    def test_returns_a_candidate(self):
        coll = generate_synthetic(3_000, 1 << 12, 1.2, 400, seed=4)
        batch = QueryBatch([10, 500, 3000], [100, 700, 3500])
        m = tune_m(coll, batch, candidates=(4, 8, 12), probe_queries=3)
        assert m in (4, 8, 12)

    def test_sampling_paths(self):
        coll = generate_synthetic(5_000, 1 << 12, 1.2, 400, seed=5)
        batch = QueryBatch(list(range(0, 400, 10)), list(range(50, 450, 10)))
        m = tune_m(
            coll, batch, candidates=(6, 10), sample_size=1_000, probe_queries=5
        )
        assert m in (6, 10)


class TestAdvisor:
    def test_empty_batch(self):
        rec = recommend_strategy(1000, QueryBatch([], []))
        assert rec.strategy == "query-based"

    def test_single_query(self):
        rec = recommend_strategy(1000, QueryBatch([0], [5]))
        assert rec.strategy == "query-based"

    def test_normal_batch_prefers_partition_based(self):
        batch = QueryBatch(list(range(100)), list(range(1, 101)))
        rec = recommend_strategy(1_000_000, batch)
        assert rec.strategy == "partition-based"
        assert rec.reason

    def test_huge_batch_prefers_join(self):
        batch = QueryBatch(list(range(900)), list(range(1, 901)))
        rec = recommend_strategy(1_000, batch)
        assert rec.strategy == "join-based"

    def test_threshold_configurable(self):
        batch = QueryBatch(list(range(100)), list(range(1, 101)))
        rec = recommend_strategy(150, batch, join_ratio_threshold=0.9)
        assert rec.strategy == "partition-based"


class TestColdStartRecommendation:
    def test_matches_advisor_reasons(self):
        for size, n in [(1000, 0), (1000, 1), (1000, 100), (100, 90)]:
            batch = QueryBatch(np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64))
            rec = recommend_strategy(size, batch)
            strategy, reason = cold_start_recommendation(size, n)
            assert rec.strategy == strategy
            assert rec.reason == reason
