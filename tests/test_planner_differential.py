"""Differential tests: ``PlannedExecutor`` never changes results.

Every strategy × result mode through the executor must be bit-identical
to ``run_strategy`` on a single reference index, across index kinds
(single, sharded k = 2, dynamic-after-compact), alone and under a
:class:`~repro.cache.CachingExecutor`, and every batch reaches
the engine's dispatch with the strategy and backend the caller named.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CachingExecutor
from repro.core.strategies import STRATEGIES, run_strategy
from repro.engine import ExecutionEngine
from repro.hint.dynamic import DynamicHint
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.planner import PlannedExecutor
from repro.shard import ShardedHint
from tests.conftest import assert_flat_oracle, oracle_result, random_collection

M = 10
TOP = (1 << M) - 1
MODES = ("count", "checksum", "ids")


def mixed_batch(rng, n=600):
    """Heterogeneous batch: mostly points, a wide-scan tail."""
    n_wide = n // 8
    st1 = rng.integers(0, TOP - 4, size=n - n_wide)
    st2 = rng.integers(0, TOP - 200, size=n_wide)
    st = np.concatenate([st1, st2])
    end = np.concatenate([st1 + 3, st2 + 200])
    perm = rng.permutation(st.size)
    return QueryBatch(st[perm], end[perm])


@pytest.fixture
def collection(rng):
    return random_collection(rng, 500, TOP)


@pytest.fixture
def reference(collection):
    index = HintIndex(collection, m=M)
    index.precompute_aux()
    return index


def backends_under_test(collection):
    """(label, executor) pairs over every index kind."""
    single = HintIndex(collection, m=M)
    single.precompute_aux()
    sharded = ShardedHint(collection, k=2, m=M)
    dyn = DynamicHint(m=M, rebuild_threshold=10_000)
    for st, end, id_ in zip(collection.st, collection.end, collection.ids):
        dyn.insert(int(st), int(end), id=int(id_))
    dyn.compact()
    yield "HintIndex", PlannedExecutor(single)
    yield "ShardedHint", PlannedExecutor(sharded)
    yield "DynamicHint", PlannedExecutor(dyn.index)


class TestPlannerDifferential:
    def test_planned_equals_every_static_plan(self, rng, collection, reference):
        """Every strategy × mode, in caller order and start-sorted."""
        batch = mixed_batch(rng)
        naive = oracle_result(collection, batch, M)
        for label, px in backends_under_test(collection):
            try:
                for mode in MODES:
                    for strategy in STRATEGIES:
                        for given in (batch, batch.sorted_by_start()):
                            want = run_strategy(strategy, reference, given, mode=mode)
                            got = px.execute(given, strategy=strategy, mode=mode)
                            assert got == want, f"{label}: {strategy} [{mode}]"
                        if mode == "ids":
                            assert_flat_oracle(
                                px.execute(batch, strategy=strategy, mode=mode), naive
                            )
            finally:
                px.close()

    def test_cached_planned_equals_every_static_plan(self, rng, collection, reference):
        """The same under a cache: a first pass fills it, a second hits."""
        batch = mixed_batch(rng)
        for label, index in (
            ("HintIndex", HintIndex(collection, m=M)),
            ("ShardedHint", ShardedHint(collection, k=2, m=M)),
        ):
            with PlannedExecutor(index) as px:
                cached = CachingExecutor(px)
                for mode in MODES:
                    for strategy in STRATEGIES:
                        want = run_strategy(strategy, reference, batch, mode=mode)
                        for _ in range(2):
                            got = cached.execute(batch, strategy=strategy, mode=mode)
                            assert got == want, f"{label}: {strategy} [{mode}]"
                assert cached.stats().hits > 0, label


class TestDecisionPath:
    """The caller chooses, the engine executes: every batch reaches the
    engine's dispatch with the strategy and concrete backend named."""

    @pytest.mark.parametrize("kind", ["HintIndex", "ShardedHint"])
    def test_engine_runs_the_backend_the_plan_named(
        self, rng, collection, monkeypatch, kind
    ):
        if kind == "HintIndex":
            index = HintIndex(collection, m=M)
        else:
            index = ShardedHint(collection, k=3, m=M)
        seen = []
        real_run = ExecutionEngine._run

        def spy(engine, batch, strategy, mode, resolved):
            seen.append((strategy, resolved))
            return real_run(engine, batch, strategy, mode, resolved)

        px = PlannedExecutor(index)
        monkeypatch.setattr(ExecutionEngine, "_run", spy)
        try:
            for mode in MODES:
                for strategy in STRATEGIES:
                    for backend in (None, "serial", "threads"):
                        batch = mixed_batch(rng, n=200)
                        got = px.execute(
                            batch, strategy=strategy, mode=mode, backend=backend
                        )
                        assert seen[-1] == (strategy, backend or "serial")
                        oracle = oracle_result(collection, batch, M)
                        assert np.array_equal(got.counts, oracle.counts)
                        if mode == "ids":
                            assert got == oracle
                        if mode == "checksum":
                            assert [
                                got.query_checksum(i) for i in range(len(batch))
                            ] == [
                                oracle.query_checksum(i) for i in range(len(batch))
                            ]
            assert len(seen) == len(MODES) * len(STRATEGIES) * 3
            # Mechanism only: nothing below the executor learns per batch.
            assert not hasattr(px.engine, "backend_policy")
        finally:
            px.close()
