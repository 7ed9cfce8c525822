"""Differential indistinguishability of the cached execution path.

The contract under test: putting :class:`repro.cache.CachingExecutor`
(result tier, and the partition tier where applicable) in front of any
backend changes *nothing* observable except latency.  Every trial runs
the same batch through the cached path **twice** (first pass populates,
second pass serves hits) and demands bit-identical agreement with

* the uncached strategy result on an equivalent plain index, and
* the ``oracle_result`` linear-scan ground truth (ids mode).

The matrix: 3 strategies x 3 result modes x {HintIndex, DynamicHint,
ShardedHint} x {serial, threads, engine-auto} execution backends, swept
by ``REPRO_CACHE_TRIALS`` seeded trials (default 200; ``make
cache-smoke`` runs a reduced sweep).  DynamicHint only exists in the
serial cell — it has no strategy/execute surface, the executor serves it
through its single-query API — which is the one infeasible row of the
matrix and is documented here rather than silently skipped.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import (
    CachingExecutor,
    DynamicHint,
    ExecutionEngine,
    HintIndex,
    IntervalCollection,
    ShardedHint,
    run_strategy,
)
from repro.cache import PartitionProbeCache, partition_cached_execute
from repro.core.result import MODES
from repro.core.strategies import STRATEGIES
from repro.workloads.queries import uniform_queries, zipfian_queries

from tests.conftest import oracle_result, random_collection

TRIALS = int(os.environ.get("REPRO_CACHE_TRIALS", "200"))

#: (index kind, execution backend) — every feasible cell of the matrix.
#: DynamicHint composes only with the serial backend: it is mutable, so
#: the executor must read it through its live single-query API rather
#: than hand it to an engine that snapshots a static index.
COMBOS = (
    ("hint", "serial"),
    ("hint", "threads"),
    ("hint", "engine-auto"),
    ("dynamic", "serial"),
    ("sharded", "serial"),
    ("sharded", "threads"),
    ("sharded", "engine-auto"),
)

#: All strategy x mode pairs, cycled across trials.
PAIRS = tuple((s, mode) for s in sorted(STRATEGIES) for mode in MODES)


def _make_backend(kind: str, backend: str, coll: IntervalCollection, m: int):
    """The wrapped backend plus a cleanup callable."""
    if kind == "hint":
        idx = HintIndex(coll, m=m)
        if backend == "serial":
            return idx, lambda: None
        if backend == "threads":
            eng = ExecutionEngine(idx, backend="threads", workers=2)
            return eng, eng.close
        eng = ExecutionEngine(idx, backend="auto")
        return eng, eng.close
    if kind == "dynamic":
        dyn = DynamicHint(coll, m=m, rebuild_threshold=64)
        return dyn, lambda: None
    sharded = ShardedHint(coll, 3, m=m)
    if backend == "serial":
        return sharded, lambda: None
    if backend == "threads":
        eng = ExecutionEngine(sharded, backend="threads", workers=2)
        return eng, eng.close
    eng = ExecutionEngine(sharded, backend="auto")
    return eng, eng.close


def _trial_data(trial: int, m: int):
    rng = np.random.default_rng(10_000 + trial)
    coll = random_collection(rng, int(rng.integers(40, 250)), (1 << m) - 1)
    # Zipf traffic makes result-tier hits real (templates repeat);
    # a uniform tail keeps coverage of never-repeated queries.
    hot = zipfian_queries(
        int(rng.integers(20, 60)),
        1 << m,
        float(rng.uniform(0.5, 8.0)),
        s=float(rng.uniform(0.8, 1.6)),
        universe=32,
        hot_fraction=0.2,
        seed=trial,
    )
    cold = uniform_queries(10, 1 << m, 2.0, seed=trial + 1)
    from repro import QueryBatch

    st = np.concatenate([hot.st, cold.st])
    end = np.concatenate([hot.end, cold.end])
    order = rng.permutation(st.size)
    return coll, QueryBatch(st[order], end[order])


@pytest.mark.parametrize("trial", range(TRIALS))
def test_cached_path_is_indistinguishable(trial):
    m = 6 + trial % 3
    kind, backend = COMBOS[trial % len(COMBOS)]
    strategy, mode = PAIRS[trial % len(PAIRS)]
    coll, batch = _trial_data(trial, m)
    if len(coll) == 0:
        pytest.skip("empty collection")
    reference = run_strategy(strategy, HintIndex(coll, m=m), batch, mode=mode)
    wrapped, cleanup = _make_backend(kind, backend, coll, m)
    try:
        cached = CachingExecutor(
            wrapped,
            partition_tier=(kind == "hint" and backend == "serial"),
        )
        first = cached.execute(batch, strategy=strategy, mode=mode)
        second = cached.execute(batch, strategy=strategy, mode=mode)
    finally:
        cleanup()
    assert first == reference
    assert second == reference
    stats = cached.stats()
    assert stats.hits + stats.misses == 2 * len(batch)
    # The second pass of an identical batch must be all hits.
    assert stats.hits >= len(batch)
    if mode == "ids":
        oracle = oracle_result(coll, batch, m)
        assert first == oracle


@pytest.mark.parametrize("trial", range(0, TRIALS, 10))
def test_cached_dynamic_under_mutation_matches_oracle(trial):
    """Live mutations between executes: answers always track the oracle."""
    m = 7
    rng = np.random.default_rng(77_000 + trial)
    coll, batch = _trial_data(trial, m)
    if len(coll) == 0:
        pytest.skip("empty collection")
    dyn = DynamicHint(coll, m=m, rebuild_threshold=32)
    cached = CachingExecutor(dyn)
    top = (1 << m) - 1
    live = list(coll.ids.tolist())
    for round_no in range(4):
        got = cached.execute(batch, mode="ids")
        assert got == oracle_result(dyn.snapshot(), batch, m)
        op = rng.integers(0, 3)
        if op == 0 or not live:
            s = int(rng.integers(0, top + 1))
            e = min(int(s + rng.integers(0, 10)), top)
            live.append(dyn.insert(s, e))
        elif op == 1:
            dyn.delete(live.pop(int(rng.integers(0, len(live)))))
        else:
            dyn.compact()


@pytest.mark.parametrize("mode", MODES)
def test_partition_tier_matches_every_strategy(mode, rng):
    """The probe-memoized path is bit-identical to every strategy,
    including when the cache is warm from previous batches."""
    m = 7
    coll = random_collection(rng, 300, (1 << m) - 1)
    idx = HintIndex(coll, m=m)
    cache = PartitionProbeCache()
    for seed in range(6):
        batch = zipfian_queries(
            60, 1 << m, 3.0, s=1.1, universe=40, seed=seed
        )
        got = partition_cached_execute(idx, batch, mode, cache)
        for strategy in STRATEGIES:
            assert got == run_strategy(strategy, idx, batch, mode=mode)
    assert cache.hits > 0  # warm passes actually reused probe answers
