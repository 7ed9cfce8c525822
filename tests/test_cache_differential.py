"""Differential indistinguishability of the cached execution path.

The contract under test: putting :class:`repro.cache.CachingExecutor` in
front of any backend changes *nothing* observable except latency.  Every
trial runs the same batch through the cached path **twice** (in ids mode
the first pass populates, the second serves hits; count and checksum
batches pass through to the backend without touching the store) and
demands bit-identical agreement with

* the uncached strategy result on an equivalent plain index, and
* the ``oracle_result`` linear-scan ground truth.

Below the executor trials, the result tier's columnar store of id
answers is checked on its own: against a dict reference model over
random batches and budgets, under forced index collisions, across
growth, against the scalar overlap rule, and for being driven a batch
(not a query) at a time — and not at all by a count or checksum batch.

The matrix: 3 strategies x 3 result modes x {HintIndex, DynamicHint,
ShardedHint} x {serial, threads, engine-auto} execution backends, plus
one cell each for the other ways a result gets merged below the cache
(compiled shards on threads, ``PlannedExecutor``), swept
by ``REPRO_CACHE_TRIALS`` seeded trials (default 200; ``make
cache-smoke`` runs a reduced sweep).  DynamicHint only exists in the
serial cell — it has no strategy/execute surface, the executor serves it
through its single-query API — which is the one infeasible row of the
matrix and is documented here rather than silently skipped.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro import (
    CachingExecutor,
    DynamicHint,
    ExecutionEngine,
    HintIndex,
    IntervalCollection,
    QueryBatch,
    ShardedHint,
    run_strategy,
)
from repro.cache import CacheCounters, ResultCache
from repro.cache import result as result_store
from repro.core.result import MODES
from repro.core.strategies import STRATEGIES
from repro.planner import PlannedExecutor
from repro.workloads.queries import uniform_queries, zipfian_queries

from tests.conftest import assert_flat_oracle, oracle_result, random_collection

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
    ("hint", "planner"),
)

#: All strategy x mode pairs, cycled across trials.
PAIRS = tuple((s, mode) for s in sorted(STRATEGIES) for mode in MODES)


def _make_backend(kind: str, backend: str, coll: IntervalCollection, m: int):
    """The wrapped backend plus a cleanup callable."""
    if kind == "dynamic":
        dyn = DynamicHint(coll, m=m, rebuild_threshold=64)
        return dyn, lambda: None
    idx = HintIndex(coll, m=m) if kind == "hint" else ShardedHint(coll, 3, m=m)
    if backend == "serial":
        return idx, lambda: None
    if backend == "planner":
        px = PlannedExecutor(idx)
        return px, px.close
    if backend == "engine-auto":
        eng = ExecutionEngine(idx, backend="auto")
    else:
        eng = ExecutionEngine(idx, backend=backend, workers=2)
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
        cached = CachingExecutor(wrapped)
        fresh = cached.stats()
        first = cached.execute(batch, strategy=strategy, mode=mode)
        second = cached.execute(batch, strategy=strategy, mode=mode)
    finally:
        cleanup()
    assert first == reference
    assert second == reference
    naive = oracle_result(coll, batch, m)
    for result in (first, second):
        assert_flat_oracle(result, naive)
    stats = cached.stats()
    if mode != "ids":
        # Passed through: no counter moved and nothing was stored.
        assert stats == fresh and stats.entries == len(cached._results) == 0
        return
    assert stats.hits + stats.misses == 2 * len(batch)
    # The second pass of an identical batch must be all hits.
    assert stats.hits >= len(batch)


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


# --------------------------------------------------------------------- #
# the result tier's columnar store
# --------------------------------------------------------------------- #


def _payload_columns(st, end):
    """A deterministic answer per key: ``(counts, ids)`` as the store's
    :meth:`~repro.cache.ResultCache.fill` takes them."""
    counts = (st * 7 + end) % 5
    ids = np.empty(st.size, dtype=object)
    for i, (s, c) in enumerate(zip(st.tolist(), counts.tolist())):
        ids[i] = np.arange(s, s + c, dtype=np.int64)
    return counts, ids


def _no_ids(n):
    """*n* empty answers: entries that cost the fixed overhead alone."""
    ids = np.empty(n, dtype=object)
    ids[:] = [np.empty(0, dtype=np.int64) for _ in range(n)]
    return np.zeros(n, dtype=np.int64), ids


def _resident(store):
    """``{(st, end): (row, stamp, nbytes)}`` read off the columns (a live
    row is one with bytes accounted)."""
    rows = np.flatnonzero(store._nbytes > 0)
    return {
        (int(store._st[r]), int(store._end[r])):
        (int(r), int(store._stamp[r]), int(store._nbytes[r]))
        for r in rows
    }


def _slot(store, key):
    st, end = (np.array([v]) for v in key)
    return int(store._slots(result_store._key_hash(st, end))[0])


def _run_batch(store, st, end):
    """What ``CachingExecutor`` does with one ids batch; returns ``(rows,
    hit payload part)``."""
    rows = store.lookup(st, end)
    hits = store.payloads(rows[rows >= 0])
    missed = np.unique(np.stack([st[rows < 0], end[rows < 0]]), axis=1)
    store.fill(missed[0], missed[1], *_payload_columns(missed[0], missed[1]))
    return rows, hits


@pytest.mark.parametrize(
    "budget",
    [dict(max_bytes=1), dict(max_entries=5), dict(max_bytes=40 * 96), dict()],
    ids=["one-byte", "five-entries", "forty-entries-of-bytes", "ample"],
)
def test_store_matches_dict_model(budget):
    """Random batches against a dict that remembers every key's payload
    and the batch it was last used in: a hit returns the model's payload,
    both budgets hold after every batch, and what a batch evicted was not
    used more recently than anything it kept."""
    rng = np.random.default_rng(20240325)
    store = ResultCache(**budget)
    last_used = {}  # key -> batch of last use, for keys the store should hold
    for batch_no in range(1, 60):
        n = int(rng.integers(1, 48))
        st = rng.integers(0, 24, n)
        end = st + rng.integers(0, 3, n)
        before = _resident(store)
        evictions = store.evictions
        rows, (counts, checksums, (ids, _, _)) = _run_batch(store, st, end)
        hit = rows >= 0
        # hits: exactly the keys resident before the batch, with their payloads
        assert hit.tolist() == [(s, e) in before for s, e in zip(st.tolist(), end.tolist())]
        want = _payload_columns(st[hit], end[hit])
        assert counts.tolist() == want[0].tolist() and checksums is None
        assert all(np.array_equal(a, b) for a, b in zip(ids, want[1]))
        # budgets and accounting
        after = _resident(store)
        assert len(store) == len(after) <= (store.max_entries or len(after))
        assert store.bytes_resident == sum(nb for _, _, nb in after.values()) <= store.max_bytes
        # oldest stamps go first
        last_used.update({(s, e): batch_no for s, e in zip(st.tolist(), end.tolist())})
        gone = {key: last_used.pop(key) for key in list(last_used) if key not in after}
        assert store.evictions - evictions == len(gone)
        assert set(last_used) == set(after)
        # ... except the few whose index slot another key took
        taken = {_slot(store, key) for key in after}
        evicted = [used for key, used in gone.items() if _slot(store, key) not in taken]
        if evicted and after:
            assert max(evicted) <= min(last_used.values())
        if evicted:  # and only as many as the budgets demanded
            assert (
                len(after) == store.max_entries
                or store.bytes_resident + 96 + 8 * 4 > store.max_bytes
            )
        assert budget or not evicted


def test_store_index_collisions_never_confuse_keys():
    """Keys forced onto one index slot: at most one of them is resident,
    a lookup never answers with another key's payload, and the accounting
    stays exact."""
    store = ResultCache()
    st = np.arange(200_000, dtype=np.int64)
    slots = store._slots(result_store._key_hash(st, st))
    crowd = st[slots == slots[0]][:6]
    assert crowd.size == 6
    for _ in range(3):
        for one in crowd:
            key = np.array([one])
            rows = store.lookup(key, key)
            want_counts, want_ids = _payload_columns(key, key)
            if rows[0] >= 0:
                counts, _, (ids, _, _) = store.payloads(rows)
                assert counts.tolist() == want_counts.tolist()
                assert ids[0].tolist() == want_ids[0].tolist()
            else:
                store.fill(key, key, want_counts, want_ids)
            assert len(store) == len(_resident(store)) == 1
    assert store.evictions >= len(crowd) - 1
    # two of them in one fill: the later stays, the earlier counts as evicted
    store.clear()
    before = store.evictions
    store.lookup(crowd[:2], crowd[:2])
    store.fill(crowd[:2], crowd[:2], *_payload_columns(crowd[:2], crowd[:2]))
    assert list(_resident(store)) == [(int(crowd[1]), int(crowd[1]))]
    assert store.evictions - before == 1


def test_store_growth_keeps_every_entry():
    """Filling far past the initial size: rows and index double, nothing
    is lost that the index had room for, and no earlier row moves."""
    store = ResultCache()
    small = store._nbytes.size
    st = np.arange(0, 3000, dtype=np.int64)
    for lo in range(0, 3000, 500):
        part = st[lo:lo + 500]
        store.lookup(part, part + 1)
        store.fill(part, part + 1, *_payload_columns(part, part + 1))
    assert store._nbytes.size > small and store._index.size == 16 * store._nbytes.size
    assert len(store) + store.evictions == 3000
    assert store.evictions < 3000 // 10  # displaced by index collisions only
    rows = store.lookup(st, st + 1)
    found = rows >= 0
    assert found.sum() == len(store)
    counts, _, (ids, _, _) = store.payloads(rows[found])
    want_counts, want_ids = _payload_columns(st[found], st[found] + 1)
    assert counts.tolist() == want_counts.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(ids, want_ids))


def test_store_drop_overlapping_matches_scalar_rule(rng):
    for trial in range(40):
        store = ResultCache()
        n = int(rng.integers(1, 120))
        st = rng.integers(0, 500, n)
        end = st + rng.integers(0, 40, n)
        _run_batch(store, st, end)
        regions = [
            (int(lo), int(lo + w))
            for lo, w in zip(rng.integers(0, 540, trial % 7), rng.integers(0, 30, trial % 7))
        ]
        before = _resident(store)
        doomed = {
            key for key in before
            if any(key[0] <= hi and lo <= key[1] for lo, hi in regions)
        }
        assert store.drop_overlapping(regions) == len(doomed)
        assert set(_resident(store)) == set(before) - doomed
        assert store.bytes_resident == sum(nb for _, _, nb in _resident(store).values())


class _CountingBackend:
    """Answers from a plain index and remembers what it was asked."""

    def __init__(self, index):
        self._index = index
        self.m = index.m
        self.batches = []

    @property
    def queries(self):
        return sum(map(len, self.batches))

    def execute(self, batch, *, strategy, mode):
        self.batches.append(batch)
        return run_strategy(strategy, self._index, batch, mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_in_batch_duplicates_share_one_execution(mode, rng):
    """Ids repeats share one execution; a count or checksum batch, repeats
    and all, goes to the backend as the caller gave it."""
    m = 8
    coll = random_collection(rng, 200, (1 << m) - 1)
    index = HintIndex(coll, m=m)
    backend = _CountingBackend(index)
    cached = CachingExecutor(backend)
    st = np.array([5, 90, 5, 5, 200, 90, 17])
    end = np.array([9, 120, 9, 30, 255, 120, 17])
    batch = QueryBatch(st, end)
    first = cached.execute(batch, mode=mode)
    assert first == run_strategy("partition-based", index, batch, mode=mode)
    if mode != "ids":
        again = cached.execute(batch, mode=mode)
        assert again == first
        assert backend.batches == [batch, batch]
        assert cached.stats() == CachingExecutor(backend).stats()
        return
    assert all(sub.is_sorted for sub in backend.batches)
    stats = cached.stats()
    assert (backend.queries, stats.misses, stats.hits, stats.shared) == (5, 5, 2, 2)
    again = cached.execute(batch, mode=mode)
    assert again == first
    stats = cached.stats()
    assert (backend.queries, stats.misses, stats.hits, stats.shared) == (5, 5, 9, 2)
    if mode == "ids":
        # a result owns its ids: a caller writing into what it was handed
        # corrupts neither the store nor an earlier result
        want = first.flat_ids.copy()
        again.flat_ids[:] = -1
        assert np.array_equal(first.flat_ids, want)
        assert cached.execute(batch, mode=mode) == first


def test_store_owns_its_ids_bytes(rng):
    """No entry is a view that keeps a batch's flat array alive: the bytes
    the budget counts are the bytes the store holds."""
    m = 10
    coll = random_collection(rng, 2_000, (1 << m) - 1)
    cached = CachingExecutor(HintIndex(coll, m=m), max_bytes=64 << 10)
    for seed in range(6):
        cached.execute(uniform_queries(256, 1 << m, 5.0, seed=seed), mode="ids")
    store = cached._results
    held = store._ids[store._nbytes > 0]
    assert len(store) == held.size > 0 and store.evictions > 0
    assert all(ids.base is None for ids in held)
    payload = sum(ids.nbytes for ids in held)
    assert payload + 96 * held.size == store.bytes_resident <= store.max_bytes
    # the store itself applies the rule: a view is copied, an owner kept
    store = ResultCache()
    flat = np.arange(10, dtype=np.int64)
    given = np.empty(2, dtype=object)
    given[:] = [flat[2:5], flat[5:9].copy()]
    keys = np.array([1, 2])
    store.lookup(keys, keys)
    store.fill(keys, keys, np.array([3, 4]), given)
    kept = store.payloads(store.lookup(keys, keys))[2][0]
    assert kept[0].base is None and kept[0].tolist() == [2, 3, 4]
    assert kept[1] is given[1]


def test_reserve_evicts_what_the_fill_would():
    """Room made ahead of a fill comes off the least recently used end,
    and asking for more than the budget empties the store and stops."""
    store = ResultCache(max_bytes=40 * 96)
    for lo in range(0, 40, 10):
        keys = np.arange(lo, lo + 10)
        store.lookup(keys, keys)
        store.fill(keys, keys, *_no_ids(10))
    before = _resident(store)  # all 40 but the few an index collision displaced
    short = len(before) + 15 - 40  # entries over budget once 15 more come
    store.reserve(np.zeros(15, dtype=np.int64))  # fifteen empty ids entries
    after = _resident(store)
    assert len(after) == len(store) == len(before) - short
    assert store.bytes_resident + 15 * 96 <= store.max_bytes
    gone = [stamp for key, (_, stamp, _) in before.items() if key not in after]
    assert max(gone) <= min(stamp for _, stamp, _ in after.values())
    store.reserve(np.array([10**9]))
    assert len(store) == 0 and store.bytes_resident == 0


class _Spy:
    """Counts the calls made on the wrapped store's methods, and names
    every attribute of it that was read at all."""

    def __init__(self, store):
        self._store = store
        self.calls = 0
        self.touched = []

    def __len__(self):
        self.touched.append("__len__")
        return len(self._store)

    def __getattr__(self, name):
        self.touched.append(name)
        attr = getattr(self._store, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("mode", MODES)
def test_store_is_driven_once_per_batch_not_once_per_query(mode, rng):
    """A handful of store calls per ids batch whatever its size; none at
    all for a count or checksum batch."""
    m = 10
    coll = random_collection(rng, 300, (1 << m) - 1)
    cached = CachingExecutor(HintIndex(coll, m=m))
    spy = cached._results = _Spy(cached._results)
    per_batch = []
    for n in (8, 64, 512):
        batch = uniform_queries(n, 1 << m, 2.0, seed=n)
        for _ in range(2):  # all misses, then all hits
            spy.calls = 0
            cached.execute(batch, mode=mode)
            per_batch.append(spy.calls)
    assert max(per_batch) <= (4 if mode == "ids" else 0)
    assert len(set(per_batch)) == 1


def _live(coll):
    """``{id: (st, end)}`` of *coll*: a model to mutate beside an index."""
    return {int(i): (int(s), int(e)) for i, s, e in zip(coll.ids, coll.st, coll.end)}


def _collection(live):
    """The collection a :func:`_live` model holds now."""
    return IntervalCollection.from_records([(i, s, e) for i, (s, e) in sorted(live.items())])


def _spied_stack(kind, coll, m):
    """``(CachingExecutor over a *kind* backend, the spy on its store)``."""
    if kind == "dynamic":
        backend = DynamicHint(coll, m=m, rebuild_threshold=16)
    elif kind == "planner":
        backend = PlannedExecutor(HintIndex(coll, m=m))
    elif kind == "sharded":
        backend = ShardedHint(coll, 2, m=m)
    else:
        backend = HintIndex(coll, m=m)
    cached = CachingExecutor(backend)
    spy = cached._results = _Spy(cached._results)
    return cached, spy


@pytest.mark.parametrize("kind", ["hint", "sharded", "planner", "dynamic"])
def test_count_and_checksum_pass_through_untouched(kind):
    """A count or checksum batch reaches the backend without one read of
    the store, and its answer is the oracle's, in caller order — on a
    DynamicHint with inserts and deletes between the batches too."""
    m = 8
    top = (1 << m) - 1
    rng = np.random.default_rng(4242)
    coll = random_collection(rng, 300, top)
    live = _live(coll)
    cached, spy = _spied_stack(kind, coll, m)
    try:
        for round_no in range(6):
            batch = uniform_queries(int(rng.integers(1, 200)), 1 << m, 3.0, seed=round_no)
            assert not batch.is_sorted or len(batch) < 3
            naive = oracle_result(_collection(live), batch, m)
            # The start-sorted copy carries each query's caller position.
            for mode, given in itertools.product(
                ("count", "checksum"), (batch, batch.sorted_by_start())
            ):
                assert_flat_oracle(cached.execute(given, mode=mode), naive)
            assert spy.touched == []
            if kind == "dynamic":
                dyn = cached.backend
                for _ in range(5):
                    s = int(rng.integers(0, top + 1))
                    e = min(s + int(rng.integers(0, 20)), top)
                    live[dyn.insert(s, e)] = (s, e)
                for gone in rng.choice(sorted(live), 3, replace=False).tolist():
                    dyn.delete(gone)
                    del live[gone]
    finally:
        cached.close()
    assert cached.stats() == CacheCounters(0, 0, 0, 0, 0, 0, 0, 0)


def test_count_batches_between_mutations_leave_the_ids_batch_exact():
    """More mutations than the DynamicHint's log holds, with only count
    batches between them: the next ids batch cannot learn what changed,
    so it flushes the whole store — and is exact."""
    m = 8
    top = (1 << m) - 1
    rng = np.random.default_rng(1024)
    coll = random_collection(rng, 200, top)
    dyn = DynamicHint(coll, m=m, rebuild_threshold=64)
    cached = CachingExecutor(dyn)
    batch = uniform_queries(64, 1 << m, 5.0, seed=3)
    cached.execute(batch, mode="ids")
    stored = cached.stats().entries
    assert stored > 0
    live = _live(coll)
    for step in range(1100):
        if step % 2 or len(live) < 50:
            s = int(rng.integers(0, top + 1))
            e = min(s + int(rng.integers(0, 10)), top)
            live[dyn.insert(s, e)] = (s, e)
        else:
            gone = int(rng.choice(sorted(live)))
            dyn.delete(gone)
            del live[gone]
        if step % 100 == 0:
            naive = oracle_result(_collection(live), batch, m)
            assert_flat_oracle(cached.execute(batch, mode="count"), naive)
    assert dyn.dirty_since(0) is None  # the log has overflowed
    assert cached.execute(batch, mode="ids") == oracle_result(_collection(live), batch, m)
    stats = cached.stats()
    assert (stats.invalidation_flushes, stats.invalidated_entries) == (1, stored)
