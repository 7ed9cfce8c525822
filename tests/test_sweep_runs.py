"""Partition-based batches on an exactly tiled HINT, in every mode.

Hypothesis drives the partition-based strategy (through
``run_strategy`` and its old name ``compiled_run``, on a ``HintIndex``
and inside each shard of a ``ShardedHint`` with 2 and 3 shards, in all
three result modes) against the pseudocode-faithful
:class:`~repro.hint.reference.ReferenceHint` and the naive oracle, on
batches built to keep every case of Algorithm 4's comparisons alive.
None of those comparisons can drop a row on this index, and cost spies
pin that none is made: a count or checksum is two gathers per level
from the index's prefix folds, an ids batch four row runs per level
gathered at once — no ``np.searchsorted``, no packed cut, no masked
gather, no scatter, no start sort.  The folds and id runs are built once
however many threads ask first, and answer alike traced or not.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import repro.obs as obs
import repro.shard.sharded as sharded_mod
from repro import HintIndex, IntervalCollection, QueryBatch
from repro.core.strategies import run_strategy
from repro.hint.reference import ReferenceHint
from repro.kernels import ops
from repro.kernels.compiled import compiled_run
from repro.shard import ShardedHint
from tests.conftest import assert_flat_oracle, oracle_result, random_batch

MODES = ("count", "checksum", "ids")
RUNNERS = {"serial": run_strategy, "compiled": compiled_run}


@hs.composite
def interval_set(draw, top):
    """0..40 intervals, optionally confined to one duration class so that
    whole levels (and single tables of a level) stay empty."""
    n = draw(hs.sampled_from([0, 1, 1, 2, 5, 12, 40]))
    longest = draw(hs.sampled_from([0, 1, top // 4, top]))
    st = [draw(hs.integers(0, top)) for _ in range(n)]
    end = [min(s + draw(hs.integers(0, longest)), top) for s in st]
    return st, end


@hs.composite
def edge_query(draw, m):
    """One query of a kind that keeps a branch of the sweep alive."""
    top = (1 << m) - 1
    k = draw(hs.integers(0, m))  # a level's shift
    low = (1 << k) - 1
    part = draw(hs.integers(0, top >> k))
    kind = draw(hs.integers(0, 6))
    if kind == 0:  # q.st ends in k ones: compfirst survives k levels up
        st = (part << k) | low
        return st, draw(hs.integers(st, top))
    if kind == 1:  # q.end ends in k zeros: complast survives k levels up
        end = part << k
        return draw(hs.integers(0, end)), end
    if kind == 2:  # both at once, f == l on the way up
        st = (part << k) | low
        end = (((st >> k) + 1) << k) & ~low
        return (st, end) if end <= top else (st, st)
    if kind == 3:  # st == end
        point = draw(hs.integers(0, top))
        return point, point
    if kind == 4:  # the whole domain
        return 0, top
    if kind == 5:  # ends exactly on a partition's last cell
        end = (part << k) | low
        return draw(hs.integers(0, end)), end
    # out of the domain on either side: _prepare clips
    st = draw(hs.integers(-5, top + 5))
    return st, draw(hs.integers(st, top + 9))


@hs.composite
def sweep_case(draw):
    m = draw(hs.integers(0, 7))
    top = (1 << m) - 1
    st, end = draw(interval_set(top))
    queries = draw(hs.lists(edge_query(m), min_size=1, max_size=12))
    repeats = draw(hs.lists(hs.sampled_from(queries), max_size=4))  # duplicates
    queries = draw(hs.permutations(queries + repeats))
    return m, st, end, queries


@settings(max_examples=150, deadline=None)
@given(sweep_case())
def test_folded_sweep_equals_reference_and_oracle(case):
    m, st, end, queries = case
    coll = IntervalCollection(st, end) if st else IntervalCollection.empty()
    batch = QueryBatch([q[0] for q in queries], [q[1] for q in queries])
    want = oracle_result(coll, batch, m)
    reference = ReferenceHint(coll, m).batch_partition_based(batch)
    assert [frozenset(ids) for ids in reference] == want.id_sets()
    assert [len(ids) for ids in reference] == want.counts.tolist()  # no duplicates

    indexes = [HintIndex(coll, m=m)]
    indexes += [ShardedHint(coll, k=k, m=m) for k in (2, 3) if k <= 1 << m]
    for index in indexes:
        for name, runner in RUNNERS.items():
            for mode in MODES:
                if isinstance(index, HintIndex):
                    got = runner("partition-based", index, batch, mode=mode)
                else:
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(sharded_mod, "run_strategy", runner)
                        got = index.execute(batch, mode=mode)
                assert got.mode == mode, (type(index).__name__, name)
                assert_flat_oracle(got, want)


def _fold_case(rng, m=12, n=20_000, queries=512):
    top = (1 << m) - 1
    st = rng.integers(0, top, size=n)
    coll = IntervalCollection(st, np.minimum(st + rng.integers(0, 300, n), top))
    return coll, random_batch(rng, queries, top)


def _watched(monkeypatch, runner):
    """*runner* and what its calls cost: ``np.searchsorted`` calls,
    ``QueryBatch.sorted_by_start`` calls and kernel invocations, counted
    only while it runs (on shards: the shard's own evaluation, not the
    routing, the replica/spill probes or the merge, which are the shard
    layer's)."""
    calls = Counter()
    real_search = np.searchsorted
    real_sort = QueryBatch.sorted_by_start

    def searching(*args, **kwargs):
        calls["searchsorted"] += 1
        return real_search(*args, **kwargs)

    def sorting(batch):
        calls["sorted_by_start"] += 1
        return real_sort(batch)

    def watched(name, shard_index, sub, *, mode):
        before = ops.invocation_counts()
        monkeypatch.setattr(np, "searchsorted", searching)
        monkeypatch.setattr(QueryBatch, "sorted_by_start", sorting)
        try:
            return RUNNERS[runner](name, shard_index, sub, mode=mode)
        finally:
            monkeypatch.setattr(np, "searchsorted", real_search)
            monkeypatch.setattr(QueryBatch, "sorted_by_start", real_sort)
            after = ops.invocation_counts()
            calls.update({
                kernel: after[kernel] - before.get(kernel, 0)
                for kernel in after
                if after[kernel] != before.get(kernel, 0)
            })

    return watched, calls


def _run_watched(monkeypatch, rng, runner, kind, mode):
    coll, batch = _fold_case(rng)
    index = HintIndex(coll, m=12) if kind == "hint" else ShardedHint(coll, k=2, m=12)
    watched, calls = _watched(monkeypatch, runner)
    if kind == "hint":
        got = watched("partition-based", index, batch, mode=mode)
    else:
        monkeypatch.setattr(sharded_mod, "run_strategy", watched)
        got = index.execute(batch, mode=mode)
    assert_flat_oracle(got, oracle_result(coll, batch, 12))
    return calls


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize("kind", ["hint", "sharded"])
@pytest.mark.parametrize("mode", ["count", "checksum"])
def test_count_and_checksum_make_no_cut_and_call_no_kernel(
    rng, monkeypatch, runner, kind, mode
):
    """Fails at the parent, whose sweep cut with ``np.searchsorted`` (the
    serial path) or ``ops.packed_*``/``ops.masked_*`` (the compiled one).
    On shards only the shard's own evaluation is watched: routing and
    the replica/spill probes are the shard layer's, not the fold's."""
    calls = _run_watched(monkeypatch, rng, runner, kind, mode)
    assert calls["searchsorted"] == 0
    assert not [k for k in calls if k.startswith(("packed_", "masked_"))]


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize("kind", ["hint", "sharded"])
def test_ids_gather_runs_without_cut_sort_or_scatter(rng, monkeypatch, runner, kind):
    """An ids batch is four row runs per level gathered at once: no
    ``np.searchsorted``, no packed cut, masked gather or scatter kernel,
    and no start sort.  Fails at the parent, whose ids sweep cut on the
    packed columns (or with ``np.searchsorted``), sorted the batch by
    start and replayed its plan through the scatter kernels."""
    calls = _run_watched(monkeypatch, rng, runner, kind, "ids")
    assert calls["searchsorted"] == 0
    assert calls["sorted_by_start"] == 0
    assert not [
        k for k in calls if k.startswith(("packed_", "masked_", "scatter_"))
    ]


def test_eight_threads_build_one_fold(rng, monkeypatch):
    coll, batch = _fold_case(rng)
    index = HintIndex(coll, m=12)
    builds = []
    real = HintIndex._build_fold

    def counting(self, mode):
        builds.append(mode)
        return real(self, mode)

    monkeypatch.setattr(HintIndex, "_build_fold", counting)
    start = threading.Barrier(8)
    results = [None] * 8

    def run(i):
        start.wait()
        results[i] = run_strategy("partition-based", index, batch, mode="count")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert builds == ["count"]
    assert all(result == results[0] for result in results)
    assert_flat_oracle(results[0], oracle_result(coll, batch, 12))


def test_eight_threads_build_one_id_runs(rng, monkeypatch):
    coll, batch = _fold_case(rng)
    index = HintIndex(coll, m=12)
    builds = []
    real = HintIndex._build_id_runs

    def counting(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(HintIndex, "_build_id_runs", counting)
    start = threading.Barrier(8)
    results = [None] * 8

    def run(i):
        start.wait()
        results[i] = run_strategy("partition-based", index, batch, mode="ids")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert builds == [index]
    assert all(
        result.offsets.tolist() == results[0].offsets.tolist()
        and result.flat_ids.tolist() == results[0].flat_ids.tolist()
        for result in results
    )
    assert_flat_oracle(results[0], oracle_result(coll, batch, 12))


def test_precompute_aux_builds_both_folds(rng, monkeypatch):
    coll, batch = _fold_case(rng)
    index = HintIndex(coll, m=12, precompute_aux=True)
    monkeypatch.setattr(HintIndex, "_build_fold", None)  # any build raises
    for mode in ("count", "checksum"):
        run_strategy("partition-based", index, batch, mode=mode)


@pytest.mark.parametrize("mode", ["count", "checksum", "ids"])
def test_traced_fold_equals_the_untraced_one(rng, mode):
    coll, batch = _fold_case(rng)
    index = HintIndex(coll, m=12)
    plain = run_strategy("partition-based", index, batch, mode=mode)
    obs.configure(enabled=True, trace_partitions=True)
    try:
        traced = run_strategy("partition-based", index, batch, mode=mode)
    finally:
        obs.configure(enabled=False)
    assert traced.mode == plain.mode == mode
    assert traced.counts.tolist() == plain.counts.tolist()
    if mode == "checksum":
        assert traced.checksums.tolist() == plain.checksums.tolist()
    if mode == "ids":
        assert traced.flat_ids.tolist() == plain.flat_ids.tolist()
    assert_flat_oracle(traced, oracle_result(coll, batch, 12))


@pytest.mark.parametrize("source", ["build", "persist"])
def test_every_way_to_an_index_records_its_occupied_levels(rng, tmp_path, source):
    from repro.hint.persist import load_index, save_index
    from repro.verify.invariants import InvariantViolation, verify_index

    st = rng.integers(0, 1000, size=300)
    coll = IntervalCollection(st, st + rng.integers(0, 9, size=300))
    built = HintIndex(coll, m=10)
    if source == "build":
        index = built
    else:
        save_index(built, tmp_path / "index.npz")
        index = load_index(tmp_path / "index.npz")
    assert index.occupied_levels == built.occupied_levels
    assert 0 < len(index.occupied_levels) < 11
    verify_index(index, deep=False)
    index.occupied_levels = index.occupied_levels[1:]
    with pytest.raises(InvariantViolation, match="occupied levels"):
        verify_index(index, deep=False)
