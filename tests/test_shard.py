"""Tests for the sharded HINT execution layer (``repro.shard``).

The load-bearing property is *exactness of the merge*: for any shard
count, boundary policy and strategy, ``ShardedHint.execute`` must agree
bit-for-bit (counts, checksums, sorted id sets, caller order) with the
single-index ``run_strategy`` — including boundary-spanning queries,
queries covering many shards, and empty shards.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
import repro.shard.sharded as sharded_mod
from repro import (
    BatchingQueryService,
    HintIndex,
    IntervalCollection,
    NaiveScan,
    QueryBatch,
    STRATEGIES,
    load_sharded,
    run_strategy,
    save_sharded,
    verify_index,
)
from repro.shard import ShardedHint
from repro.verify import InvariantViolation
from tests.conftest import (
    assert_flat_oracle,
    oracle_result,
    random_batch,
    random_collection,
)

M = 10
TOP = (1 << M) - 1


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(1234)
    st = rng.integers(0, TOP - 10, size=900)
    end = np.minimum(st + rng.integers(1, 200, size=900), TOP)
    return IntervalCollection(st, end)


@pytest.fixture(scope="module")
def clustered():
    """All data in the first eighth of the domain — later shards empty."""
    rng = np.random.default_rng(77)
    st = rng.integers(0, TOP // 8, size=400)
    end = np.minimum(st + rng.integers(1, 40, size=400), TOP)
    return IntervalCollection(st, end)


@pytest.fixture(scope="module")
def index(collection):
    return HintIndex(collection, m=M)


def spanning_batch(rng, n):
    """Mix of local, boundary-spanning, full-domain and point queries."""
    st = rng.integers(0, TOP, size=n)
    end = np.minimum(st + rng.integers(0, TOP // 2, size=n), TOP)
    st[:5] = 0
    end[:5] = TOP  # cover every shard
    st[5:10] = rng.integers(0, TOP // 4, size=5)
    end[5:10] = rng.integers(3 * TOP // 4, TOP, size=5)  # long spanners
    end[10:15] = st[10:15]  # points
    return QueryBatch(st, end)


# --------------------------------------------------------------------- #
# differential: sharded == single index
# --------------------------------------------------------------------- #


class TestDifferential:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("boundaries", ["equal", "balanced"])
    def test_all_strategies_all_modes(self, collection, index, k, boundaries):
        rng = np.random.default_rng(k * 31 + (boundaries == "balanced"))
        batch = spanning_batch(rng, 120)
        sharded = ShardedHint(collection, k=k, m=M, boundaries=boundaries)
        naive = oracle_result(collection, batch, M)
        for strategy in STRATEGIES:
            for mode in ("count", "checksum", "ids"):
                expected = run_strategy(strategy, index, batch, mode=mode)
                got = sharded.execute(batch, strategy=strategy, mode=mode)
                assert got == expected, (k, boundaries, strategy, mode)
                assert_flat_oracle(got, naive)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_empty_shards(self, clustered, k):
        rng = np.random.default_rng(9)
        batch = spanning_batch(rng, 80)
        single = HintIndex(clustered, m=M)
        sharded = ShardedHint(clustered, k=k, m=M)
        # the clustered layout must actually leave shards empty
        assert any(len(s.index) == 0 for s in sharded.shards)
        for mode in ("count", "checksum", "ids"):
            assert sharded.execute(batch, mode=mode) == run_strategy(
                "partition-based", single, batch, mode=mode
            )

    def test_matches_naive_oracle(self, collection):
        rng = np.random.default_rng(5)
        batch = spanning_batch(rng, 60)
        sharded = ShardedHint(collection, k=4, m=M)
        expected = NaiveScan(collection).batch(
            batch.clipped(0, TOP), mode="ids"
        )
        assert sharded.execute(batch, mode="ids") == expected

    def test_caller_order_preserved(self, collection, index):
        st = np.array([500, 20, 800, 5, 300, 5])
        batch = QueryBatch(st, np.minimum(st + 99, TOP))
        sharded = ShardedHint(collection, k=4, m=M)
        expected = run_strategy("partition-based", index, batch)
        assert sharded.execute(batch).counts.tolist() == (
            expected.counts.tolist()
        )

    def test_explicit_cuts(self, collection, index):
        cuts = [0, 100, 700, 1 << M]
        sharded = ShardedHint(collection, k=3, m=M, boundaries=cuts)
        rng = np.random.default_rng(11)
        batch = spanning_batch(rng, 50)
        for mode in ("count", "checksum", "ids"):
            assert sharded.execute(batch, mode=mode) == run_strategy(
                "partition-based", index, batch, mode=mode
            )

    def test_runs_inline_unless_given_an_executor(self, collection, index):
        """The index owns no pool: ``execute`` starts no thread, and an
        explicit ``executor=`` is where the shard jobs then run."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(21)
        sharded = ShardedHint(collection, k=4, m=M)
        before = set(threading.enumerate())
        for _ in range(20):
            batch = spanning_batch(rng, 64)
            assert sharded.execute(batch, mode="ids") == run_strategy(
                "partition-based", index, batch, mode="ids"
            )
            assert not set(threading.enumerate()) - before  # none started
        assert not hasattr(sharded, "workers")

        ran_on = set()

        def spy(strategy, shard_index, sub, *, mode):
            ran_on.add(threading.current_thread().name)
            return run_strategy(strategy, shard_index, sub, mode=mode)

        batch = spanning_batch(rng, 64)
        expected = run_strategy("partition-based", index, batch, mode="ids")
        with ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="test-shard-pool"
        ) as pool:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sharded_mod, "run_strategy", spy)
                got = sharded.execute(batch, mode="ids", executor=pool)
        assert got == expected
        assert ran_on and all(t.startswith("test-shard-pool") for t in ran_on)


# --------------------------------------------------------------------- #
# surface contract
# --------------------------------------------------------------------- #


class TestSurface:
    def test_empty_batch_mode_correct(self, collection):
        sharded = ShardedHint(collection, k=2, m=M)
        for mode in ("count", "checksum", "ids"):
            result = sharded.execute(QueryBatch([], []), mode=mode)
            assert len(result) == 0
            assert result.mode == mode

    def test_single_query_helpers(self, collection):
        sharded = ShardedHint(collection, k=4, m=M)
        naive = NaiveScan(collection)
        for q_st, q_end in ((0, TOP), (100, 600), (511, 513)):
            assert sharded.query_count(q_st, q_end) == len(
                naive.query(q_st, q_end)
            )
            assert set(sharded.query(q_st, q_end).tolist()) == set(
                naive.query(q_st, q_end).tolist()
            )

    def test_invalid_inputs(self, collection):
        with pytest.raises(ValueError, match="k must be positive"):
            ShardedHint(collection, k=0, m=M)
        with pytest.raises(ValueError, match="boundary policy"):
            ShardedHint(collection, k=2, m=M, boundaries="bogus")
        with pytest.raises(ValueError, match="cut points"):
            ShardedHint(collection, k=2, m=M, boundaries=[0, 1 << M])
        with pytest.raises(ValueError, match="strictly increasing"):
            ShardedHint(collection, k=2, m=M, boundaries=[0, 0, 1 << M])
        sharded = ShardedHint(collection, k=2, m=M)
        with pytest.raises(ValueError, match="unknown strategy"):
            sharded.execute(QueryBatch([0], [1]), strategy="bogus")
        with pytest.raises(ValueError, match="result mode"):
            sharded.execute(QueryBatch([0], [1]), mode="bogus")

    def test_introspection(self, collection):
        sharded = ShardedHint(collection, k=4, m=M)
        assert len(sharded) == len(collection)
        assert sharded.domain == (0, TOP)
        assert sharded.boundaries.tolist()[0] == 0
        assert sharded.boundaries.tolist()[-1] == 1 << M
        hist = sharded.shard_histogram()
        assert sum(orig for orig, _ in hist.values()) == len(collection)
        assert sharded.num_placements() >= len(collection)
        assert sharded.replication_factor() >= 1.0
        assert sharded.nbytes() > 0
        assert "ShardedHint" in repr(sharded)

    def test_shard_of_routing(self, collection):
        sharded = ShardedHint(collection, k=4, m=M)
        cuts = sharded.cuts
        for j in range(4):
            assert sharded.shard_of(int(cuts[j])) == j
            assert sharded.shard_of(int(cuts[j + 1]) - 1) == j


# --------------------------------------------------------------------- #
# verify + persist
# --------------------------------------------------------------------- #


class TestVerify:
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_invariants_pass(self, collection, k):
        sharded = ShardedHint(collection, k=k, m=M)
        report = verify_index(sharded, collection=collection, deep=True)
        assert report.checks > 0

    def test_debug_checks_build(self, collection):
        ShardedHint(collection, k=2, m=M, debug_checks=True)

    def test_doctored_replicas_caught(self, collection):
        sharded = ShardedHint(collection, k=4, m=M)
        target = next(
            s for s in sharded.shards if s.rep_ids.size
        )
        target.rep_ids = target.rep_ids.copy()
        target.rep_ids[0] += 1
        with pytest.raises(InvariantViolation):
            verify_index(sharded, collection=collection)


class TestPersist:
    def test_round_trip_exact(self, collection, index, tmp_path):
        sharded = ShardedHint(collection, k=4, m=M)
        save_sharded(sharded, tmp_path / "sharded")
        loaded = load_sharded(tmp_path / "sharded")
        assert loaded.k == 4 and loaded.m == M
        assert loaded.cuts.tolist() == sharded.cuts.tolist()
        rng = np.random.default_rng(13)
        batch = spanning_batch(rng, 50)
        for mode in ("count", "checksum", "ids"):
            assert loaded.execute(batch, mode=mode) == run_strategy(
                "partition-based", index, batch, mode=mode
            )
        assert verify_index(loaded, collection=collection).checks > 0

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_sharded(tmp_path)

    def test_bad_version(self, collection, tmp_path):
        sharded = ShardedHint(collection, k=2, m=M)
        save_sharded(sharded, tmp_path / "s")
        manifest = tmp_path / "s" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["format_version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_sharded(tmp_path / "s")

    def test_missing_shard_archive(self, collection, tmp_path):
        sharded = ShardedHint(collection, k=2, m=M)
        save_sharded(sharded, tmp_path / "s")
        (tmp_path / "s" / "shard-001.npz").unlink()
        with pytest.raises(ValueError, match="shard-001"):
            load_sharded(tmp_path / "s")

    def test_inconsistent_manifest(self, collection, tmp_path):
        sharded = ShardedHint(collection, k=2, m=M)
        save_sharded(sharded, tmp_path / "s")
        manifest = tmp_path / "s" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["k"] = 5
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="inconsistent"):
            load_sharded(tmp_path / "s")


# --------------------------------------------------------------------- #
# integrations: service swap, observability
# --------------------------------------------------------------------- #


class TestServiceIntegration:
    def test_swap_index_zero_call_site_changes(self, collection, index):
        """A sharded backend installed through ``swap_index`` serves the
        same single-query traffic — no service-side changes."""
        sharded = ShardedHint(collection, k=4, m=M)
        queries = [(0, TOP), (5, 120), (400, 900), (1000, 1020)]
        with BatchingQueryService(
            index, max_batch=1000, max_delay_ms=10_000_000
        ) as svc:
            before = [svc.submit(s, e) for s, e in queries]
            svc.flush()
            replaced = svc.swap_index(sharded)
            assert replaced is index
            after = [svc.submit(s, e) for s, e in queries]
            svc.flush()
            a = [f.result(timeout=30) for f in before]
            b = [f.result(timeout=30) for f in after]
        assert a == b == [index.query_count(s, e) for s, e in queries]


class TestObservability:
    def test_shard_series_recorded(self, collection):
        obs.configure(enabled=True)
        try:
            sharded = ShardedHint(collection, k=4, m=M)
            rng = np.random.default_rng(3)
            sharded.execute(spanning_batch(rng, 40))
            snap = obs.registry().snapshot()
            counters = {e["name"] for e in snap["counters"]}
            assert obs.SHARD_BATCHES in counters
            assert obs.SHARD_QUERIES in counters
            assert obs.SHARD_SPILL_QUERIES in counters
            histograms = {e["name"] for e in snap["histograms"]}
            assert obs.SHARD_BATCH_SECONDS in histograms
            spans = obs.recorder().spans("shard.execute")
            assert spans
        finally:
            obs.configure(enabled=False)

    def test_off_by_default_is_zero_cost(self, collection):
        # With the plane disabled there is no registry at all; execute
        # must not touch (or implicitly create) one.
        assert obs.active() is None
        sharded = ShardedHint(collection, k=2, m=M)
        rng = np.random.default_rng(4)
        sharded.execute(spanning_batch(rng, 10))
        assert obs.active() is None


# --------------------------------------------------------------------- #
# property-style sweep over random seeds (cheap, seeded, deterministic)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(4))
def test_random_workloads_exact(seed):
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(6, 11))
    top = (1 << m) - 1
    coll = random_collection(rng, int(rng.integers(0, 300)), top)
    k = int(rng.integers(1, 7))
    sharded = ShardedHint(coll, k=k, m=m)
    index = HintIndex(coll, m=m)
    batch = random_batch(rng, 40, top)
    for mode in ("count", "checksum", "ids"):
        assert sharded.execute(batch, mode=mode) == run_strategy(
            "partition-based", index, batch, mode=mode
        ), (seed, k, m, mode)
