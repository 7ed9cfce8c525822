"""Tests for the shared-memory process-parallel execution engine.

Four pillars:

* **differential** — every backend (serial / threads / processes /
  auto), both index kinds, all strategies × modes, against the
  sequential strategy oracle;
* **arena lifecycle** — zero orphaned ``/dev/shm`` segments after
  close, swap, double-close, GC, and worker crashes;
* **fault containment** — the ``engine.dispatch`` injection site and a
  SIGKILLed worker both degrade the engine to in-process execution
  (correct results, no hang), permanently;
* **service integration** — ``swap_index`` installs an engine
  unchanged and ``close_old=True`` unlinks its arena.

Process pools are kept small (2 workers) and collections modest: the
suite must stay tier-1 fast.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro import HintIndex, QueryBatch, run_strategy
from repro.core.result import BatchResult
from repro.engine import (
    BACKENDS,
    ExecutionEngine,
    SharedIndexArena,
    attach_index,
    list_arena_segments,
)
from repro.engine.worker import decode_result, encode_result, ping
from repro.shard import ShardedHint
from repro.verify.faults import SITE_DISPATCH, FaultPlan, InjectedFault
from tests.conftest import (
    assert_flat_oracle,
    oracle_result,
    random_batch,
    random_collection,
)

M = 12
TOP = (1 << M) - 1


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(20240601)
    coll = random_collection(rng, 2_000, TOP)
    batch = random_batch(rng, 300, TOP)
    return {
        "coll": coll,
        "hint": HintIndex(coll, m=M),
        "sharded": ShardedHint(coll, k=4, m=M),
        "batch": batch,
        "naive": oracle_result(coll, batch, M),
    }


def oracle(workload, strategy, mode):
    return run_strategy(strategy, workload["hint"], workload["batch"], mode=mode)


# --------------------------------------------------------------------- #
# arena pack / attach
# --------------------------------------------------------------------- #


class TestArena:
    def test_attach_round_trip_hint(self, workload):
        arena = SharedIndexArena(workload["hint"])
        try:
            attached, shm = attach_index(arena.manifest)
            for mode in ("count", "checksum", "ids"):
                got = run_strategy(
                    "partition-based", attached, workload["batch"], mode=mode
                )
                assert got == oracle(workload, "partition-based", mode)
            del attached
            shm.close()
        finally:
            arena.close()

    def test_attach_round_trip_sharded(self, workload):
        arena = SharedIndexArena(workload["sharded"])
        try:
            attached, shm = attach_index(arena.manifest)
            for mode in ("count", "checksum", "ids"):
                got = attached.execute(
                    workload["batch"], strategy="partition-based", mode=mode
                )
                assert got == oracle(workload, "partition-based", mode)
            del attached
            shm.close()
        finally:
            arena.close()

    def test_attach_subset_of_shards(self, workload):
        arena = SharedIndexArena(workload["sharded"])
        try:
            shards, shm = attach_index(arena.manifest, shards=[1, 3])
            assert shards[0] is None and shards[2] is None
            assert shards[1] is not None and shards[3] is not None
            orig = workload["sharded"].shards[1]
            assert np.array_equal(shards[1].rep_ids, orig.rep_ids)
            assert len(shards[1].index) == len(orig.index)
            del shards
            shm.close()
        finally:
            arena.close()

    def test_attach_is_zero_copy(self, workload):
        """Attached arrays are views over the one shared segment."""
        arena = SharedIndexArena(workload["hint"])
        try:
            attached, shm = attach_index(arena.manifest)
            table = attached.levels[0].o_in
            base = table.ids
            while isinstance(base.base, np.ndarray):
                base = base.base
            assert base.base is shm.buf.obj or base.nbytes == arena.nbytes
            assert not table.ids.flags.writeable
            del attached, table, base
            shm.close()
        finally:
            arena.close()

    def test_xor_prefix_prebaked(self, workload):
        """No worker ever pays the lazy aux build: packed eagerly."""
        arena = SharedIndexArena(workload["hint"])
        try:
            attached, shm = attach_index(arena.manifest)
            for data in attached.levels:
                for table in data.tables():
                    assert table._xor_prefix is not None
            del attached
            shm.close()
        finally:
            arena.close()

    def test_manifest_is_plain_data(self, workload):
        import pickle

        arena = SharedIndexArena(workload["hint"])
        try:
            clone = pickle.loads(pickle.dumps(arena.manifest))
            assert clone == arena.manifest
        finally:
            arena.close()

    def test_refcounting(self, workload):
        before = list_arena_segments()
        arena = SharedIndexArena(workload["hint"])
        assert len(list_arena_segments()) == len(before) + 1
        arena.addref()
        assert arena.release() is False  # one owner remains
        assert not arena.closed
        assert arena.release() is True  # last one unlinks
        assert arena.closed
        assert arena.release() is False  # extra releases are no-ops
        assert list_arena_segments() == before
        with pytest.raises(RuntimeError):
            arena.addref()

    def test_gc_backstop_unlinks(self, workload):
        import gc

        before = list_arena_segments()
        arena = SharedIndexArena(workload["hint"])
        assert len(list_arena_segments()) == len(before) + 1
        del arena
        gc.collect()
        assert list_arena_segments() == before

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            SharedIndexArena([1, 2, 3])

    def test_rejects_unknown_manifest_version(self, workload):
        arena = SharedIndexArena(workload["hint"])
        try:
            bad = dict(arena.manifest, version=99)
            with pytest.raises(ValueError, match="version"):
                attach_index(bad)
        finally:
            arena.close()


class TestResultEncoding:
    @pytest.mark.parametrize("mode", ["count", "checksum", "ids"])
    def test_round_trip(self, workload, mode):
        result = oracle(workload, "partition-based", mode)
        decoded = decode_result(encode_result(result, mode), mode)
        assert decoded == result
        assert_flat_oracle(decoded, workload["naive"])

    def test_empty_ids(self):
        empty = BatchResult.empty("ids")
        assert decode_result(encode_result(empty, "ids"), "ids") == empty


# --------------------------------------------------------------------- #
# differential: every backend vs the sequential oracle
# --------------------------------------------------------------------- #


class TestEngineDifferential:
    @pytest.fixture(scope="class")
    def engines(self, workload):
        with ExecutionEngine(
            workload["hint"], backend="processes", workers=2
        ) as hint_engine, ExecutionEngine(
            workload["sharded"], backend="processes", workers=2
        ) as sharded_engine:
            yield {"hint": hint_engine, "sharded": sharded_engine}

    #: every strategy on the interpreted backends, plus the one strategy
    #: the compiled runner does not hand back to them
    CELLS = [
        (backend, strategy)
        for backend in ("serial", "threads", "processes")
        for strategy in ("partition-based", "query-based", "level-based")
    ] + [("threads+compiled", "partition-based")]

    @pytest.mark.parametrize("kind", ["hint", "sharded"])
    @pytest.mark.parametrize(
        "backend, strategy", CELLS, ids=[f"{s}-{b}" for b, s in CELLS]
    )
    @pytest.mark.parametrize("mode", ["count", "checksum", "ids"])
    def test_matches_oracle(self, workload, engines, kind, backend, strategy, mode):
        got = engines[kind].execute(
            workload["batch"], strategy=strategy, mode=mode, backend=backend
        )
        assert got == oracle(workload, strategy, mode)
        assert_flat_oracle(got, workload["naive"])

    @pytest.mark.parametrize("kind", ["hint", "sharded"])
    def test_empty_batch_honours_mode(self, engines, kind):
        empty = QueryBatch([], [])
        for mode in ("count", "checksum", "ids"):
            assert engines[kind].execute(empty, mode=mode).mode == mode

    @pytest.mark.parametrize("kind", ["hint", "sharded"])
    def test_unsorted_batch_caller_order(self, workload, engines, kind):
        st = np.array([3000, 10, 2000, 500, 10], dtype=np.int64)
        batch = QueryBatch(st, np.minimum(st + 300, TOP))
        want = run_strategy("partition-based", workload["hint"], batch, mode="ids")
        got = engines[kind].execute(batch, mode="ids", backend="processes")
        assert got == want

    def test_no_affinity_pool_matches(self, workload):
        with ExecutionEngine(
            workload["sharded"],
            backend="processes",
            workers=2,
            shard_affinity=False,
        ) as engine:
            for mode in ("count", "checksum", "ids"):
                got = engine.execute(workload["batch"], mode=mode)
                assert got == oracle(workload, "partition-based", mode)

    def test_rejects_bad_arguments(self, workload, engines):
        with pytest.raises(ValueError, match="strategy"):
            engines["hint"].execute(workload["batch"], strategy="bogus")
        with pytest.raises(ValueError, match="mode"):
            engines["hint"].execute(workload["batch"], mode="bogus")
        with pytest.raises(ValueError, match="backend"):
            engines["hint"].execute(workload["batch"], backend="bogus")
        with pytest.raises(ValueError, match="backend"):
            ExecutionEngine(workload["hint"], backend="bogus")
        with pytest.raises(TypeError):
            ExecutionEngine(object())


class TestAutoPolicy:
    def test_small_batches_run_serial(self, workload):
        with ExecutionEngine(workload["hint"], backend="auto") as engine:
            small = QueryBatch([5], [50])
            assert engine._choose(len(small), "query-based", "ids", None) == "serial"

    def test_single_core_machine_never_parallelizes(self, workload):
        with ExecutionEngine(workload["hint"], backend="auto") as engine:
            engine._cpus = 1
            for strategy in ("partition-based", "query-based"):
                for mode in ("count", "ids"):
                    assert engine._choose(100_000, strategy, mode, None) == "serial"
            assert not engine.processes_available  # infra never started

    def test_multi_core_routes_gil_bound_work_to_processes(self, workload):
        with ExecutionEngine(
            workload["hint"], backend="auto", workers=2
        ) as engine:
            engine._cpus = 8  # pretend; _choose only reads the count
            assert (
                engine._choose(5_000, "query-based", "count", None) == "processes"
            )
            assert engine._choose(5_000, "partition-based", "ids", None) == "processes"
            # vectorized count path: threads once large enough
            assert engine._choose(5_000, "partition-based", "count", None) == "threads"
            assert engine._choose(500, "partition-based", "count", None) == "serial"

    @pytest.mark.parametrize("spelling", ["auto", "auto-static"])
    def test_auto_is_the_static_rule_and_never_drifts(self, workload, spelling):
        """``auto`` resolves exactly ``static_backend_choice`` — before
        and after the engine has executed batches on other backends (no
        ledger learns from them) — and the pre-planner ``auto-static``
        spelling is the same backend."""
        from repro.planner.policy import static_backend_choice

        table = [
            (n, strategy, mode)
            for n in (1, 127, 128, 511, 512, 2047, 2048, 50_000)
            for strategy in ("partition-based", "query-based", "join-based")
            for mode in ("count", "checksum", "ids")
        ]
        with ExecutionEngine(
            workload["hint"], backend=spelling, workers=2
        ) as engine:
            assert engine.backend == "auto"

            def resolved():
                return [engine._choose(n, s, m, None) for n, s, m in table]

            rule = [
                static_backend_choice(
                    n, s, m, cpus=engine._cpus,
                    processes_up=engine._processes_up,
                )
                for n, s, m in table
            ]
            assert resolved() == rule
            expected = oracle(workload, "partition-based", "count")
            for i in range(50):
                forced = ("serial", "threads", "compiled", "auto")[i % 4]
                assert engine.execute(workload["batch"], backend=forced) == expected
            assert resolved() == rule
            assert not hasattr(engine, "backend_policy")
        assert list_arena_segments() == []

    def test_override_beats_configured_backend(self, workload):
        with ExecutionEngine(workload["hint"], backend="serial") as engine:
            got = engine.execute(workload["batch"], backend="threads")
            assert got == oracle(workload, "partition-based", "count")


# --------------------------------------------------------------------- #
# lifecycle: no leaked segments, ever
# --------------------------------------------------------------------- #


class TestArenaLifecycle:
    def test_no_orphans_after_close(self, workload):
        before = list_arena_segments()
        engine = ExecutionEngine(workload["hint"], backend="processes", workers=2)
        assert len(list_arena_segments()) == len(before) + 1
        engine.execute(workload["batch"])
        engine.close()
        assert list_arena_segments() == before
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.execute(workload["batch"])

    def test_no_orphans_after_worker_crash(self, workload):
        before = list_arena_segments()
        engine = ExecutionEngine(workload["hint"], backend="processes", workers=2)
        pid = engine._pools[0].submit(ping).result()
        os.kill(pid, signal.SIGKILL)
        result = engine.execute(workload["batch"])  # degrades, still answers
        assert result == oracle(workload, "partition-based", "count")
        engine.close()
        assert list_arena_segments() == before

    def test_no_orphans_after_service_swap(self, workload):
        from repro.service import BatchingQueryService

        before = list_arena_segments()
        engine = ExecutionEngine(workload["hint"], backend="processes", workers=2)
        with BatchingQueryService(
            workload["hint"], max_batch=8, max_delay_ms=5
        ) as service:
            service.swap_index(engine)
            futures = [service.submit(i * 10, i * 10 + 100) for i in range(16)]
            for future in futures:
                future.result(timeout=30)
            old = service.swap_index(workload["hint"], close_old=True)
            assert old is engine
            assert engine.closed
            assert list_arena_segments() == before

    def test_swap_without_close_old_leaves_engine_running(self, workload):
        from repro.service import BatchingQueryService

        engine = ExecutionEngine(workload["hint"], backend="serial")
        try:
            with BatchingQueryService(workload["hint"]) as service:
                service.swap_index(engine)
                old = service.swap_index(workload["hint"])
                assert old is engine and not engine.closed
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# fault containment
# --------------------------------------------------------------------- #


class TestDispatchFaults:
    def test_injected_dispatch_fault_degrades_not_fails(self, workload):
        plan = FaultPlan.once(SITE_DISPATCH)
        before = list_arena_segments()
        with ExecutionEngine(
            workload["hint"], backend="processes", workers=2, fault_plan=plan
        ) as engine:
            result = engine.execute(workload["batch"], mode="checksum")
            assert result == oracle(workload, "partition-based", "checksum")
            assert plan.hits(SITE_DISPATCH) == 1
            assert not engine.processes_available  # permanently degraded
            again = engine.execute(workload["batch"], mode="checksum")
            assert again == oracle(workload, "partition-based", "checksum")
            # the degraded path no longer passes the dispatch site
            assert plan.passes(SITE_DISPATCH) == 1
        assert list_arena_segments() == before

    def test_sharded_worker_crash_degrades(self, workload):
        before = list_arena_segments()
        with ExecutionEngine(
            workload["sharded"], backend="processes", workers=2
        ) as engine:
            for pool in engine._pools:
                os.kill(pool.submit(ping).result(), signal.SIGKILL)
            result = engine.execute(workload["batch"], mode="ids")
            assert result == oracle(workload, "partition-based", "ids")
            assert not engine.processes_available
        assert list_arena_segments() == before

    def test_service_keeps_serving_through_dispatch_fault(self, workload):
        """End to end: a fault plan kills the first process dispatch under
        live service traffic; every future still resolves correctly."""
        from repro.service import BatchingQueryService

        plan = FaultPlan.once(SITE_DISPATCH)
        engine = ExecutionEngine(
            workload["hint"], backend="processes", workers=2, fault_plan=plan
        )
        with BatchingQueryService(
            engine, max_batch=16, max_delay_ms=5
        ) as service:
            futures = [service.submit(i * 7, i * 7 + 200) for i in range(48)]
            naive = [
                int(
                    run_strategy(
                        "partition-based",
                        workload["hint"],
                        QueryBatch([i * 7], [i * 7 + 200]),
                    ).counts[0]
                )
                for i in range(48)
            ]
            assert [f.result(timeout=30) for f in futures] == naive
        engine.close()
        assert plan.hits(SITE_DISPATCH) == 1


# --------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------- #


class TestEngineObservability:
    def test_engine_series_and_spans(self, workload):
        import repro.obs as obs

        obs.configure(enabled=True)
        try:
            with ExecutionEngine(workload["hint"], backend="serial") as engine:
                engine.execute(workload["batch"])
            snap = obs.snapshot()
            counters = {
                (c["name"], tuple(sorted(c["labels"].items())))
                for c in snap["metrics"]["counters"]
            }
            assert (
                obs.ENGINE_BATCHES,
                (("backend", "serial"),),
            ) in counters
            assert any(
                h["name"] == obs.ENGINE_BATCH_SECONDS
                for h in snap["metrics"]["histograms"]
            )
            assert any(
                sp["name"] == "engine.execute" for sp in snap["spans"]["recent"]
            )
        finally:
            obs.configure(enabled=False)

    def test_arena_gauges_return_to_zero(self, workload):
        import repro.obs as obs

        obs.configure(enabled=True)
        try:
            engine = ExecutionEngine(
                workload["hint"], backend="processes", workers=2
            )
            gauges = {
                g["name"]: g["value"]
                for g in obs.snapshot()["metrics"]["gauges"]
            }
            assert gauges[obs.ENGINE_ARENA_SEGMENTS] == 1
            assert gauges[obs.ENGINE_ARENA_BYTES] > 0
            engine.close()
            gauges = {
                g["name"]: g["value"]
                for g in obs.snapshot()["metrics"]["gauges"]
            }
            assert gauges[obs.ENGINE_ARENA_SEGMENTS] == 0
            assert gauges[obs.ENGINE_ARENA_BYTES] == 0
        finally:
            obs.configure(enabled=False)

    def test_fallback_counter(self, workload):
        import repro.obs as obs

        obs.configure(enabled=True)
        try:
            plan = FaultPlan.once(SITE_DISPATCH)
            with ExecutionEngine(
                workload["hint"], backend="processes", workers=2, fault_plan=plan
            ) as engine:
                engine.execute(workload["batch"])
            counters = {
                (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                for c in obs.snapshot()["metrics"]["counters"]
            }
            assert (
                counters[
                    (obs.ENGINE_FALLBACKS, (("reason", "InjectedFault"),))
                ]
                == 1
            )
        finally:
            obs.configure(enabled=False)


def test_backends_constant_is_exported():
    assert set(BACKENDS) == {
        "auto",
        "serial",
        "threads",
        "processes",
        "compiled",
        "threads+compiled",
    }


# --------------------------------------------------------------------- #
# pool probation (bounded rebuild after a failure)
# --------------------------------------------------------------------- #


class TestPoolProbation:
    def test_pool_rebuilds_after_probation(self, workload):
        """One pool failure is not permanent: after ``probation_batches``
        clean batches the pool is rebuilt and dispatch resumes."""
        plan = FaultPlan.once(SITE_DISPATCH)
        with ExecutionEngine(
            workload["hint"],
            backend="processes",
            workers=2,
            fault_plan=plan,
            probation_batches=2,
        ) as engine:
            first = engine.execute(workload["batch"], mode="checksum")
            assert first == oracle(workload, "partition-based", "checksum")
            assert not engine.processes_available
            # Two clean in-process batches end the probation window...
            for _ in range(2):
                engine.execute(workload["batch"], mode="checksum")
            assert plan.passes(SITE_DISPATCH) == 1  # no dispatch meanwhile
            # ...so the next processes-backend batch rebuilds the pool
            # and goes back through the dispatch site.
            again = engine.execute(workload["batch"], mode="checksum")
            assert again == oracle(workload, "partition-based", "checksum")
            assert engine.processes_available
            assert plan.passes(SITE_DISPATCH) == 2
            assert plan.hits(SITE_DISPATCH) == 1
        assert list_arena_segments() == []

    def test_pool_gives_up_after_max_failures(self, workload):
        """``max_pool_failures`` consecutive failures abandon the backend
        for good — no rebuild however many clean batches follow."""
        from repro.verify.faults import FaultRule

        plan = FaultPlan(FaultRule(site=SITE_DISPATCH, times=None))
        with ExecutionEngine(
            workload["hint"],
            backend="processes",
            workers=2,
            fault_plan=plan,
            probation_batches=1,
            max_pool_failures=2,
        ) as engine:
            expected = oracle(workload, "partition-based", "checksum")
            # First failure -> probation; one clean batch re-arms; second
            # failure -> permanently broken.
            for _ in range(4):
                assert (
                    engine.execute(workload["batch"], mode="checksum")
                    == expected
                )
            assert plan.hits(SITE_DISPATCH) == 2
            assert not engine.processes_available
            passes = plan.passes(SITE_DISPATCH)
            # Broken means no more dispatch-site visits, ever.
            for _ in range(3):
                engine.execute(workload["batch"], mode="checksum")
            assert plan.passes(SITE_DISPATCH) == passes
        assert list_arena_segments() == []
