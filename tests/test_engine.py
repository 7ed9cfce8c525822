"""Tests for the backend-selecting execution engine.

Three pillars:

* **differential** — every backend (serial / threads / auto), both
  index kinds, all strategies × modes, against the sequential strategy
  oracle;
* **the auto rule** — ``auto`` resolves to ``serial`` for every batch;
* **lifecycle** — ``close()`` drains and joins the pool threads, and
  ``swap_index(..., close_old=True)`` leaves no ``repro-engine`` thread.

Pools are kept small (2 workers) and collections modest: the suite must
stay tier-1 fast.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import HintIndex, QueryBatch, run_strategy
from repro.engine import BACKENDS, ExecutionEngine
from repro.shard import ShardedHint
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
# differential: every backend vs the sequential oracle
# --------------------------------------------------------------------- #


class TestEngineDifferential:
    @pytest.fixture(scope="class")
    def engines(self, workload):
        with ExecutionEngine(
            workload["hint"], backend="threads", workers=2
        ) as hint_engine, ExecutionEngine(
            workload["sharded"], backend="threads", workers=2
        ) as sharded_engine:
            yield {"hint": hint_engine, "sharded": sharded_engine}

    CELLS = [
        (backend, strategy)
        for backend in ("serial", "threads")
        for strategy in ("partition-based", "query-based", "level-based")
    ]

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
        got = engines[kind].execute(batch, mode="ids", backend="threads")
        assert got == want

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

    def test_process_backend_is_gone(self, workload):
        """``processes`` is no longer a backend, and the process pool's
        constructor arguments are no longer accepted."""
        with pytest.raises(ValueError) as err:
            ExecutionEngine(workload["hint"], backend="processes")
        for name in BACKENDS:
            assert repr(name) in str(err.value)
        with pytest.raises(TypeError, match="mp_context"):
            ExecutionEngine(workload["hint"], mp_context="fork")


def _resolved(engine, batch, **kwargs):
    """The backend an engine batch ran on, read off its engine series."""
    import repro.obs as obs

    obs.configure(enabled=True)
    try:
        engine.execute(batch, **kwargs)
        return {
            c["labels"]["backend"]
            for c in obs.snapshot()["metrics"]["counters"]
            if c["name"] == obs.ENGINE_BATCHES
        }
    finally:
        obs.configure(enabled=False)


class TestAutoPolicy:
    def test_small_batches_run_serial(self, workload):
        with ExecutionEngine(workload["hint"], backend="auto") as engine:
            small = QueryBatch([5], [50])
            assert _resolved(engine, small, strategy="query-based", mode="ids") == {
                "serial"
            }

    def test_single_core_machine_never_parallelizes(self, workload):
        with ExecutionEngine(workload["hint"], backend="auto", workers=1) as engine:
            for strategy in ("partition-based", "query-based"):
                for mode in ("count", "ids"):
                    engine.execute(workload["batch"], strategy=strategy, mode=mode)
            assert engine._thread_pool is None  # pool never started

    def test_multi_core_routes_gil_bound_work(self, workload):
        """Serial for every strategy and mode: a Python-loop strategy
        gains nothing from threads, and the id-run gathers and the
        folded count leave a thread nothing worth its hand-off."""
        with ExecutionEngine(
            workload["hint"], backend="auto", workers=2
        ) as engine:
            for strategy, mode in (
                ("query-based", "count"),
                ("join-based", "ids"),
                ("partition-based", "ids"),
                ("partition-based", "count"),
            ):
                assert _resolved(
                    engine, workload["batch"], strategy=strategy, mode=mode
                ) == {"serial"}
            assert engine._thread_pool is None

    @pytest.mark.parametrize("spelling", ["auto", "auto-static"])
    def test_auto_is_the_static_rule_and_never_drifts(self, workload, spelling):
        """``auto`` resolves to ``serial`` — before and after the engine
        has executed batches on other backends (no ledger learns from
        them) — and the pre-planner ``auto-static`` spelling, which the
        benchmark's stacks construct with, is the same backend."""
        with ExecutionEngine(
            workload["hint"], backend=spelling, workers=2
        ) as engine:
            assert engine.backend == "auto"
            assert engine._choose(None) == "serial"
            expected = oracle(workload, "partition-based", "count")
            for i in range(30):
                forced = ("serial", "threads", "auto")[i % 3]
                assert engine.execute(workload["batch"], backend=forced) == expected
            assert engine._choose(None) == "serial"
            assert not hasattr(engine, "backend_policy")

    def test_override_beats_configured_backend(self, workload):
        with ExecutionEngine(workload["hint"], backend="serial") as engine:
            got = engine.execute(workload["batch"], backend="threads")
            assert got == oracle(workload, "partition-based", "count")


# --------------------------------------------------------------------- #
# lifecycle: no thread outlives its engine
# --------------------------------------------------------------------- #


def _engine_threads():
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-engine")
    }


class TestEngineLifecycle:
    def test_no_orphans_after_close(self, workload):
        before = _engine_threads()
        engine = ExecutionEngine(workload["hint"], backend="threads", workers=2)
        engine.execute(workload["batch"])
        assert _engine_threads() - before  # the pool is running
        engine.close()
        assert _engine_threads() <= before
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            engine.execute(workload["batch"])

    def test_no_orphans_after_service_swap(self, workload):
        from repro.service import BatchingQueryService

        before = _engine_threads()
        engine = ExecutionEngine(workload["hint"], backend="threads", workers=2)
        with BatchingQueryService(
            workload["hint"], max_batch=8, max_delay_ms=5
        ) as service:
            service.swap_index(engine)
            futures = [service.submit(i * 10, i * 10 + 100) for i in range(16)]
            for future in futures:
                future.result(timeout=30)
            assert _engine_threads() - before  # flushes ran on the pool
            old = service.swap_index(workload["hint"], close_old=True)
            assert old is engine
            assert engine.closed
            assert _engine_threads() <= before

    def test_swap_without_close_old_leaves_engine_running(self, workload):
        from repro.service import BatchingQueryService

        engine = ExecutionEngine(workload["hint"], backend="threads", workers=2)
        try:
            with BatchingQueryService(workload["hint"]) as service:
                service.swap_index(engine)
                old = service.swap_index(workload["hint"])
                assert old is engine and not engine.closed
            got = engine.execute(workload["batch"])
            assert got == oracle(workload, "partition-based", "count")
        finally:
            engine.close()


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


def test_backends_constant_is_exported():
    assert BACKENDS == ("auto", "serial", "threads")


def test_compiled_backend_is_gone(workload):
    """The compiled twins ran what ``serial``/``threads`` run; naming one
    now is an error that lists the three legal backends."""
    with pytest.raises(ValueError) as err:
        ExecutionEngine(workload["hint"], backend="compiled")
    for name in BACKENDS:
        assert repr(name) in str(err.value)
    with ExecutionEngine(workload["hint"]) as engine:
        with pytest.raises(ValueError, match="backend"):
            engine.execute(workload["batch"], backend="compiled")
