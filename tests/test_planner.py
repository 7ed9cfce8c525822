"""Unit tests for :class:`repro.planner.PlannedExecutor`.

The executor chooses nothing: each batch is one engine call with the
caller's strategy, mode and backend, and construction builds nothing.
"""

from __future__ import annotations

import pytest

import repro.engine.engine as engine_module
import repro.shard.sharded as sharded_module
from repro.core.strategies import STRATEGIES
from repro.engine import ExecutionEngine
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.planner import PlannedExecutor
from repro.shard import ShardedHint
from tests.conftest import random_collection


def _uniform_batch(rng, n, extent, top=1023):
    st = rng.integers(0, top - extent, size=n)
    return QueryBatch(st, st + extent)


@pytest.fixture
def small_hint(rng):
    index = HintIndex(random_collection(rng, 400, 1023), m=10)
    index.precompute_aux()
    return index


class TestPlannedExecutor:
    def test_nothing_is_probed_or_written_at_start_up(
        self, small_hint, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        PlannedExecutor(small_hint).close()
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(TypeError):
            PlannedExecutor(small_hint, calibrate=True)

    def test_construction_builds_no_join_input(self, rng, monkeypatch):
        """The raw collection only a join-based batch reads is left to
        the first such batch: constructing the executor builds nothing."""
        coll = random_collection(rng, 400, 1023)
        indexes = (HintIndex(coll, m=10), ShardedHint(coll, k=2, m=10))
        calls = []
        monkeypatch.setattr(
            HintIndex, "as_collection", lambda index: calls.append(index)
        )
        for index in indexes:
            PlannedExecutor(index).close()
        assert calls == []

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_the_callers_strategy_runs(self, rng, monkeypatch, strategy):
        """The strategy the caller names is the one evaluated, on a single
        and on a sharded index, in one engine call per batch."""
        coll = random_collection(rng, 400, 1023)
        for module, index in (
            (engine_module, HintIndex(coll, m=10)),
            (sharded_module, ShardedHint(coll, k=2, m=10)),
        ):
            ran = []
            real = module.run_strategy

            def spy(name, *args, real=real, **kwargs):
                ran.append(name)
                return real(name, *args, **kwargs)

            monkeypatch.setattr(module, "run_strategy", spy)
            with PlannedExecutor(index) as px:
                engine_calls = []
                real_execute = px.engine.execute

                def counted(*args, **kwargs):
                    engine_calls.append(kwargs)
                    return real_execute(*args, **kwargs)

                monkeypatch.setattr(px.engine, "execute", counted)
                px.execute(_uniform_batch(rng, 64, 8), strategy=strategy, mode="count")
            assert ran and set(ran) == {strategy}, type(index).__name__
            assert engine_calls == [
                {"strategy": strategy, "mode": "count", "backend": None}
            ]

    def test_engine_options_beside_an_engine_are_a_type_error(self, small_hint):
        """Options for an engine the executor does not build are not
        silently dropped (the removed calibration arguments included)."""
        with ExecutionEngine(small_hint, backend="auto") as engine:
            for kwargs in ({"calibrate": True}, {"model_path": None}, {"workers": 2}):
                with pytest.raises(TypeError):
                    PlannedExecutor(small_hint, engine=engine, **kwargs)
            PlannedExecutor(small_hint, engine=engine).close()
            assert engine.execute(QueryBatch([1], [5]), mode="count") is not None

    def test_pinned_backend_bypasses_planner(self, small_hint, rng, monkeypatch):
        """A pinned ``backend=`` reaches the engine's dispatch as given."""
        seen = []
        real_run = ExecutionEngine._run

        def spy(engine, batch, strategy, mode, resolved):
            seen.append(resolved)
            return real_run(engine, batch, strategy, mode, resolved)

        monkeypatch.setattr(ExecutionEngine, "_run", spy)
        with PlannedExecutor(small_hint) as px:
            batch = _uniform_batch(rng, 32, 8)
            for backend in ("serial", "threads", None):
                px.execute(batch, mode="count", backend=backend)
        assert seen == ["serial", "threads", "serial"]

    def test_rejects_unknown_strategy_and_mode(self, small_hint, rng):
        px = PlannedExecutor(small_hint)
        try:
            batch = _uniform_batch(rng, 8, 8)
            with pytest.raises(ValueError, match="unknown strategy"):
                px.execute(batch, strategy="frobnicate", mode="count")
            with pytest.raises(ValueError, match="unknown result mode"):
                px.execute(batch, mode="frobnicate")
        finally:
            px.close()

    def test_empty_batch_short_circuits(self, small_hint):
        px = PlannedExecutor(small_hint)
        try:
            result = px.execute(QueryBatch([], []), mode="ids")
            assert len(result.counts) == 0
        finally:
            px.close()
