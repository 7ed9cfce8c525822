"""Differential tests: planner-chosen plans never change results.

Whatever the planner picks — prior, calibrated model, or an extent
split — the result must be bit-identical to every static plan, across
result modes and index kinds (single, sharded, dynamic-after-compact).
The fault leg proves the degradation contract: a planner that throws
mid-decide falls back to the engine's static ``auto`` rule and loses
no batch, bumping ``repro_planner_fallbacks_total``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.strategies import STRATEGIES, run_strategy
from repro.engine import ExecutionEngine
from repro.hint.dynamic import DynamicHint
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.planner import CostModel, Plan, PlannedExecutor, SplitPlan
from repro.planner.planner import Decision
from repro.shard import ShardedHint
from repro.verify.faults import SITE_PLANNER_DECIDE, FaultPlan, InjectedFault
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


def backends_under_test(collection, tmp_path):
    """(label, executor, owned) triples over every index kind."""
    single = HintIndex(collection, m=M)
    single.precompute_aux()
    sharded = ShardedHint(collection, k=2, m=M)
    dyn = DynamicHint(m=M, rebuild_threshold=10_000)
    for st, end, id_ in zip(collection.st, collection.end, collection.ids):
        dyn.insert(int(st), int(end), id=int(id_))
    dyn.compact()
    yield "HintIndex", PlannedExecutor(
        single, model_path=str(tmp_path / "single.json"), calibrate=True
    )
    yield "ShardedHint", PlannedExecutor(
        sharded, model_path=str(tmp_path / "sharded.json"), calibrate=True
    )
    yield "DynamicHint", PlannedExecutor(
        dyn.index, model_path=str(tmp_path / "dynamic.json"), calibrate=True
    )


class TestPlannerDifferential:
    def test_planned_equals_every_static_plan(
        self, rng, collection, reference, tmp_path
    ):
        batch = mixed_batch(rng)
        expected = {
            (strategy, mode): run_strategy(strategy, reference, batch, mode=mode)
            for strategy in STRATEGIES
            for mode in MODES
        }
        for label, px in backends_under_test(collection, tmp_path):
            try:
                for mode in MODES:
                    got = px.execute(batch, mode=mode)
                    for strategy in STRATEGIES:
                        assert got == expected[(strategy, mode)], (
                            f"{label}: planner [{mode}] != {strategy}"
                        )
            finally:
                px.close()

    def test_uncalibrated_prior_is_differential_too(
        self, rng, collection, reference, tmp_path
    ):
        batch = mixed_batch(rng)
        index = HintIndex(collection, m=M)
        index.precompute_aux()
        px = PlannedExecutor(index, model_path=str(tmp_path / "none.json"))
        try:
            assert not px.planner.model.calibrated
            for mode in MODES:
                got = px.execute(batch, mode=mode)
                assert px.last_decision.source == "prior"
                assert got == run_strategy(
                    "partition-based", reference, batch, mode=mode
                )
        finally:
            px.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_forced_split_is_differential(
        self, rng, collection, reference, tmp_path, mode
    ):
        """A hand-built SplitPlan (any threshold, different per-side
        backends) must merge back to exactly the unsplit result."""
        index = HintIndex(collection, m=M)
        index.precompute_aux()
        px = PlannedExecutor(
            index, model_path=str(tmp_path / "split.json"), calibrate=True
        )
        batch = mixed_batch(rng)
        want = run_strategy("partition-based", reference, batch, mode=mode)
        naive = oracle_result(collection, batch, M)
        try:
            for threshold in (0, 3, 100, 250):
                split = SplitPlan(
                    threshold=threshold,
                    narrow=Plan("partition-based", "compiled"),
                    wide=Plan("join-based", "serial"),
                )
                decision = Decision(
                    plan=split, mode=mode, source="model", n=len(batch)
                )
                got = px._execute_split(batch, decision, None)
                assert got == want, f"threshold={threshold}"
                assert_flat_oracle(got, naive)
        finally:
            px.close()

    def test_degenerate_split_falls_back_to_single(
        self, rng, collection, reference, tmp_path
    ):
        index = HintIndex(collection, m=M)
        index.precompute_aux()
        px = PlannedExecutor(
            index, model_path=str(tmp_path / "degen.json"), calibrate=True
        )
        batch = mixed_batch(rng)
        want = run_strategy("partition-based", reference, batch, mode="ids")
        try:
            # Threshold above every extent: the wide side is empty.
            split = SplitPlan(
                threshold=10_000,
                narrow=Plan("partition-based", "serial"),
                wide=Plan("join-based", "serial"),
            )
            decision = Decision(plan=split, mode="ids", source="model")
            assert px._execute_split(batch, decision, None) == want
        finally:
            px.close()


class TestDecisionPath:
    """The planner chooses, the engine executes: every batch reaches the
    engine's dispatch with the concrete backend its plan named."""

    @pytest.mark.parametrize("kind", ["HintIndex", "ShardedHint"])
    def test_engine_runs_the_backend_the_plan_named(
        self, rng, collection, tmp_path, monkeypatch, kind
    ):
        if kind == "HintIndex":
            index = HintIndex(collection, m=M)
        else:
            index = ShardedHint(collection, k=3, m=M)
        seen = []
        real_run = ExecutionEngine._run

        def spy(engine, batch, strategy, mode, resolved, executor):
            seen.append((strategy, resolved))
            return real_run(engine, batch, strategy, mode, resolved, executor)

        px = PlannedExecutor(
            index,
            model_path=str(tmp_path / "path.json"),
            calibrate=True,
            calibration_budget_s=30.0,  # a ceiling: every mode gets probed
        )
        monkeypatch.setattr(ExecutionEngine, "_run", spy)
        try:
            for mode in MODES:
                for _ in range(3):
                    batch = mixed_batch(rng)
                    got = px.execute(batch, mode=mode)
                    decision = px.last_decision
                    # 600 queries is no size the probe suite timed: the
                    # first batches of each mode are first-sight probes.
                    assert decision.source in ("model", "explore"), (kind, mode)
                    plans = (
                        [decision.plan.narrow, decision.plan.wide]
                        if decision.split
                        else [decision.plan]
                    )
                    assert seen[-len(plans):] == [
                        (p.strategy, p.backend) for p in plans
                    ]
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
            concrete = set(px.planner.caps.backends_for("partition-based"))
            assert {backend for _, backend in seen} <= concrete
            # Mechanism only: nothing below the planner learns per batch.
            assert not hasattr(px.engine, "backend_policy")
        finally:
            px.close()


class TestPlannerFaultLeg:
    def test_throwing_planner_degrades_without_losing_the_batch(
        self, rng, collection, reference, tmp_path
    ):
        obs.configure(enabled=True)
        try:
            index = HintIndex(collection, m=M)
            index.precompute_aux()
            px = PlannedExecutor(
                index,
                model_path=str(tmp_path / "fault.json"),
                calibrate=True,
                fault_plan=FaultPlan.once(SITE_PLANNER_DECIDE),
            )
            batch = mixed_batch(rng)
            want = run_strategy("partition-based", reference, batch, mode="ids")
            try:
                got = px.execute(batch, mode="ids")  # decide throws here
                assert got == want
                assert px.last_decision is None  # the planner never decided
                snap = obs.snapshot()
                fallbacks = {
                    c["labels"].get("reason"): c["value"]
                    for c in snap["metrics"]["counters"]
                    if c["name"] == obs.PLANNER_FALLBACKS
                }
                assert fallbacks == {InjectedFault.__name__: 1}

                # Disarmed: the next batch plans normally again.
                got = px.execute(batch, mode="ids")
                assert got == want
                assert px.last_decision is not None
            finally:
                px.close()
        finally:
            obs.configure(enabled=False)

    def test_fault_site_registered(self):
        from repro.verify.faults import SITES

        assert SITE_PLANNER_DECIDE in SITES
