"""Differential tests: planner-chosen plans never change results.

Whatever the planner picks — a first-sight batch of any legal plan
(alone, or on a quarter of the batch beside the cheapest plan), or the
plan it settled on — the result must be bit-identical to every
static plan, across result modes and index kinds (single, sharded,
dynamic-after-compact).
The fault leg proves the degradation contract: a planner that throws
mid-decide falls back to the engine's static ``auto`` rule and loses
no batch, bumping ``repro_planner_fallbacks_total``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
import repro.planner.executor as planner_executor
from repro.core.strategies import STRATEGIES, run_strategy
from repro.engine import ExecutionEngine
from repro.hint.dynamic import DynamicHint
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.planner import PlannedExecutor, plan_space
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


#: Synthetic cost (fixed s, s per query) of every plan of a 2-core plan
#: space, the shape of ``tests/test_planner.py``'s ``_TRUE_COSTS``:
#: partition-based on serial is the cheapest, join-based is far beyond
#: the second-look cap.
_PLAN_COSTS = {
    ("partition-based", "serial"): (0.1e-3, 0.7e-6),
    ("partition-based", "threads"): (0.1e-3, 1.3e-6),
    ("join-based", "serial"): (200e-3, 2.0e-6),
    ("join-based", "threads"): (200e-3, 2.0e-6),
}


@pytest.fixture
def synthetic_clock(monkeypatch):
    """The executor times every plan on a clock that advances by the
    plan's :data:`_PLAN_COSTS` cost, not the host's: what the planner
    learns, and so when it settles, cannot move with host load."""
    now = [0.0]
    real_run = PlannedExecutor._run

    def run(self, batch, plan, mode):
        result = real_run(self, batch, plan, mode)
        fixed, per_query = _PLAN_COSTS[(plan.strategy, plan.backend)]
        now[0] += fixed + per_query * len(batch)
        return result

    monkeypatch.setattr(PlannedExecutor, "_run", run)
    monkeypatch.setattr(planner_executor, "perf_counter", lambda: now[0])


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
    def test_planned_equals_every_static_plan(
        self, rng, collection, reference, synthetic_clock
    ):
        """Through every first-sight batch (each legal plan at least once)
        and on to the settled plan."""
        batch = mixed_batch(rng)
        expected = {
            (strategy, mode): run_strategy(strategy, reference, batch, mode=mode)
            for strategy in STRATEGIES
            for mode in MODES
        }
        naive = oracle_result(collection, batch, M)
        for label, px in backends_under_test(collection):
            try:
                rounds = 2 * len(plan_space(px.planner.caps)) + 1
                for mode in MODES:
                    ran, beside = set(), 0
                    for _ in range(rounds):
                        got = px.execute(batch, mode=mode)
                        ran.add(px.last_decision.plan)
                        beside += px.last_decision.beside is not None
                        for strategy in STRATEGIES:
                            assert got == expected[(strategy, mode)], (
                                f"{label}: {px.last_decision.describe()} "
                                f"[{mode}] != {strategy}"
                            )
                    assert ran == set(plan_space(px.planner.caps)), label
                    # Merged first-sight batches (two plans, one result) ran.
                    assert beside > 0, label
                    assert px.last_decision.source == "model"
                    if mode == "ids":
                        assert_flat_oracle(got, naive)
            finally:
                px.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_first_sight_beside_the_cheapest_is_differential(
        self, rng, collection, reference, mode
    ):
        """Every ordered pair of legal plans as a first-sight batch: one
        on the first quarter, the other on the rest, merged back into
        caller order — the batch's own, or the positions a start-sorted
        copy of it carries."""
        batch = mixed_batch(rng)
        want = run_strategy("partition-based", reference, batch, mode=mode)
        index = HintIndex(collection, m=M)
        index.precompute_aux()
        px = PlannedExecutor(index)
        try:
            plans, n = plan_space(px.planner.caps), len(batch)
            for plan in plans:
                for beside in plans:
                    if beside == plan:
                        continue
                    decision = Decision(
                        plan=plan, mode=mode, source="explore", n=n,
                        beside=beside, head=n - 3 * (n // 4),
                    )
                    px.planner.decide = lambda *a, d=decision, **k: d
                    for given in (batch, batch.sorted_by_start()):
                        got = px.execute(given, mode=mode)
                        assert got == want, decision.describe()
        finally:
            px.close()

    def test_batches_too_small_to_share_run_whole(self, rng, collection, reference):
        """Fewer than four queries are never shared between two plans."""
        index = HintIndex(collection, m=M)
        index.precompute_aux()
        px = PlannedExecutor(index)
        try:
            for n in (1, 2, 3, 1, 2, 3):
                batch = mixed_batch(rng, n=8)
                batch = QueryBatch(batch.st[:n], batch.end[:n])
                for mode in MODES:
                    got = px.execute(batch, mode=mode)
                    assert px.last_decision.beside is None
                    assert got == run_strategy("partition-based", reference, batch, mode=mode)
        finally:
            px.close()

    def test_uncalibrated_prior_is_differential_too(self, rng, collection, reference):
        """A planner that has timed nothing hands the batch to its first
        plan at once: nothing is probed before it."""
        batch = mixed_batch(rng)
        index = HintIndex(collection, m=M)
        index.precompute_aux()
        px = PlannedExecutor(index)
        try:
            for mode in MODES:
                got = px.execute(batch, mode=mode)
                assert px.last_decision.source == "explore"
                assert got == run_strategy(
                    "partition-based", reference, batch, mode=mode
                )
        finally:
            px.close()


class TestDecisionPath:
    """The planner chooses, the engine executes: every batch reaches the
    engine's dispatch with the concrete backend its plan named."""

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
                for _ in range(3):
                    batch = mixed_batch(rng)
                    got = px.execute(batch, mode=mode)
                    decision = px.last_decision
                    # The first batches of each mode are first-sight ones.
                    assert decision.source in ("model", "explore"), (kind, mode)
                    runs = [decision.plan] + [decision.beside] * (decision.beside is not None)
                    assert seen[-len(runs):] == [(p.strategy, p.backend) for p in runs]
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
            concrete = set(px.planner.caps.backends())
            assert {backend for _, backend in seen} <= concrete
            # Mechanism only: nothing below the planner learns per batch.
            assert not hasattr(px.engine, "backend_policy")
        finally:
            px.close()


class TestPlannerFaultLeg:
    def test_throwing_planner_degrades_without_losing_the_batch(
        self, rng, collection, reference
    ):
        obs.configure(enabled=True)
        try:
            index = HintIndex(collection, m=M)
            index.precompute_aux()
            px = PlannedExecutor(
                index, fault_plan=FaultPlan.once(SITE_PLANNER_DECIDE)
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
