"""Unit tests for the adaptive batch planner (``repro.planner``).

Covers the kept timings (predict / timed-near / forget), the plan space
legality rules (``serial``, plus ``threads`` on several cores), the
cold-start prior shared with the advisor, and the planner's decisions:
first sight in rounds, one settled plan per size class, and re-opening a
class whose timing drifts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.batch_stats import batch_extents
from repro.core.advisor import cold_start_recommendation
from repro.engine import BACKENDS
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.planner import (
    AdaptivePlanner,
    BackendCaps,
    CostModel,
    Plan,
    PlannedExecutor,
    plan_space,
)
from repro.planner.plan import plan_key
from tests.conftest import random_collection

# --------------------------------------------------------------------- #
# kept timings
# --------------------------------------------------------------------- #


class TestCostModel:
    def test_model_retains_the_samples_it_fitted(self):
        model = CostModel()
        model.add("k", (48, 0.001))
        model.add("k", (192, 0.002))
        assert model.samples("k") == [(48, 0.001), (192, 0.002)]
        assert model.timed_near("k", 96) and model.timed_near("k", 384)
        assert not model.timed_near("k", 23) and not model.timed_near("k", 385)
        assert not model.timed_near("other", 48)
        assert model.keys() == ["k"]

    def test_predict_uncalibrated_is_none(self):
        model = CostModel()
        assert model.predict("nope", 10) is None
        model.add("k", (100, 0.01))
        assert model.predict("k", 201) is None  # beyond 2x: not extrapolated
        assert model.predict("k", 49) is None

    def test_predict_scales_the_nearest_timing(self):
        model = CostModel()
        model.add("k", (100, 0.010))
        model.add("k", (400, 0.020))
        assert model.predict("k", 150) == pytest.approx(0.015)  # from 100
        assert model.predict("k", 300) == pytest.approx(0.015)  # from 400
        assert model.predict("k", 400) == pytest.approx(0.020)

    def test_forget_near_drops_only_that_size(self):
        model = CostModel()
        model.add("k", (100, 0.01))
        model.add("k", (4096, 0.5))
        model.forget_near("k", 150)
        assert model.samples("k") == [(4096, 0.5)]
        model.forget_near("k", 4000)
        assert model.keys() == []

    def test_add_requires_a_batch_timing(self):
        for bad in ((0, 0.1), (-3, 0.1), (10, -1.0)):
            with pytest.raises(ValueError, match="not a batch timing"):
                CostModel().add("k", bad)


# --------------------------------------------------------------------- #
# plan space
# --------------------------------------------------------------------- #


class TestPlanSpace:
    def test_single_core_space(self):
        caps = BackendCaps(cpus=1, workers=1)
        plans = plan_space(caps, strategies=("partition-based", "join-based"))
        keys = {(p.strategy, p.backend) for p in plans}
        assert keys == {
            ("partition-based", "serial"),
            ("join-based", "serial"),
        }

    def test_multi_core_space_adds_thread_backends(self):
        caps = BackendCaps(cpus=4, workers=4)
        assert caps.backends() == ["serial", "threads"]
        plans = plan_space(caps, strategies=("partition-based", "join-based"))
        assert {p.backend for p in plans} == {"serial", "threads"}
        assert BackendCaps(cpus=4, workers=1).backends() == ["serial"]

    def test_count_and_checksum_offer_no_compiled_twin(self):
        """A partition-based batch is offered on the two engine
        backends and nothing else, in every mode."""
        caps = BackendCaps(cpus=4, workers=4)
        plans = plan_space(caps, strategies=("partition-based",))
        assert {p.backend for p in plans} == {"serial", "threads"}

    def test_compiled_excluded_without_kernel_support(self):
        """Nor anywhere else: no plan names a backend the engine lacks."""
        for cpus in (1, 4):
            caps = BackendCaps(cpus=cpus, workers=cpus)
            backends = {p.backend for p in plan_space(caps)}
            assert backends <= set(BACKENDS) - {"auto"}

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            plan_space(BackendCaps(), strategies=("frobnicate",))

    def test_from_index_reads_the_machine(self):
        """The caps are the machine's: no property of the index enters."""
        assert BackendCaps.from_index(cpus=2, workers=2) == BackendCaps(2, 2)
        assert BackendCaps.from_index(cpus=3) == BackendCaps(cpus=3, workers=3)

    def test_plan_key_shape(self):
        assert plan_key("partition-based", "serial", "ids") == (
            "partition-based|serial|ids"
        )
        assert Plan("a", "b").key("c") == "a|b|c"


class TestColdStartRecommendation:
    def test_matches_advisor_reasons(self):
        from repro.core.advisor import recommend_strategy
        from repro.intervals.batch import QueryBatch

        for size, n in [(1000, 0), (1000, 1), (1000, 100), (100, 90)]:
            batch = QueryBatch(np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64))
            rec = recommend_strategy(size, batch)
            strategy, reason = cold_start_recommendation(size, n)
            assert rec.strategy == strategy
            assert rec.reason == reason


# --------------------------------------------------------------------- #
# planner decisions
# --------------------------------------------------------------------- #


def _uniform_batch(rng, n, extent, top=1023):
    st = rng.integers(0, top - extent, size=n)
    return QueryBatch(st, st + extent)


@pytest.fixture
def small_hint(rng):
    index = HintIndex(random_collection(rng, 400, 1023), m=10)
    index.precompute_aux()
    return index


_ONE_CORE = BackendCaps(cpus=1, workers=1)
_TWO_CORES = BackendCaps(cpus=2, workers=2)


def _timed_model(seconds_at_64):
    """A model holding one timing at 64 queries per ``plan key``."""
    model = CostModel()
    for key, seconds in seconds_at_64.items():
        model.add(key, (64, seconds))
    return model


class TestAdaptivePlanner:
    def test_uncalibrated_decision_is_the_static_prior(self, small_hint, rng):
        """A planner that has timed nothing hands its first batch to the
        paper-rule strategy on the static rule's backend."""
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE)
        decision = planner.decide(_uniform_batch(rng, 64, 8), mode="count")
        assert decision.source == "explore"
        strategy, _ = cold_start_recommendation(len(small_hint), 64)
        assert decision.plan == Plan(strategy, "serial")

    def test_pinned_strategy_respected_by_prior(self, small_hint, rng):
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE)
        for _ in range(4):
            decision = planner.decide(
                _uniform_batch(rng, 64, 8), mode="count", strategy="level-based"
            )
            assert decision.plan == Plan("level-based", "serial")
            planner.observe(decision, 0.001)
        assert decision.source == "model"

    def test_calibrated_decision_picks_cheapest(self, small_hint, rng):
        model = _timed_model({
            "partition-based|serial|ids": 0.010,
            "join-based|serial|ids": 0.001,
        })
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE, model=model)
        decision = planner.decide(_uniform_batch(rng, 64, 8), mode="ids")
        assert decision.source == "model"
        assert decision.plan == Plan("join-based", "serial")
        # The decision table is sorted cheapest-first and covers all plans.
        assert [k for k, _ in decision.table][0] == "join-based|serial|ids"
        assert len(decision.table) == 2

    def test_partially_timed_mode_explores_the_rest(self, small_hint, rng):
        """A model holding only some of a mode's plans does not pin the
        batch to them: the others get the batch first."""
        model = _timed_model({"partition-based|serial|ids": 0.010})
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES, model=model)
        batch = _uniform_batch(rng, 64, 8)
        decision = planner.decide(batch, mode="ids")
        assert decision.source == "explore"
        assert decision.plan != Plan("partition-based", "serial")
        model.add("partition-based|threads|ids", (64, 0.001))
        model.add("join-based|serial|ids", (64, 0.020))
        model.add("join-based|threads|ids", (64, 0.020))
        decision = planner.decide(batch, mode="ids")
        assert decision.source == "model"
        assert decision.plan == Plan("partition-based", "threads")
        # Per (mode, strategy set): a pinned strategy needs only its own
        # plans, another mode has timed nothing.
        pinned = planner.decide(batch, mode="ids", strategy="join-based")
        assert pinned.source == "model"
        assert planner.decide(batch, mode="count").source == "explore"

    def test_twin_plans_do_not_trade_places_on_timing_noise(self, small_hint, rng):
        """Two plans a few per cent apart: once settled, +-10 % of noise
        and a slow stretch inside the band keep the same plan."""
        model = _timed_model({
            "partition-based|serial|count": 0.00100,
            "join-based|serial|count": 0.00102,
        })
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE, model=model)
        batch = _uniform_batch(rng, 64, 8)
        serial = Plan("partition-based", "serial")
        noise = np.random.default_rng(3)
        for slow in [1.0] * 20 + [1.3] * 20 + [1.0] * 20:
            decision = planner.decide(batch, mode="count")
            assert decision.plan == serial and decision.source == "model"
            planner.observe(decision, 0.00100 * slow * noise.uniform(0.9, 1.1))
        assert planner.stats()["reopened"] == 0

    def test_observe_updates_model(self, small_hint, rng):
        """What a first-sight batch took is kept: the better of two, per
        query, at the number of queries the plan ran."""
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE)
        batch = _uniform_batch(rng, 64, 8)
        first = planner.decide(batch, mode="count")
        assert first.beside is None and first.timed == 64
        assert planner.observe(first, 0.020) is None
        key = first.plan.key("count")
        assert planner.model.samples(key) == []  # waits for a second
        # The other plans at 6 ms whatever they ran: the first plan's
        # 20 ms stays within EXPLORE_CAP of the best, so it gets a second.
        for _ in range(8):
            again = planner.decide(batch, mode="count")
            if again.plan == first.plan:
                break
            planner.observe(again, 0.006)
        else:
            pytest.fail("the first plan never got its second look")
        # Its second look is the whole batch; kept: the better rate.
        assert again.beside is None and again.timed == 64
        planner.observe(again, 0.010)
        assert planner.model.samples(key) == [(64, pytest.approx(0.010))]

    def test_stats_snapshot(self, small_hint, rng):
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE)
        planner.decide(_uniform_batch(rng, 64, 8), mode="count")
        stats = planner.stats()
        assert stats["decisions"] == 1
        assert stats["explorations"] == 1
        assert stats["settled"] == stats["reopened"] == 0
        assert stats["timed_plans"] == []


# --------------------------------------------------------------------- #
# first sight of a batch size: time every plan, settle
# --------------------------------------------------------------------- #

_MS, _US = 1e-3, 1e-6
#: True cost (fixed, per query) of every plan of a 2-core HINT plan space.
#: The partition plans' fixed costs stay well below their per-query cost
#: at the sizes timed here, so a timing scaled by up to 2x predicts within
#: DRIFT_BAND; with 1 ms, a 192-query timing scaled to 96 queries read
#: ~1.9x low and re-opened the class on half of the noise seeds.
_TRUE_COSTS = {
    ("partition-based", "serial"): (0.1 * _MS, 0.7 * _US),  # cheapest
    ("partition-based", "threads"): (0.1 * _MS, 1.3 * _US),
    ("join-based", "serial"): (200 * _MS, 2.0 * _US),  # far beyond the cap
    ("join-based", "threads"): (200 * _MS, 2.0 * _US),
}
_CHEAPEST = Plan("partition-based", "serial")


class _FakeMachine:
    """Known linear costs per plan, seeded +-10 % noise, and a slowdown
    factor per plan that a test can raise mid-run."""

    def __init__(self, seed):
        self.runs = []  # (plan, queries) per executed batch
        self.slow = {}
        self._noise = np.random.default_rng(seed)

    def cost(self, plan, n):
        fixed, per_query = _TRUE_COSTS[(plan.strategy, plan.backend)]
        noise = self._noise.uniform(0.9, 1.1)
        return (fixed + per_query * n) * noise * self.slow.get(plan, 1.0)


def _serve(planner, machine, batch):
    """One ids batch through decide -> run -> observe, as the executor
    does."""
    decision = planner.decide(batch, mode="ids")
    machine.runs.append((decision.plan, decision.timed))
    planner.observe(decision, machine.cost(decision.plan, decision.timed))
    if decision.beside is not None:
        machine.runs.append((decision.beside, len(batch) - decision.timed))
    return decision


def _settle(planner, machine, batch):
    """Serve *batch* until the planner stops exploring; the decisions."""
    decisions = []
    while not decisions or decisions[-1].source == "explore":
        decisions.append(_serve(planner, machine, batch))
        assert len(decisions) <= 2 * len(_TRUE_COSTS) + 1
    return decisions


class TestFirstSight:
    def test_a_fresh_planner_settles_on_the_cheapest_plan(self, small_hint, rng):
        machine = _FakeMachine(seed=5)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        batch = _uniform_batch(rng, 4096, 8)
        decisions = _settle(planner, machine, batch)
        probed = [d.plan for d in decisions if d.source == "explore"]
        # Every plan twice, except the joins: far beyond the cap, one
        # batch each is enough.
        assert sorted(map(str, probed)) == sorted(
            str(Plan(*k)) for k in _TRUE_COSTS for _ in range(1 + (k[0] != "join-based"))
        )
        assert decisions[-1].source == "model" and decisions[-1].plan == _CHEAPEST
        for _ in range(20):
            decision = _serve(planner, machine, batch)
            assert decision.source == "model" and decision.plan == _CHEAPEST
        assert planner.stats()["explorations"] == len(probed)
        assert planner.stats()["settled"] == 1

    def test_the_prior_plan_runs_first(self, small_hint, rng):
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        first = _serve(planner, _FakeMachine(seed=1), _uniform_batch(rng, 4096, 8))
        strategy, _ = cold_start_recommendation(len(small_hint), 4096)
        assert first.plan == Plan(strategy, "serial")

    def test_sizes_near_a_timed_one_are_never_probed(self, small_hint, rng):
        machine = _FakeMachine(seed=5)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        _settle(planner, machine, _uniform_batch(rng, 192, 8))
        explored = planner.stats()["explorations"]
        for n in (96, 100, 192, 256, 384):
            for _ in range(3):
                assert _serve(planner, machine, _uniform_batch(rng, n, 8)).source == "model"
        assert planner.stats()["explorations"] == explored
        # 1000 queries is a size class of its own.
        assert _serve(planner, machine, _uniform_batch(rng, 1000, 8)).source == "explore"

    def test_first_sight_ends_when_the_batch_size_wobbles(self, small_hint, rng):
        """A quarter-batch look at 521 queries prices a next batch of 610
        as well: two looks per plan at most, whatever the exact sizes
        (a cache in front makes every batch a different size)."""
        machine = _FakeMachine(seed=5)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        decisions = []
        while not decisions or decisions[-1].source == "explore":
            n = int(rng.integers(520, 620))
            decisions.append(_serve(planner, machine, _uniform_batch(rng, n, 8)))
            assert len(decisions) <= 2 * len(_TRUE_COSTS) + 1
        assert decisions[-1].plan == _CHEAPEST

    def test_a_look_near_a_smaller_timed_size_still_counts(self, small_hint, rng):
        """A first look at a quarter of 1024 queries is near the timings
        kept at 400; it is a look at 1024 all the same, and first sight
        there ends (_settle bounds the number of batches)."""
        machine = _FakeMachine(seed=5)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        _settle(planner, machine, _uniform_batch(rng, 400, 8))
        decisions = _settle(planner, machine, _uniform_batch(rng, 1024, 8))
        assert any(d.timed == 1024 - 3 * (1024 // 4) for d in decisions)
        assert decisions[-1].plan == _CHEAPEST

    def test_first_sight_looks_at_part_of_the_batch(self, small_hint, rng):
        """The first batch of a size runs whole on the prior; after it, a
        plan's first look gets a quarter of the batch and the cheapest plan
        seen at that size the rest — what learning a plan far beyond the
        best costs is bounded by that share.  A second look is whole."""
        n = 4096
        machine = _FakeMachine(seed=5)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        decisions = _settle(planner, machine, _uniform_batch(rng, n, 8))
        assert decisions[0].beside is None and decisions[0].timed == n
        looks = {}
        for decision in decisions[:-1]:
            looks[decision.plan] = looks.get(decision.plan, 0) + 1
            if looks[decision.plan] == 2 or decision is decisions[0]:
                assert decision.beside is None and decision.timed == n
            else:
                assert decision.beside not in (None, decision.plan)
                assert decision.timed == n - 3 * (n // 4)
        # Both joins are beyond the cap after one look: no second.
        assert [looks[Plan("join-based", b)] for b in ("serial", "threads")] == [1, 1]
        joined = [(str(d.plan), d.timed) for d in decisions if d.plan.strategy == "join-based"]
        assert sorted(joined) == sorted(
            [(str(Plan("join-based", "serial")), n),
             (str(Plan("join-based", "threads")), n - 3 * (n // 4))]
        )
        # The one look a join got is kept, scaled to the batch.
        key = Plan("join-based", "threads").key("ids")
        assert [q for q, _ in planner.model.samples(key)] == [n]

    def test_a_slow_first_batch_is_timed_again(self, small_hint, rng):
        """Best of two however long the first took: the first ids batch of
        a process was seen at 3x the tenth, and kept, it priced its plan
        out for good."""
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE)
        batch = _uniform_batch(rng, 1000, 8)
        decision = planner.decide(batch, mode="count")
        key = decision.plan.key("count")
        planner.observe(decision, 0.024)
        assert not planner.model.timed_near(key, 1000)  # waits for a second
        decision.n = 1100
        planner.observe(decision, 0.0088)
        assert planner.model.samples(key) == [(1100, pytest.approx(0.0088))]
        decision.n = 8000
        planner.observe(decision, 0.020)
        planner.observe(decision, 0.030)
        assert planner.model.samples(key)[-1] == (8000, 0.020)

    def test_first_sight_goes_in_rounds(self, small_hint, rng):
        """Every plan once, then every one again: what slows the first
        batches of a process falls on no plan's kept timing."""
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        decisions = _settle(planner, _FakeMachine(seed=5), _uniform_batch(rng, 4096, 8))
        probed = [d.plan for d in decisions if d.source == "explore"]
        first_round = probed[: len(_TRUE_COSTS)]
        assert sorted(map(str, first_round)) == sorted(str(Plan(*k)) for k in _TRUE_COSTS)
        # Then again every plan within the cap, each once.
        second_round = probed[len(_TRUE_COSTS):]
        assert len(set(second_round)) == len(second_round) >= 2
        assert all(plan.strategy == "partition-based" for plan in second_round)

    def test_a_multicore_plan_must_win_by_the_margin(self, small_hint, rng):
        """A threads plan's best timing needs every core idle; a near tie
        with the one-core plan is decided for the one core."""
        from repro.planner.planner import MULTICORE_MARGIN

        batch = _uniform_batch(rng, 64, 8)
        caps = BackendCaps(cpus=2, workers=2)
        for share, backend in ((0.95, "serial"), (MULTICORE_MARGIN - 0.05, "threads")):
            model = _timed_model({
                "partition-based|serial|count": 0.00100,
                "partition-based|threads|count": 0.00100 * share,
            })
            planner = AdaptivePlanner(
                small_hint, caps=caps, model=model, strategies=("partition-based",)
            )
            decision = planner.decide(batch, mode="count")
            assert decision.source == "model"
            assert decision.plan == Plan("partition-based", backend)
            assert decision.table[0][0] == "partition-based|threads|count"

    def test_decide_fault_on_a_first_sight_batch_degrades_to_the_static_rule(
        self, small_hint, rng
    ):
        from repro.verify.faults import SITE_PLANNER_DECIDE, FaultPlan

        px = PlannedExecutor(
            small_hint, fault_plan=FaultPlan.once(SITE_PLANNER_DECIDE, after=1)
        )
        calls = []
        real = px.engine.execute

        def spy(batch, **kwargs):
            calls.append(kwargs["backend"])
            return real(batch, **kwargs)

        px._engine.execute = spy
        try:
            batch = _uniform_batch(rng, 4096, 8)
            want = px.engine.execute(batch, strategy="partition-based",
                                     mode="count", backend="serial")
            del calls[:]
            assert px.execute(batch, mode="count") == want
            assert px.last_decision.source == "explore"
            assert px.execute(batch, mode="count") == want  # decide throws
            assert px.last_decision is None
            assert calls[1:] == ["auto"]  # answered once, by the static rule
            assert px.execute(batch, mode="count") == want
            assert px.last_decision.source == "explore"  # and probing resumes
        finally:
            px.close()


# --------------------------------------------------------------------- #
# settle once, re-open on drift
# --------------------------------------------------------------------- #


class TestSettle:
    def test_a_settled_class_is_decided_without_scoring(
        self, small_hint, rng, monkeypatch
    ):
        import repro.planner.planner as planner_module

        machine = _FakeMachine(seed=2)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        _settle(planner, machine, _uniform_batch(rng, 4096, 8))

        def no_scoring(*args, **kwargs):
            raise AssertionError("a settled size class scored the plan space")

        monkeypatch.setattr(planner_module, "plan_space", no_scoring)
        for n in (4096, 5000, 8000):  # one size class
            decision = _serve(planner, machine, _uniform_batch(rng, n, 8))
            assert decision.source == "model" and decision.plan == _CHEAPEST
            assert decision.predicted_s == pytest.approx(
                decision.table[0][1] * n / 4096, rel=0.2
            )

    def test_a_host_that_slows_reopens_and_resettles(self, small_hint, rng):
        machine = _FakeMachine(seed=7)
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        batch = _uniform_batch(rng, 4096, 8)
        _settle(planner, machine, batch)
        for _ in range(12):
            assert _serve(planner, machine, batch).plan == _CHEAPEST
        assert planner.stats()["reopened"] == 0

        # Everything three times as slow: measured again, same plan.
        machine.slow = {Plan(*k): 3.0 for k in _TRUE_COSTS}
        for _ in range(8):
            assert _serve(planner, machine, batch).source == "model"
            if planner.stats()["reopened"]:
                break
        assert planner.stats()["reopened"] == 1
        decisions = _settle(planner, machine, batch)
        assert decisions[-1].plan == _CHEAPEST
        # Every plan is timed anew; a plan far beyond the best gets one look.
        joins = [d.plan for d in decisions if d.plan.strategy == "join-based"]
        assert len(joins) == 2 and len(set(joins)) == 2

        # Only the plan in use slows (a neighbour on its path): the class
        # re-settles on the plan that is now the cheapest.
        for _ in range(12):
            assert _serve(planner, machine, batch).plan == _CHEAPEST
        machine.slow[_CHEAPEST] = 9.0
        for _ in range(8):
            if _serve(planner, machine, batch) and planner.stats()["reopened"] == 2:
                break
        assert planner.stats()["reopened"] == 2
        settled = _settle(planner, machine, batch)[-1]
        assert settled.plan == Plan("partition-based", "threads")

    def test_a_plan_settled_on_timings_that_do_not_hold_is_timed_again(
        self, small_hint, rng
    ):
        """A multi-core plan timed while the second core was idle wins
        first sight and then runs 3x slower: within a few batches the
        class is re-opened and settles on the plan that is cheapest."""
        machine = _FakeMachine(seed=3)
        both_cores = Plan("partition-based", "threads")
        machine.slow[both_cores] = 0.3
        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        batch = _uniform_batch(rng, 4096, 8)
        assert _settle(planner, machine, batch)[-1].plan == both_cores
        machine.slow[both_cores] = 1.0
        for _ in range(4):
            assert _serve(planner, machine, batch).plan == both_cores
            if planner.stats()["reopened"]:
                break
        assert planner.stats()["reopened"] == 1
        assert _settle(planner, machine, batch)[-1].plan == _CHEAPEST

    def test_observe_returns_relative_error_and_tracks_drift(self, small_hint, rng):
        model = _timed_model({
            "partition-based|serial|count": 0.010,
            "join-based|serial|count": 0.030,
        })
        planner = AdaptivePlanner(small_hint, caps=_ONE_CORE, model=model)
        batch = _uniform_batch(rng, 64, 8)
        decision = planner.decide(batch, mode="count")
        assert decision.predicted_s == pytest.approx(0.010)
        assert planner.observe(decision, 0.020) == pytest.approx(0.5)
        settled = planner._settled[decision.slot]
        assert settled.drift == pytest.approx(2.0)
        # A decision that settled nothing (a first-sight one) moves no drift.
        assert planner.observe(planner.decide(batch, mode="ids"), 0.5) is None

    def test_concurrent_decide_and_observe_lose_nothing(self, small_hint):
        """More threads than cores deciding and observing on one planner
        through first sight, settling and re-opening: no exception, and
        no decision or exploration goes uncounted."""
        import sys
        import threading

        planner = AdaptivePlanner(small_hint, caps=_TWO_CORES)
        errors, per_thread = [], 300
        explored = [0] * 4

        def worker(tid):
            local = np.random.default_rng(tid)
            try:
                for _ in range(per_thread):
                    n = int(local.choice([64, 100, 700, 4096]))
                    batch = QueryBatch(np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64))
                    decision = planner.decide(batch, mode="count")
                    explored[tid] += decision.source == "explore"
                    # Timings wide enough apart to re-open settled slots.
                    planner.observe(decision, 1e-3 * local.choice([0.2, 1.0, 5.0]))
            except Exception as exc:  # pragma: no cover - the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        stats = planner.stats()
        assert stats["decisions"] == 4 * per_thread
        assert stats["explorations"] == sum(explored)

    def test_degenerate_observations_are_ignored(self, small_hint, rng):
        model = _timed_model({"partition-based|serial|count": 0.010})
        planner = AdaptivePlanner(
            small_hint, caps=BackendCaps(cpus=1, workers=1),
            model=model, strategies=("partition-based",),
        )
        decision = planner.decide(_uniform_batch(rng, 64, 8), mode="count")
        assert planner.observe(decision, 0.0) is None
        assert planner._settled[decision.slot].drift is None
        decision.n = 0
        assert planner.observe(decision, 0.5) is None
        assert planner.model.samples("partition-based|serial|count") == [(64, 0.010)]


# --------------------------------------------------------------------- #
# the executor front
# --------------------------------------------------------------------- #


class TestPlannedExecutor:
    def test_nothing_is_probed_or_written_at_start_up(
        self, small_hint, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        px = PlannedExecutor(small_hint)
        try:
            assert px.planner.model.keys() == []
            assert list(tmp_path.iterdir()) == []
        finally:
            px.close()
        with pytest.raises(TypeError):
            PlannedExecutor(small_hint, calibrate=True)

    def test_the_join_input_is_built_before_the_first_batch(self, rng):
        """The raw collection a join-based plan reads is a one-time cost
        of the index, paid at construction and not by the first join;
        not built when the planner may not choose the join."""
        index = HintIndex(random_collection(rng, 400, 1023), m=10)
        PlannedExecutor(index).close()
        assert getattr(index, "_collection_cache", None) is not None
        index = HintIndex(random_collection(rng, 400, 1023), m=10)
        PlannedExecutor(index, planner=AdaptivePlanner(
            index, strategies=("partition-based",)
        )).close()
        assert getattr(index, "_collection_cache", None) is None

    def test_a_modes_fold_is_built_before_its_first_batch_is_timed(
        self, rng, monkeypatch
    ):
        """The count or checksum fold is a one-time cost of the index:
        built before the first batch of its mode, outside the look the
        planner keeps, and never for ids batches."""
        built = []
        real = HintIndex._build_fold

        def slow(index, mode):
            built.append(mode)
            time.sleep(0.2)
            return real(index, mode)

        monkeypatch.setattr(HintIndex, "_build_fold", slow)
        index = HintIndex(random_collection(rng, 400, 1023), m=10)
        with PlannedExecutor(index) as px:
            px.execute(_uniform_batch(rng, 64, 8), mode="ids")
            assert built == []
            for mode in ("count", "checksum"):
                px.execute(_uniform_batch(rng, 64, 8), mode=mode)
                key = px.last_decision.plan.key(mode)
                assert px.planner._first_sight[key][1] < 0.1, mode  # seconds
        assert built == ["count", "checksum"]

    def test_the_id_runs_are_built_before_the_first_ids_batch_is_timed(
        self, rng, monkeypatch
    ):
        """The id runs an ids batch gathers from are a one-time cost of
        the index too: built once, before the first ids batch, outside
        the look the planner keeps (fails when the executor leaves the
        build to the first batch, whose look then takes 0.2 s)."""
        built = []
        real = HintIndex._build_id_runs

        def slow(index):
            built.append(index)
            time.sleep(0.2)
            return real(index)

        monkeypatch.setattr(HintIndex, "_build_id_runs", slow)
        index = HintIndex(random_collection(rng, 400, 1023), m=10)
        with PlannedExecutor(index) as px:
            px.execute(_uniform_batch(rng, 64, 8), mode="count")
            assert built == []
            for _ in range(3):
                px.execute(_uniform_batch(rng, 64, 8), mode="ids")
                key = px.last_decision.plan.key("ids")
                assert px.planner._first_sight[key][1] < 0.1  # seconds
        assert built == [index]

    def test_engine_options_beside_an_engine_are_a_type_error(self, small_hint):
        """Options for an engine the executor does not build are not
        silently dropped (the removed calibration arguments included)."""
        from repro.engine import ExecutionEngine

        with ExecutionEngine(small_hint, backend="auto") as engine:
            for kwargs in ({"calibrate": True}, {"model_path": None}, {"workers": 2}):
                with pytest.raises(TypeError, match="engine="):
                    PlannedExecutor(small_hint, engine=engine, **kwargs)
            PlannedExecutor(small_hint, engine=engine).close()
            assert engine.execute(QueryBatch([1], [5]), mode="count") is not None

    def test_pinned_backend_bypasses_planner(self, small_hint, rng):
        px = PlannedExecutor(small_hint)
        try:
            batch = _uniform_batch(rng, 32, 8)
            px.execute(batch, mode="count", backend="serial")
            assert px.last_decision is None  # planner never consulted
        finally:
            px.close()

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


class TestExtentSummary:
    def test_extents_match_endpoints(self):
        batch = QueryBatch([10, 20], [10, 30])
        assert batch_extents(batch).tolist() == [0, 10]
