"""Unit tests for the adaptive batch planner (``repro.planner``).

Covers the cost model (fit / predict / EWMA drift / persistence), the
plan space legality rules, the static backend policy — including the
kernel-fallback regression where ``threads+compiled`` must not be
preferred while the pure-NumPy fallback serves the compiled path — the
engine's online backend policy, and the planner's decision logic
(prior vs model vs first-sight probe vs split).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.batch_stats import batch_extents, summarize_extents
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.kernels import ops as kernel_ops
from repro.planner import (
    AdaptivePlanner,
    BackendCaps,
    CostModel,
    Plan,
    PlanCost,
    PlannedExecutor,
    SplitPlan,
    plan_space,
)
from repro.planner.plan import plan_key
from repro.planner.policy import (
    GIL_BOUND_STRATEGIES,
    NOGIL_CUTOFF,
    cold_start_recommendation,
    compiled_kernels_nogil,
    static_backend_choice,
)
from tests.conftest import random_collection

# --------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------- #


class TestPlanCost:
    def test_predict_is_affine(self):
        cost = PlanCost(fixed_s=0.5, per_query_s=0.01, per_extent_s=0.001)
        assert cost.predict(0, 0) == pytest.approx(0.5)
        assert cost.predict(10, 100) == pytest.approx(0.5 + 0.1 + 0.1)


class TestCostModel:
    def test_fit_recovers_planted_coefficients(self):
        model = CostModel()
        fixed, per_q, per_e = 2e-3, 5e-6, 1e-8
        samples = [
            (n, e, fixed + per_q * n + per_e * e)
            for n, e in [(10, 1000), (100, 1000), (100, 100_000), (500, 5000)]
        ]
        cost = model.fit("p|serial|count", samples)
        assert cost.fixed_s == pytest.approx(fixed, rel=1e-6)
        assert cost.per_query_s == pytest.approx(per_q, rel=1e-6)
        assert cost.per_extent_s == pytest.approx(per_e, rel=1e-6)
        assert model.calibrated

    def test_fit_clamps_negative_coefficients(self):
        model = CostModel()
        # Noisy samples engineered to drive the lstsq fixed term negative.
        cost = model.fit(
            "k", [(10, 0, 0.0001), (20, 0, 0.0100), (40, 0, 0.0150)]
        )
        assert cost.fixed_s >= 0.0
        assert cost.per_query_s >= 0.0
        assert cost.per_extent_s >= 0.0

    def test_negative_coefficient_is_dropped_and_the_rest_refitted(self):
        """The unconstrained fit of these probes has ``fixed`` < 0.  Zeroing
        it and keeping the other two as fitted is not the non-negative
        solution: the slopes were compensating for the negative intercept,
        so every prediction came out too high."""
        samples = [(48, 100, 0.9e-3), (192, 400, 4.1e-3), (192, 6400, 4.4e-3)]
        a = np.array([[1.0, n, e] for n, e, _ in samples])
        y = np.array([s for _, _, s in samples])
        free, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert free[0] < 0.0 < min(free[1:])  # the premise
        cost = CostModel().fit("k", samples)
        assert cost.fixed_s == 0.0
        rest, *_ = np.linalg.lstsq(a[:, 1:], y, rcond=None)
        assert (cost.per_query_s, cost.per_extent_s) == pytest.approx(tuple(rest))
        # Smaller residual than clamp-and-keep, and no inflation at scale.
        clamped = np.array([0.0, free[1], free[2]])
        fitted = np.array([cost.fixed_s, cost.per_query_s, cost.per_extent_s])
        assert np.linalg.norm(a @ fitted - y) < np.linalg.norm(a @ clamped - y)
        assert cost.predict(4096, 8192) < PlanCost(*clamped).predict(4096, 8192)

    def test_model_retains_the_samples_it_fitted(self):
        model = CostModel()
        samples = [(48, 10, 0.001), (192, 40, 0.002), (192, 900, 0.003)]
        model.fit("k", samples)
        assert model.samples("k") == samples
        assert model.timed_near("k", 96) and model.timed_near("k", 384)
        assert not model.timed_near("k", 23) and not model.timed_near("k", 385)
        assert not model.timed_near("other", 48)
        model.fit("k", model.samples("k") + [(4096, 900, 0.02)])
        assert model.timed_near("k", 4096) and len(model.samples("k")) == 4

    def test_predict_uncalibrated_is_none(self):
        model = CostModel()
        assert model.predict("nope", 10, 10) is None
        assert model.observe("nope", 10, 10, 0.5) is None

    def test_observe_returns_relative_error_and_tracks_drift(self):
        model = CostModel(ewma_alpha=0.5)
        model.fit("k", [(10, 0, 0.010), (100, 0, 0.100), (100, 50, 0.100)])
        # Model predicts ~1 ms/query; observe a consistent 2x slowdown.
        err = model.observe("k", 50, 0, 0.100)
        assert err == pytest.approx(0.5, rel=1e-2)  # |0.1 - 0.05| / 0.1
        assert model.drift("k") == pytest.approx(1.5, rel=1e-2)
        for _ in range(10):
            model.observe("k", 50, 0, 0.100)
        # EWMA converges onto the true ratio; predictions follow it.
        assert model.drift("k") == pytest.approx(2.0, rel=0.05)
        assert model.predict("k", 50, 0) == pytest.approx(0.100, rel=0.05)

    def test_refit_resets_drift(self):
        model = CostModel()
        model.fit("k", [(10, 0, 0.01), (100, 0, 0.1), (100, 50, 0.1)])
        model.observe("k", 50, 0, 0.5)
        assert model.drift("k") != 1.0
        model.fit("k", [(10, 0, 0.01), (100, 0, 0.1), (100, 50, 0.1)])
        assert model.drift("k") == 1.0

    def test_degenerate_observations_are_ignored(self):
        model = CostModel()
        model.fit("k", [(10, 0, 0.01), (100, 0, 0.1), (100, 50, 0.1)])
        assert model.observe("k", 0, 0, 0.1) is None
        assert model.observe("k", 10, 0, 0.0) is None
        assert model.drift("k") == 1.0

    def test_fit_requires_samples(self):
        with pytest.raises(ValueError, match="zero probes"):
            CostModel().fit("k", [])

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError, match="ewma_alpha"):
            CostModel(ewma_alpha=0.0)

    def test_save_load_roundtrip(self, tmp_path):
        model = CostModel(meta={"index": {"kind": "HintIndex", "size": 100}})
        model.fit("a|serial|count", [(10, 5, 0.01), (100, 5, 0.1), (100, 500, 0.2)])
        model.fit("b|compiled|ids", [(10, 5, 0.02), (100, 5, 0.3), (100, 500, 0.4)])
        path = str(tmp_path / "cal.json")
        model.save(path)
        loaded = CostModel.load(path)
        assert loaded.to_dict() == model.to_dict()
        assert loaded.keys() == model.keys()
        for key in model.keys():
            assert loaded.predict(key, 77, 1234) == pytest.approx(
                model.predict(key, 77, 1234)
            )

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ValueError, match="unsupported calibration version"):
            CostModel.load(str(path))

    def test_age_tracks_calibration_instant(self):
        model = CostModel()
        assert model.age_seconds() is None
        model.fit("k", [(10, 0, 0.01)])
        assert model.age_seconds(now=model.created_at + 7.0) == pytest.approx(7.0)


# --------------------------------------------------------------------- #
# plan space
# --------------------------------------------------------------------- #


class TestPlanSpace:
    def test_single_core_space(self):
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        plans = plan_space(caps, strategies=("partition-based", "join-based"))
        keys = {(p.strategy, p.backend) for p in plans}
        assert keys == {
            ("partition-based", "serial"),
            ("partition-based", "compiled"),
            ("join-based", "serial"),
        }

    def test_multi_core_space_adds_thread_backends(self):
        caps = BackendCaps(cpus=4, workers=4, compiled_ok=True)
        backends = set(caps.backends_for("partition-based"))
        assert backends == {"serial", "compiled", "threads", "threads+compiled"}
        # Compiled kernels only accelerate the partition-based sweep.
        assert set(caps.backends_for("join-based")) == {"serial", "threads"}

    def test_compiled_excluded_without_kernel_support(self):
        caps = BackendCaps(cpus=4, workers=4, compiled_ok=False)
        assert "compiled" not in caps.backends_for("partition-based")
        assert "threads+compiled" not in caps.backends_for("partition-based")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            plan_space(BackendCaps(), strategies=("frobnicate",))

    def test_from_index_detects_kind(self, rng):
        coll = random_collection(rng, 200, 1023)
        index = HintIndex(coll, m=10)
        caps = BackendCaps.from_index(index, cpus=2, workers=2)
        assert caps.compiled_ok and not caps.sharded
        assert caps.cpus == 2

    def test_plan_key_shape(self):
        assert plan_key("partition-based", "serial", "ids") == (
            "partition-based|serial|ids"
        )
        assert Plan("a", "b").key("c") == "a|b|c"


# --------------------------------------------------------------------- #
# static policy (incl. the kernel-fallback regression)
# --------------------------------------------------------------------- #


class TestStaticBackendChoice:
    def test_small_batches_and_single_core_stay_serial(self):
        assert static_backend_choice(16, "join-based", "ids", cpus=8) == "serial"
        assert static_backend_choice(100_000, "join-based", "ids", cpus=1) == "serial"

    def test_vectorized_work_uses_threads_above_cutoff(self):
        choice = static_backend_choice(4096, "partition-based", "count", cpus=8)
        assert choice == "threads"
        assert (
            static_backend_choice(1024, "partition-based", "count", cpus=8)
            == "serial"
        )

    def test_gil_bound_with_live_jit_prefers_compiled_threads(self, monkeypatch):
        monkeypatch.setattr(kernel_ops, "jit_available", lambda: True)
        monkeypatch.setattr(kernel_ops, "fallback_active", lambda: False)
        assert compiled_kernels_nogil()
        choice = static_backend_choice(1024, "partition-based", "ids", cpus=8)
        assert choice == "threads+compiled"
        # Below the cutoff, or on one core, the kernels run in the caller.
        assert static_backend_choice(
            NOGIL_CUTOFF - 1, "partition-based", "ids", cpus=8
        ) == "compiled"
        assert static_backend_choice(
            50_000, "partition-based", "ids", cpus=1
        ) == "compiled"

    def test_fallback_kernels_must_not_pick_compiled_threads(self, monkeypatch):
        """Regression: the numpy-fallback kernels hold the GIL, so
        threading them only adds dispatch cost — ``auto`` runs a
        GIL-bound ids batch on the kernels in the calling thread."""
        monkeypatch.setattr(kernel_ops, "jit_available", lambda: True)
        monkeypatch.setattr(kernel_ops, "fallback_active", lambda: True)
        assert not compiled_kernels_nogil()
        for n in (64, 1024, 50_000):
            choice = static_backend_choice(n, "partition-based", "ids", cpus=8)
            assert choice == "compiled"

    def test_gil_bound_strategies_run_serial(self, monkeypatch):
        """Threads lose on a Python-loop strategy at every size, and the
        kernels do not run it: serial, whatever the kernel state."""
        for nogil in (False, True):
            monkeypatch.setattr(kernel_ops, "jit_available", lambda: nogil)
            monkeypatch.setattr(kernel_ops, "fallback_active", lambda: False)
            for n in (100, 1024, 4096, 50_000):
                for mode in ("count", "ids"):
                    choice = static_backend_choice(n, "join-based", mode, cpus=8)
                    assert choice == "serial"

    def test_gil_bound_set(self):
        assert "partition-based" not in GIL_BOUND_STRATEGIES
        assert "join-based" in GIL_BOUND_STRATEGIES


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


def _mixed_batch(rng, n_narrow, n_wide, e_narrow, e_wide, top=1023):
    st1 = rng.integers(0, top - e_narrow, size=n_narrow)
    st2 = rng.integers(0, top - e_wide, size=n_wide)
    st = np.concatenate([st1, st2])
    end = np.concatenate([st1 + e_narrow, st2 + e_wide])
    perm = rng.permutation(st.size)
    return QueryBatch(st[perm], end[perm])


@pytest.fixture
def small_hint(rng):
    index = HintIndex(random_collection(rng, 400, 1023), m=10)
    index.precompute_aux()
    return index


class TestAdaptivePlanner:
    def test_uncalibrated_decision_is_the_static_prior(self, small_hint, rng):
        planner = AdaptivePlanner(small_hint)
        batch = _uniform_batch(rng, 64, 8)
        decision = planner.decide(batch, mode="count")
        assert decision.source == "prior"
        assert decision.plan.backend == "auto"
        strategy, reason = cold_start_recommendation(len(small_hint), 64)
        assert decision.plan.strategy == strategy
        assert reason in decision.reason

    def test_pinned_strategy_respected_by_prior(self, small_hint, rng):
        planner = AdaptivePlanner(small_hint)
        decision = planner.decide(
            _uniform_batch(rng, 64, 8), mode="count", strategy="level-based"
        )
        assert decision.plan.strategy == "level-based"
        assert "pinned" in decision.reason

    def test_calibrated_decision_picks_cheapest(self, small_hint, rng):
        model = CostModel()
        # Plant costs: compiled clearly cheapest for this shape.
        model.fit("partition-based|serial|count", [(64, 512, 0.010)])
        model.fit("partition-based|compiled|count", [(64, 512, 0.001)])
        model.fit("join-based|serial|count", [(64, 512, 0.020)])
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(small_hint, caps=caps, model=model)
        decision = planner.decide(_uniform_batch(rng, 64, 8), mode="count")
        assert decision.source == "model"
        assert decision.plan == Plan("partition-based", "compiled")
        # The decision table is sorted cheapest-first and covers all plans.
        assert [k for k, _ in decision.table][0] == "partition-based|compiled|count"
        assert len(decision.table) == 3

    def test_partially_calibrated_mode_stays_on_the_prior(self, small_hint, rng):
        """A model holding only some of a mode's plans must not pin the
        batch to them (PR 12: ``partition-based|serial|ids`` held for a
        whole run); the model decides once every legal plan is fitted."""
        model = CostModel()
        model.fit("partition-based|serial|ids", [(64, 512, 0.010)])
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(small_hint, caps=caps, model=model)
        batch = _uniform_batch(rng, 64, 8)
        decision = planner.decide(batch, mode="ids")
        assert decision.source == "prior"
        assert decision.plan.backend == "auto"
        model.fit("partition-based|compiled|ids", [(64, 512, 0.001)])
        model.fit("join-based|serial|ids", [(64, 512, 0.020)])
        decision = planner.decide(batch, mode="ids")
        assert decision.source == "model"
        assert decision.plan == Plan("partition-based", "compiled")
        # Per (mode, strategy set): a pinned strategy needs only its own
        # plans, another mode is still uncalibrated.
        pinned = planner.decide(batch, mode="ids", strategy="join-based")
        assert pinned.source == "model"
        assert planner.decide(batch, mode="count").source == "prior"

    def test_calibration_finishes_or_skips_a_mode_as_a_unit(
        self, small_hint, monkeypatch
    ):
        """The budget is checked between modes: the mode in flight when
        it runs out is completed (plans too slow to probe keep their
        warm-up time as a flat cost), later modes are not started."""
        import repro.planner.planner as planner_module

        now = [0.0]  # a fake clock: every plan run costs exactly 2 ms
        monkeypatch.setattr(planner_module, "perf_counter", lambda: now[0])

        def run_plan(plan, batch, mode):
            now[0] += 0.002

        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(small_hint, caps=caps)
        planner.calibrate(run_plan, budget_s=0.01)
        keys = [plan.key("count") for plan in plan_space(caps)]
        assert planner.model.keys() == sorted(keys)
        probed, *flat = (planner.model.entry(key) for key in keys)
        assert probed.probes == 3
        for cost in flat:
            assert cost.fixed_s >= 0.002
            assert cost.per_query_s == cost.per_extent_s == 0.0

    def test_twin_plans_do_not_trade_places_on_timing_noise(self, small_hint, rng):
        """Fails at the parent: the drift of the plan in use — typical
        against best-of-two timing, a busy minute — was held against it
        alone, and the next batch went to a twin that had seen neither."""
        model = CostModel()
        model.fit("partition-based|serial|count", [(64, 512, 0.00100)])
        model.fit("partition-based|compiled|count", [(64, 512, 0.00102)])
        model.fit("join-based|serial|count", [(64, 512, 0.00150)])
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(small_hint, caps=caps, model=model)
        batch = _uniform_batch(rng, 64, 8)
        serial = Plan("partition-based", "serial")
        assert planner.decide(batch, mode="count").plan == serial
        for _ in range(8):  # a slow minute: every batch at 1.8x
            err = planner.observe(serial, "count", 64, 512, 0.00180)
        assert model.drift("partition-based|serial|count") > 1.5
        assert err < 0.2  # the drift still prices the error histogram
        decision = planner.decide(batch, mode="count")
        assert decision.plan == serial and decision.source == "model"
        assert decision.predicted_s == pytest.approx(0.00100)

    def test_split_chosen_when_model_predicts_a_clear_win(self, small_hint, rng):
        model = CostModel()
        # serial: pure per-query cost; compiled: pure per-extent cost —
        # a mixed batch is cheapest split narrow->serial / wide->compiled.
        model.fit(
            "partition-based|serial|ids",
            [(1, 0, 1e-4), (1000, 0, 0.1), (1000, 100_000, 0.1)],
        )
        model.fit(
            "partition-based|compiled|ids",
            [(1, 0, 1e-6), (1000, 0, 1e-6), (1000, 100_000, 0.5)],
        )
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(
            small_hint, caps=caps, model=model,
            strategies=("partition-based",), min_split_batch=64,
        )
        batch = _mixed_batch(rng, 896, 128, 2, 512)
        decision = planner.decide(batch, mode="ids")
        assert decision.split
        assert decision.plan.narrow == Plan("partition-based", "compiled")
        assert decision.plan.wide == Plan("partition-based", "serial")
        assert decision.plan.threshold >= 2
        assert decision.predicted_s < min(c for _, c in decision.table)

    def test_split_rejected_for_homogeneous_batches(self, small_hint, rng):
        model = CostModel()
        model.fit(
            "partition-based|serial|ids",
            [(1, 0, 1e-4), (1000, 0, 0.1), (1000, 100_000, 0.1)],
        )
        model.fit(
            "partition-based|compiled|ids",
            [(1, 0, 1e-6), (1000, 0, 1e-6), (1000, 100_000, 0.5)],
        )
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(
            small_hint, caps=caps, model=model,
            strategies=("partition-based",), min_split_batch=64,
        )
        # All-narrow: heterogeneity ~1, no split can help.
        decision = planner.decide(_uniform_batch(rng, 1024, 4), mode="ids")
        assert not decision.split

    def test_split_respects_min_batch(self, small_hint, rng):
        model = CostModel()
        model.fit(
            "partition-based|serial|ids",
            [(1, 0, 1e-4), (1000, 0, 0.1), (1000, 100_000, 0.1)],
        )
        model.fit(
            "partition-based|compiled|ids",
            [(1, 0, 1e-6), (1000, 0, 1e-6), (1000, 100_000, 0.5)],
        )
        caps = BackendCaps(cpus=1, workers=1, compiled_ok=True)
        planner = AdaptivePlanner(
            small_hint, caps=caps, model=model,
            strategies=("partition-based",), min_split_batch=4096,
        )
        decision = planner.decide(
            _mixed_batch(rng, 896, 128, 2, 512), mode="ids"
        )
        assert not decision.split

    def test_observe_updates_model(self, small_hint):
        model = CostModel()
        model.fit("partition-based|serial|count", [(64, 512, 0.010)])
        planner = AdaptivePlanner(small_hint, model=model)
        err = planner.observe(
            Plan("partition-based", "serial"), "count", 64, 512, 0.020
        )
        assert err == pytest.approx(0.5)
        assert model.observations("partition-based|serial|count") == 1

    def test_stats_snapshot(self, small_hint, rng):
        planner = AdaptivePlanner(small_hint)
        planner.decide(_uniform_batch(rng, 64, 8), mode="count")
        stats = planner.stats()
        assert stats["decisions"] == 1
        assert stats["explorations"] == 0
        assert stats["calibrated_plans"] == []


# --------------------------------------------------------------------- #
# first sight of a batch size: probe, refit, settle
# --------------------------------------------------------------------- #

_MS, _US = 1e-3, 1e-6
#: True cost (fixed, per query) of every plan of a 2-core HINT plan space.
#: Between the 48- and 192-query probes a plan's cost moves by 0.1-0.3 ms
#: on 1 ms, so +/-10 % of noise decides the fitted slope, not the plan.
_TRUE_COSTS = {
    ("partition-based", "serial"): (1.0 * _MS, 1.0 * _US),
    ("partition-based", "compiled"): (1.0 * _MS, 0.7 * _US),  # cheapest at 4096
    ("partition-based", "threads"): (1.0 * _MS, 1.3 * _US),
    ("partition-based", "threads+compiled"): (1.0 * _MS, 1.6 * _US),
    ("join-based", "serial"): (200 * _MS, 2.0 * _US),  # far beyond the cap
    ("join-based", "threads"): (200 * _MS, 2.0 * _US),
}
_CHEAPEST = Plan("partition-based", "compiled")


class _FakeMachine:
    """A clock and a ``run_plan`` with known linear costs and seeded noise."""

    def __init__(self, seed):
        self.now = 0.0
        self.runs = []  # (plan, queries) per executed batch
        self._noise = np.random.default_rng(seed)

    def cost(self, plan, n):
        fixed, per_query = _TRUE_COSTS[(plan.strategy, plan.backend)]
        return (fixed + per_query * n) * self._noise.uniform(0.9, 1.1)

    def run_plan(self, plan, batch, mode):
        self.runs.append((plan, len(batch)))
        self.now += self.cost(plan, len(batch))


@pytest.fixture
def machine(monkeypatch):
    import repro.planner.planner as planner_module

    fake = _FakeMachine(seed=5)
    monkeypatch.setattr(planner_module, "perf_counter", lambda: fake.now)
    return fake


def _calibrated_planner(index, machine):
    caps = BackendCaps(cpus=2, workers=2, compiled_ok=True)
    planner = AdaptivePlanner(index, caps=caps)
    planner.calibrate(machine.run_plan, modes=("count",), budget_s=60.0)
    assert len(planner.model.keys()) == len(_TRUE_COSTS)
    del machine.runs[:]
    return planner


def _serve(planner, machine, batch):
    """One batch through decide -> run -> observe, as the executor does."""
    decision = planner.decide(batch, mode="count", allow_split=False)
    t0 = machine.now
    machine.run_plan(decision.plan, batch, "count")
    planner.observe(
        decision.plan, "count", decision.n, decision.total_extent,
        machine.now - t0,
    )
    return decision


class TestFirstSight:
    def test_extrapolation_misranks_and_first_sight_probes_repair_it(
        self, small_hint, rng, machine
    ):
        planner = _calibrated_planner(small_hint, machine)
        batch = _uniform_batch(rng, 4096, 8)
        ranked = planner.decide(batch, mode="count", allow_split=False).table
        # The premise: fitted on 48- and 192-query probes, the model ranks
        # another plan first at 4096 queries — and, as only the chosen
        # plan's drift is ever corrected, used to stay there.
        assert ranked[0][0] != _CHEAPEST.key("count")

        plans = len(_TRUE_COSTS)
        decisions = [_serve(planner, machine, batch) for _ in range(2 * plans)]
        probed = [d.plan for d in decisions if d.source == "explore"]
        assert probed and all(probed.count(plan) <= 2 for plan in set(probed))
        # Predicted beyond the cap of the best: never handed a batch.
        assert not any(plan.strategy == "join-based" for plan, _ in machine.runs)
        settled = decisions[-1]
        assert settled.source == "model" and settled.plan == _CHEAPEST
        # Every plan within the cap now has a point at this size and the
        # model decides from there on: no further probe, same plan.
        for _ in range(20):
            decision = _serve(planner, machine, batch)
            assert decision.source == "model" and decision.plan == _CHEAPEST
        assert planner.stats()["explorations"] == len(probed) + 1  # + `ranked`
        for plan in set(probed):
            assert planner.model.timed_near(plan.key("count"), 4096)

    def test_sizes_near_a_calibrated_one_are_never_probed(
        self, small_hint, rng, machine
    ):
        planner = _calibrated_planner(small_hint, machine)
        for n in (24, 48, 100, 192, 256, 384):  # probes ran 48 and 192 queries
            for _ in range(3):
                assert _serve(planner, machine, _uniform_batch(rng, n, 8)).source == "model"
        assert planner.exploration_rate == 0.0
        # 1000 queries is a size class of its own, as 4096 would be.
        assert _serve(planner, machine, _uniform_batch(rng, 1000, 8)).source == "explore"

    def test_a_slow_first_batch_is_timed_again(self, small_hint, rng, machine):
        """Best of two however long the first took: the first ids batch of
        a process was seen at 3x the tenth, and kept, it priced its plan
        out for good."""
        planner = _calibrated_planner(small_hint, machine)
        key = "partition-based|serial|count"
        plan = Plan("partition-based", "serial")
        planner.observe(plan, "count", 1000, 8000, 0.024)
        assert not planner.model.timed_near(key, 1000)  # waits for a second
        planner.observe(plan, "count", 1100, 8800, 0.0088)
        assert planner.model.samples(key)[-1] == (1100, 8800, 0.0088)
        planner.observe(plan, "count", 8000, 64000, 0.020)
        planner.observe(plan, "count", 8000, 64000, 0.030)
        assert planner.model.samples(key)[-1] == (8000, 64000, 0.020)

    def test_first_sight_goes_in_rounds(self, small_hint, rng, machine):
        """Every plan within the cap once, then every one again: what slows
        the first batches of a process falls on no plan's kept timing."""
        planner = _calibrated_planner(small_hint, machine)
        batch = _uniform_batch(rng, 4096, 8)
        probed = []
        while (decision := _serve(planner, machine, batch)).source == "explore":
            probed.append(decision.plan)
        half = len(probed) // 2
        assert half >= 2 and len(set(probed[:half])) == half
        assert sorted(probed[half:], key=str) == sorted(probed[:half], key=str)

    def test_a_multicore_plan_must_win_by_the_margin(self, small_hint, rng):
        """A threads plan's best timing needs every core idle; a near tie
        with the one-core plan is decided for the one core."""
        from repro.planner.planner import MULTICORE_MARGIN

        batch = _uniform_batch(rng, 64, 8)
        caps = BackendCaps(cpus=2, workers=2, compiled_ok=False)
        for share, backend in ((0.95, "serial"), (MULTICORE_MARGIN - 0.05, "threads")):
            model = CostModel()
            model.fit("partition-based|serial|count", [(64, 512, 0.00100)])
            model.fit("partition-based|threads|count", [(64, 512, 0.00100 * share)])
            planner = AdaptivePlanner(
                small_hint, caps=caps, model=model, strategies=("partition-based",)
            )
            decision = planner.decide(batch, mode="count")
            assert decision.source == "model"
            assert decision.plan == Plan("partition-based", backend)
            assert decision.table[0][0] == "partition-based|threads|count"

    def test_calibration_file_from_before_first_sight_probes_still_loads(
        self, small_hint, rng, tmp_path
    ):
        """The file holds coefficients and no samples, before and after."""
        import json

        path = tmp_path / "old.json"
        entries = {
            Plan(strategy, backend).key("count"): {
                "fixed_s": fixed, "per_query_s": per_query,
                "per_extent_s": 0.0, "probes": 3,
            }
            for (strategy, backend), (fixed, per_query) in _TRUE_COSTS.items()
        }
        path.write_text(json.dumps({
            "version": 1, "created_at": 1700000000.0, "ewma_alpha": 0.25,
            "meta": {"index": {"kind": "HintIndex", "size": len(small_hint), "m": 10}},
            "entries": entries,
        }))
        px = PlannedExecutor(small_hint, model_path=str(path), workers=2)
        try:
            model = px.planner.model
            assert model.keys() == sorted(entries)
            assert model.to_dict()["entries"] == entries  # and saves the same
            # Its plans count as timed where the probe suite timed them ...
            px.execute(_uniform_batch(rng, 192, 8), mode="count")
            assert px.last_decision.source == "model"
            # ... and a refit keeps the loaded plane under the new point.
            key = _CHEAPEST.key("count")
            before = model.predict(key, 192, 0)
            px.planner.observe(_CHEAPEST, "count", 4096, 0, 0.007)
            px.planner.observe(_CHEAPEST, "count", 4096, 0, 0.006)
            assert model.timed_near(key, 4096)
            assert model.predict(key, 4096, 0) == pytest.approx(0.006, rel=0.05)
            assert model.predict(key, 192, 0) == pytest.approx(before, rel=0.25)
        finally:
            px.close()

    def test_decide_fault_on_a_first_sight_batch_degrades_to_the_static_rule(
        self, small_hint, rng, tmp_path
    ):
        from repro.verify.faults import SITE_PLANNER_DECIDE, FaultPlan

        px = PlannedExecutor(
            small_hint,
            model_path=str(tmp_path / "c.json"),
            calibrate=True,
            calibration_modes=("count",),
            calibration_budget_s=30.0,
            fault_plan=FaultPlan.once(SITE_PLANNER_DECIDE, after=1),
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
# the executor front (calibration + engine integration)
# --------------------------------------------------------------------- #


class TestPlannedExecutor:
    def test_calibration_persists_and_is_reused(self, small_hint, tmp_path):
        path = str(tmp_path / "cal.json")
        px = PlannedExecutor(small_hint, model_path=path, calibrate=True)
        try:
            assert px.planner.model.calibrated
            saved = CostModel.load(path)
            assert saved.to_dict()["entries"] == px.planner.model.to_dict()["entries"]
        finally:
            px.close()
        fresh = PlannedExecutor(small_hint, model_path=path, calibrate=True)
        try:
            # Reused, not re-probed: identical coefficients.
            assert (
                fresh.planner.model.to_dict()["entries"]
                == saved.to_dict()["entries"]
            )
        finally:
            fresh.close()

    def test_stale_calibration_for_other_index_is_ignored(
        self, small_hint, rng, tmp_path
    ):
        path = str(tmp_path / "cal.json")
        model = CostModel(
            meta={"index": {"kind": "ShardedHint", "size": len(small_hint)}}
        )
        model.fit("partition-based|serial|count", [(10, 10, 0.01)])
        model.save(path)
        px = PlannedExecutor(small_hint, model_path=path)
        try:
            assert not px.planner.model.calibrated  # kind mismatch: fresh model
        finally:
            px.close()

    def test_calibration_from_another_machine_is_ignored(
        self, small_hint, tmp_path
    ):
        """A file recorded with other cores lacks (or has extra) legal
        plans; reusing it would leave every mode on the prior for good."""
        path = str(tmp_path / "cal.json")
        model = CostModel(
            meta={
                "index": {"kind": "HintIndex", "size": len(small_hint)},
                "machine": {"cpus": 9999, "workers": 9999},
            }
        )
        model.fit("partition-based|serial|count", [(10, 10, 0.01)])
        model.save(path)
        px = PlannedExecutor(small_hint, model_path=path)
        try:
            assert not px.planner.model.calibrated
        finally:
            px.close()

    def test_size_drift_invalidates_calibration(self, small_hint, tmp_path):
        path = str(tmp_path / "cal.json")
        model = CostModel(
            meta={"index": {"kind": "HintIndex", "size": len(small_hint) * 10}}
        )
        model.fit("partition-based|serial|count", [(10, 10, 0.01)])
        model.save(path)
        px = PlannedExecutor(small_hint, model_path=path)
        try:
            assert not px.planner.model.calibrated
        finally:
            px.close()

    def test_pinned_backend_bypasses_planner(self, small_hint, rng, tmp_path):
        px = PlannedExecutor(
            small_hint, model_path=str(tmp_path / "c.json"), calibrate=True
        )
        try:
            batch = _uniform_batch(rng, 32, 8)
            px.execute(batch, mode="count", backend="serial")
            assert px.last_decision is None  # planner never consulted
        finally:
            px.close()

    def test_rejects_unknown_strategy_and_mode(self, small_hint, rng, tmp_path):
        px = PlannedExecutor(small_hint, model_path=str(tmp_path / "c.json"))
        try:
            batch = _uniform_batch(rng, 8, 8)
            with pytest.raises(ValueError, match="unknown strategy"):
                px.execute(batch, strategy="frobnicate", mode="count")
            with pytest.raises(ValueError, match="unknown result mode"):
                px.execute(batch, mode="frobnicate")
        finally:
            px.close()

    def test_empty_batch_short_circuits(self, small_hint, tmp_path):
        px = PlannedExecutor(small_hint, model_path=str(tmp_path / "c.json"))
        try:
            result = px.execute(QueryBatch([], []), mode="ids")
            assert len(result.counts) == 0
        finally:
            px.close()


# --------------------------------------------------------------------- #
# extent summaries (the splitter's statistics)
# --------------------------------------------------------------------- #


class TestExtentSummary:
    def test_against_numpy_oracle(self, rng):
        for n in (1, 2, 7, 100, 1023):
            st = rng.integers(0, 5000, size=n)
            ext = rng.integers(0, 800, size=n)
            batch = QueryBatch(st, st + ext)
            summary = summarize_extents(batch, percentiles=(0, 25, 50, 75, 90, 100))
            oracle = np.sort(np.asarray(batch.end) - np.asarray(batch.st))
            assert summary.num_queries == n
            assert summary.total_extent == int(oracle.sum())
            assert summary.min_extent == int(oracle[0])
            assert summary.max_extent == int(oracle[-1])
            assert summary.mean_extent == pytest.approx(float(oracle.mean()))
            for p, value in summary.percentiles.items():
                assert value == int(oracle[(p * (n - 1)) // 100]), (n, p)

    def test_empty_batch(self):
        summary = summarize_extents(QueryBatch([], []))
        assert summary.num_queries == 0
        assert summary.total_extent == 0
        assert summary.percentiles == {50: 0, 75: 0, 90: 0}
        assert summary.heterogeneity == 1.0

    def test_heterogeneity_ratio(self, rng):
        batch = _mixed_batch(rng, 900, 100, 4, 400)
        summary = summarize_extents(batch)
        assert summary.heterogeneity == pytest.approx(
            summary.percentiles[90] / summary.percentiles[50]
        )
        flat = _uniform_batch(rng, 1000, 8)
        assert summarize_extents(flat).heterogeneity == 1.0

    def test_extents_match_endpoints(self):
        batch = QueryBatch([10, 20], [10, 30])
        assert batch_extents(batch).tolist() == [0, 10]

    def test_invalid_percentile_rejected(self, rng):
        with pytest.raises(ValueError, match="outside"):
            summarize_extents(_uniform_batch(rng, 4, 2), percentiles=(101,))
