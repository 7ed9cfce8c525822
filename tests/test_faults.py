"""Tests for seeded fault injection (``repro.verify.faults``).

The first half pins down the :class:`FaultPlan` mechanism itself
(rule validation, ``after``/``times``/``probability`` semantics, seed
determinism, injectable sleep).  The second half installs plans into the
real production hooks — service flush, strategy execution, index swap,
dynamic rebuild — and proves the error-path contracts: every staged
future resolves exactly once, metrics still add up, state stays
consistent and the component recovers after the fault clears.
"""

from __future__ import annotations

import pytest

from repro import (
    BatchingQueryService,
    DynamicHint,
    FaultPlan,
    FaultRule,
    HintIndex,
    InjectedFault,
    verify_index,
)
from repro.verify.faults import (
    ACTIONS,
    SITE_FLUSH,
    SITE_REBUILD,
    SITE_STRATEGY,
    SITE_SWAP,
    SITES,
)
from tests.conftest import random_collection

WAIT = 30.0


# --------------------------------------------------------------------- #
# the FaultPlan mechanism
# --------------------------------------------------------------------- #


class TestFaultRuleValidation:
    def test_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultRule(site="service.frobnicate")

    def test_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site=SITE_FLUSH, action="explode")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": -0.1},
            {"probability": 1.5},
            {"times": 0},
            {"after": -1},
            {"delay": -1.0},
        ],
    )
    def test_bad_numbers(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(site=SITE_FLUSH, **kwargs)

    def test_plan_rejects_non_rules(self):
        with pytest.raises(TypeError, match="expected FaultRule"):
            FaultPlan(["not a rule"])

    def test_fire_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultPlan.once(SITE_FLUSH).fire("nope")

    def test_constants(self):
        assert set(SITES) == {
            "strategy.execute",
            "service.flush",
            "service.swap_index",
            "dynamic.rebuild",
            "cache.invalidate",
            "net.accept",
            "net.decode",
            "planner.decide",
        }
        assert ACTIONS == ("raise", "delay")


class TestFaultPlanSemantics:
    def test_once_fires_exactly_once(self):
        plan = FaultPlan.once(SITE_FLUSH)
        with pytest.raises(InjectedFault, match="service.flush"):
            plan.fire(SITE_FLUSH)
        for _ in range(5):
            plan.fire(SITE_FLUSH)  # disarmed
        assert plan.hits(SITE_FLUSH) == 1
        assert plan.passes(SITE_FLUSH) == 6
        assert plan.total_hits() == 1
        assert plan.history == [(SITE_FLUSH, 1, "raise")]

    def test_after_skips_initial_passes(self):
        plan = FaultPlan.once(SITE_REBUILD, after=2)
        plan.fire(SITE_REBUILD)
        plan.fire(SITE_REBUILD)
        with pytest.raises(InjectedFault, match="pass 3"):
            plan.fire(SITE_REBUILD)

    def test_sites_are_independent(self):
        plan = FaultPlan.once(SITE_SWAP)
        plan.fire(SITE_FLUSH)
        plan.fire(SITE_STRATEGY)
        with pytest.raises(InjectedFault):
            plan.fire(SITE_SWAP)
        assert plan.hits(SITE_FLUSH) == 0

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan(
                FaultRule(site=SITE_FLUSH, probability=0.4), seed=seed
            )
            fired = []
            for _ in range(50):
                try:
                    plan.fire(SITE_FLUSH)
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # astronomically unlikely to match
        assert 5 < sum(pattern(7)) < 35  # roughly the asked-for rate

    def test_first_eligible_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule(site=SITE_FLUSH, action="delay", delay=0.5, times=1),
                FaultRule(site=SITE_FLUSH, times=1),
            ],
            sleep=lambda s: None,
        )
        plan.fire(SITE_FLUSH)  # delay rule wins pass 1, no raise
        with pytest.raises(InjectedFault):
            plan.fire(SITE_FLUSH)  # delay exhausted; raise rule fires
        assert [a for _, _, a in plan.history] == ["delay", "raise"]

    def test_delay_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan(
            FaultRule(site=SITE_STRATEGY, action="delay", delay=0.25, times=2),
            sleep=slept.append,
        )
        for _ in range(4):
            plan.fire(SITE_STRATEGY)
        assert slept == [0.25, 0.25]

    def test_exc_factory_overrides_exception(self):
        plan = FaultPlan(
            FaultRule(site=SITE_FLUSH, exc_factory=lambda: OSError("disk gone"))
        )
        with pytest.raises(OSError, match="disk gone"):
            plan.fire(SITE_FLUSH)

    def test_repr_mentions_activity(self):
        plan = FaultPlan.once(SITE_FLUSH)
        with pytest.raises(InjectedFault):
            plan.fire(SITE_FLUSH)
        assert "fired=1" in repr(plan)


# --------------------------------------------------------------------- #
# faults wired into the batching service
# --------------------------------------------------------------------- #


def make_service(rng, plan, **kwargs):
    coll = random_collection(rng, 500, 1023)
    index = HintIndex(coll, m=10)
    kwargs.setdefault("mode", "ids")
    kwargs.setdefault("max_batch", 64)
    kwargs.setdefault("max_delay_ms", 60_000.0)
    return BatchingQueryService(index, fault_plan=plan, **kwargs), coll


class TestServiceFaults:
    @pytest.mark.parametrize("site", [SITE_FLUSH, SITE_STRATEGY])
    def test_flush_fault_resolves_every_future_then_recovers(self, rng, site):
        plan = FaultPlan.once(site)
        svc, coll = make_service(rng, plan)
        try:
            doomed = [svc.submit(0, 200), svc.submit(300, 600)]
            svc.flush()
            for f in doomed:
                with pytest.raises(InjectedFault):
                    f.result(timeout=WAIT)

            # The service survives: the next batch is answered correctly.
            ok = svc.submit(0, 1023)
            svc.flush()
            assert set(ok.result(timeout=WAIT).tolist()) == set(
                coll.ids.tolist()
            )

            snap = svc.metrics.snapshot()
            assert snap.submitted == 3
            assert snap.failed == 2
            assert snap.completed == 1
            assert snap.submitted == snap.completed + snap.failed
            assert plan.hits(site) == 1
        finally:
            svc.close()
        assert svc.queue_depth == 0

    def test_swap_fault_keeps_old_index(self, rng):
        plan = FaultPlan.once(SITE_SWAP)
        svc, coll = make_service(rng, plan)
        try:
            old = svc.index
            replacement = HintIndex(random_collection(rng, 50, 1023), m=10)
            with pytest.raises(InjectedFault):
                svc.swap_index(replacement)
            assert svc.index is old
            assert svc.metrics.snapshot().index_swaps == 0

            # Queries still run against the surviving index...
            f = svc.submit(0, 1023)
            svc.flush()
            assert set(f.result(timeout=WAIT).tolist()) == set(coll.ids.tolist())

            # ...and the next swap (plan disarmed) goes through.
            svc.swap_index(replacement)
            assert svc.index is replacement
            assert svc.metrics.snapshot().index_swaps == 1
        finally:
            svc.close()

    def test_delay_fault_slows_flush_but_loses_nothing(self, rng):
        plan = FaultPlan.delaying(SITE_FLUSH, 0.05, times=2)
        svc, coll = make_service(rng, plan)
        try:
            futures = [svc.submit(i * 10, i * 10 + 50) for i in range(8)]
            svc.flush()
            for f in futures:
                f.result(timeout=WAIT)
        finally:
            svc.close()  # the drain flush may also be delayed; must finish
        snap = svc.metrics.snapshot()
        assert snap.submitted == snap.completed == 8
        assert snap.failed == 0
        assert plan.hits(SITE_FLUSH) >= 1


# --------------------------------------------------------------------- #
# faults wired into the dynamic index rebuild
# --------------------------------------------------------------------- #


class TestDynamicRebuildFaults:
    def test_failed_rebuild_is_atomic(self):
        plan = FaultPlan.once(SITE_REBUILD)
        dyn = DynamicHint(m=8, rebuild_threshold=3, fault_plan=plan)
        ids = [dyn.insert(i * 5, i * 5 + 20) for i in range(2)]
        with pytest.raises(InjectedFault):
            dyn.insert(100, 140)  # third staged insert trips the rebuild

        # Nothing was lost or half-merged: the failed insert is still
        # staged, accounting and queries are intact.
        verify_index(dyn)
        assert len(dyn) == 3
        assert dyn.buffered == 3
        assert dyn.rebuilds == 0
        assert set(dyn.query(0, 255).tolist()) == set(ids) | {2}

        dyn.compact()  # plan disarmed: the retry succeeds
        verify_index(dyn)
        assert dyn.buffered == 0
        assert dyn.rebuilds == 1
        assert set(dyn.query(0, 255).tolist()) == set(ids) | {2}

    def test_failed_rebuild_during_delete_churn(self):
        plan = FaultPlan.once(SITE_REBUILD, after=1)
        dyn = DynamicHint(m=8, rebuild_threshold=4, fault_plan=plan)
        ids = [dyn.insert(i, i + 10) for i in range(4)]  # rebuild 1: allowed
        dyn.delete(ids[0])
        with pytest.raises(InjectedFault):
            dyn.compact()  # rebuild 2: injected
        verify_index(dyn)
        assert len(dyn) == 3
        assert set(dyn.query(0, 255).tolist()) == set(ids[1:])
        dyn.compact()
        assert set(dyn.query(0, 255).tolist()) == set(ids[1:])
