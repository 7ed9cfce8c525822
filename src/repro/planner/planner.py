"""The adaptive plan selector.

:class:`AdaptivePlanner` scores every legal :class:`~repro.planner.plan.
Plan` for a batch with the calibrated :class:`~repro.planner.costmodel.
CostModel` and picks the cheapest — falling back to the paper-rule /
threshold prior (:mod:`repro.planner.policy`) whenever some legal plan
for the batch's mode is still uncalibrated, so cold-start behaviour is
exactly the static policy and a half-probed mode is never pinned to
the plans that happened to be probed.  Heterogeneous batches
additionally consider a :class:`~repro.planner.plan.SplitPlan`: cut at
an extent percentile and route each side to its own cheapest plan,
accepted only when the predicted sum beats the best single plan by a
margin.

A prediction for a batch size no probe came within a factor of two of
is an extrapolation, and nothing that runs afterwards prices the plans
that were not picked, so a first pick made on extrapolations would stick.  Such a plan is
therefore handed the batch itself (``source="explore"``): never a plan
predicted beyond :data:`EXPLORE_CAP` of the best, two batches each and
the better kept, in rounds (every such plan once, cheapest prediction
first, then every one again) so that the slow first batches of a
process fall on all of them alike and on no kept timing.  The timing
joins the plan's samples and the plan is fitted again; once every plan
within the cap has a point at that size the model decides — two real,
correctly answered batches per plan per size class over the life of
the process.

Every decision runs inside a ``planner.decide`` span (attributes say
which plan won, why, and at what predicted cost) and bumps the
``repro_planner_*`` series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.analysis.batch_stats import ExtentSummary, batch_extents, summarize_extents
from repro.intervals.batch import QueryBatch
from repro.planner.costmodel import CostModel, Sample, probe_points
from repro.planner.plan import BackendCaps, Plan, SplitPlan, plan_space
from repro.planner.policy import cold_start_recommendation

__all__ = ["AdaptivePlanner", "Decision", "EXPLORE_CAP", "MULTICORE_MARGIN"]

#: A plan predicted beyond this factor of the best plan is never handed a
#: batch to learn from: bounds what one first-sight batch can cost.
EXPLORE_CAP = 4.0

#: A plan on several cores is chosen only when predicted below this share
#: of the cheapest one-core plan: its best timing needs every core idle,
#: which a shared machine grants one minute and not the next (2 shards,
#: ids: 6.5 ms against 6.2 on one core when idle, 12 against 7.5 when not).
MULTICORE_MARGIN = 0.8


@dataclass
class Decision:
    """One planning outcome, with enough context to explain itself."""

    plan: Union[Plan, SplitPlan]
    mode: str
    source: str  # "model" | "prior" | "explore"
    predicted_s: Optional[float] = None
    reason: str = ""
    #: Batch features the decision was made on (cost-model inputs).
    n: int = 0
    total_extent: int = 0
    #: Scored alternatives, cheapest first: ``(plan key, predicted_s)``.
    table: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def split(self) -> bool:
        return isinstance(self.plan, SplitPlan)

    def describe(self) -> str:
        cost = "" if self.predicted_s is None else f" ~{self.predicted_s * 1e3:.3f}ms"
        return f"{self.plan.describe()} [{self.source}]{cost}"


class AdaptivePlanner:
    """Cost-calibrated plan selection over one installed index.

    Parameters
    ----------
    index:
        The installed index (HintIndex / ShardedHint); only its shape
        enters — the planner never executes anything itself.
    caps:
        Machine/index capabilities; derived from *index* when omitted.
    model:
        A (possibly pre-loaded) :class:`CostModel`; a fresh empty one
        when omitted — the planner then behaves exactly like the static
        prior until :meth:`calibrate` runs.
    split_margin:
        A split is chosen only when its predicted total is below the
        best single plan's prediction times this factor (< 1.0), so
        model noise near the break-even point keeps the simpler plan.
    min_split_batch:
        Batches smaller than this never split — per-side fixed costs
        dominate.
    """

    def __init__(
        self,
        index,
        *,
        caps: Optional[BackendCaps] = None,
        model: Optional[CostModel] = None,
        split_margin: float = 0.9,
        min_split_batch: int = 512,
        min_heterogeneity: float = 2.0,
        strategies: Optional[Sequence[str]] = None,
    ):
        self._index = index
        self.caps = caps if caps is not None else BackendCaps.from_index(index)
        self.model = model if model is not None else CostModel()
        self.split_margin = float(split_margin)
        self.min_split_batch = int(min_split_batch)
        self.min_heterogeneity = float(min_heterogeneity)
        self.strategies = tuple(strategies) if strategies is not None else None
        self._collection_size = int(getattr(index, "size", None) or len(index))
        self._decisions = 0
        self._explorations = 0
        #: plan key -> the first of a first-sight pair of timings.
        self._first_sight: Dict[str, Sample] = {}

    # ------------------------------------------------------------------ #
    # deciding
    # ------------------------------------------------------------------ #

    def decide(
        self,
        batch: QueryBatch,
        *,
        mode: str = "count",
        strategy: Optional[str] = None,
        allow_split: bool = True,
    ) -> Decision:
        """Pick the plan for *batch*; ``strategy`` pins that dimension."""
        ob = obs.active()
        if ob is None:
            return self._decide_inner(batch, mode, strategy, allow_split, None)
        with ob.span("planner.decide", queries=len(batch), mode=mode) as sp:
            decision = self._decide_inner(batch, mode, strategy, allow_split, ob)
            sp.attrs["plan"] = (
                decision.plan.describe()
                if decision.split
                else decision.plan.key(mode)
            )
            sp.attrs["source"] = decision.source
            if decision.predicted_s is not None:
                sp.attrs["predicted_s"] = decision.predicted_s
        return decision

    def _decide_inner(self, batch, mode, strategy, allow_split, ob) -> Decision:
        n = len(batch)
        self._decisions += 1
        pinned = [strategy] if strategy is not None else self.strategies
        plans = plan_space(self.caps, strategies=pinned)
        summary = summarize_extents(batch)

        scored: List[Tuple[float, Plan]] = []
        for plan in plans:
            predicted = self._fitted(plan, mode, n, summary.total_extent)
            if predicted is not None:
                scored.append((predicted, plan))
        scored.sort(key=lambda item: item[0])
        table = [(plan.key(mode), cost) for cost, plan in scored]

        if len(scored) < len(plans):
            # Some legal plan has no coefficients: "cheapest of the
            # plans that happen to be calibrated" would pin the batch to
            # whatever the probe budget reached, so the prior decides.
            decision = self._prior_decision(n, mode, strategy)
            decision.table = table
            decision.n, decision.total_extent = n, summary.total_extent
            self._record(decision, ob)
            return decision

        # Plans still waiting for their first timing at this size go
        # before those waiting for their second, cheapest prediction first.
        unseen = []
        for cost, plan in scored:
            if cost > scored[0][0] * EXPLORE_CAP:
                break
            key = plan.key(mode)
            if not self.model.timed_near(key, n):
                unseen.append((key in self._first_sight, cost, plan))
        if unseen:
            _, cost, plan = min(unseen, key=lambda item: item[:2])
            self._explorations += 1
            decision = Decision(
                plan=plan,
                mode=mode,
                source="explore",
                predicted_s=cost,
                reason=(
                    f"never timed within 2x of {n} queries (predicted "
                    f"within {EXPLORE_CAP:g}x of the best plan)"
                ),
                table=table,
                n=n,
                total_extent=summary.total_extent,
            )
            self._record(decision, ob)
            return decision

        best_cost, best_plan = _pick(scored)
        decision = Decision(
            plan=best_plan,
            mode=mode,
            source="model",
            predicted_s=best_cost,
            reason="cheapest calibrated plan",
            table=table,
            n=n,
            total_extent=summary.total_extent,
        )

        if allow_split:
            split = self._consider_split(batch, summary, mode, scored)
            if split is not None:
                split.table = table
                decision = split

        self._record(decision, ob)
        return decision

    def _fitted(self, plan: Plan, mode: str, n: int, extent: int) -> Optional[float]:
        """What the plan's fitted coefficients say, without its drift.

        Plans are ranked on this.  The drift ratio is known only for the
        plan that has been running, and most of what it sees slows every
        plan alike (a busy minute on a shared machine, typical against
        best-of-two timing): ranking on it priced the plan in use at its
        usual time and every other at its best, so twins traded places on
        noise and a slow minute sent batches to plans that are slower.
        """
        cost = self.model.entry(plan.key(mode))
        return None if cost is None else cost.predict(n, extent)

    def _prior_decision(self, n: int, mode: str, strategy: Optional[str]) -> Decision:
        """The cold-start plan: paper-rule strategy, threshold backend.

        The backend is left as ``auto``: the engine resolves the static
        rule per batch (it alone knows whether its process pool is up),
        so pre-calibration behaviour is *exactly* the bare engine.
        """
        if strategy is not None:
            chosen, reason = strategy, "strategy pinned by caller"
        else:
            chosen, reason = cold_start_recommendation(self._collection_size, n)
        return Decision(
            plan=Plan(strategy=chosen, backend="auto"),
            mode=mode,
            source="prior",
            predicted_s=None,
            reason=f"{reason}; backend by the engine's static rule",
        )

    def _consider_split(
        self,
        batch: QueryBatch,
        summary: ExtentSummary,
        mode: str,
        scored: List[Tuple[float, Plan]],
    ) -> Optional[Decision]:
        """Try extent-percentile cuts; keep one only if it clearly wins."""
        n = summary.num_queries
        if n < self.min_split_batch:
            return None
        if summary.heterogeneity < self.min_heterogeneity:
            return None
        best_cost, _ = scored[0]
        ext = batch_extents(batch)
        thresholds = sorted(
            {
                t
                for t in summary.percentiles.values()
                if summary.min_extent <= t < summary.max_extent
            }
        )
        best_split: Optional[Tuple[float, SplitPlan]] = None
        for threshold in thresholds:
            mask = ext <= threshold
            n_narrow = int(mask.sum())
            n_wide = n - n_narrow
            if n_narrow == 0 or n_wide == 0:
                continue
            e_narrow = int(ext[mask].sum())
            e_wide = summary.total_extent - e_narrow
            narrow = self._cheapest(scored, n_narrow, e_narrow, mode)
            wide = self._cheapest(scored, n_wide, e_wide, mode)
            (c_narrow, p_narrow), (c_wide, p_wide) = narrow, wide
            if p_narrow == p_wide:
                continue  # same plan on both sides: splitting only adds overhead
            total = c_narrow + c_wide
            if best_split is None or total < best_split[0]:
                best_split = (
                    total,
                    SplitPlan(threshold=int(threshold), narrow=p_narrow, wide=p_wide),
                )
        if best_split is None:
            return None
        total, split = best_split
        if total >= best_cost * self.split_margin:
            return None
        return Decision(
            plan=split,
            mode=mode,
            source="model",
            predicted_s=total,
            reason=(
                f"extent split beats best single plan "
                f"({total * 1e3:.3f}ms vs {best_cost * 1e3:.3f}ms predicted)"
            ),
            n=n,
            total_extent=summary.total_extent,
        )

    def _cheapest(
        self,
        scored: List[Tuple[float, Plan]],
        n: int,
        total_extent: int,
        mode: str,
    ) -> Tuple[float, Plan]:
        """The plan for a sub-batch's features (:func:`_pick`)."""
        return _pick(sorted(
            ((self._fitted(plan, mode, n, total_extent), plan) for _, plan in scored),
            key=lambda item: item[0],
        ))

    def _record(self, decision: Decision, ob) -> None:
        if ob is None:
            return
        if decision.split:
            keys = [
                decision.plan.narrow.key(decision.mode),
                decision.plan.wide.key(decision.mode),
            ]
        else:
            keys = [decision.plan.key(decision.mode)]
        ob.record_planner_decision(
            keys, decision.source, split=decision.split
        )
        if decision.source == "explore":
            ob.record_planner_exploration()
        age = self.model.age_seconds()
        if age is not None:
            ob.record_planner_calibration_age(age)

    # ------------------------------------------------------------------ #
    # feedback + calibration
    # ------------------------------------------------------------------ #

    def observe(
        self, plan: Plan, mode: str, n: int, total_extent: int, seconds: float
    ) -> Optional[float]:
        """Fold one executed (sub-)plan's latency back into the model:
        a sample to fit again from when the plan was never timed near *n*
        queries, drift of the fitted prediction otherwise."""
        key = plan.key(mode)
        if not self.model.timed_near(key, n) and self.model.entry(key) is not None:
            self._learn(key, (n, total_extent, seconds))
            return None
        rel_error = self.model.observe(key, n, total_extent, seconds)
        if rel_error is not None:
            ob = obs.active()
            if ob is not None:
                ob.record_planner_cost_error(rel_error)
        return rel_error

    def _learn(self, key: str, sample: Sample) -> None:
        """Best of two batches, however long the first took: the first of
        a process at a new size costs 3x the tenth (fresh result pages)."""
        first = self._first_sight.pop(key, None)
        if first is None:
            self._first_sight[key] = sample
            return
        if first[2] * sample[0] < sample[2] * first[0]:
            sample = first  # fewer seconds per query
        self.model.fit(key, self.model.samples(key) + [sample])

    @property
    def exploration_rate(self) -> float:
        """Fraction of decisions so far that were first-sight probes."""
        if not self._decisions:
            return 0.0
        return self._explorations / self._decisions

    def calibrate(
        self,
        run_plan: Callable[[Plan, QueryBatch, str], object],
        *,
        modes: Sequence[str] = ("count", "checksum", "ids"),
        budget_s: float = 0.12,
        seed: int = 0,
        save_path: Optional[str] = None,
    ) -> CostModel:
        """Startup micro-calibration: seeded probes, lstsq per plan.

        *run_plan* executes ``(plan, batch, mode)`` on the real installed
        index (the executor passes its engine).  Each (plan, mode) pair
        gets one untimed warm-up (first-call costs — kernel warm-up,
        lazily built sort caches — belong to no steady-state
        coefficient), then three probes spanning the feature space —
        two batch sizes at a narrow extent plus a wide-extent batch,
        best-of-two each — fitted into ``(fixed, per_query,
        per_extent)``.  *budget_s* is checked between modes: a mode is
        probed as a unit or not at all, because the model only decides
        for a mode whose every plan is fitted (a skipped mode stays on
        the prior).  Deterministic under *seed*.
        """
        rng = np.random.default_rng(seed)
        top = _domain_top(self._index)
        probes = _probe_batches(rng, top)
        t_start = perf_counter()
        plans = plan_space(self.caps, strategies=self.strategies)
        for mode in modes:
            if perf_counter() - t_start > budget_s:
                break
            for plan in plans:
                t0 = perf_counter()
                run_plan(plan, probes[0][0], mode)  # warm-up, not a probe
                warm_dt = perf_counter() - t0
                # A plan too slow to probe twice within what remains of
                # the budget (it would not win anyway) keeps its warm-up
                # time as a flat fixed cost, so the mode is still whole.
                remaining = budget_s - (perf_counter() - t_start)
                if warm_dt * 2 * len(probes) > remaining and remaining < budget_s / 2:
                    self.model.fit(plan.key(mode), [(0, 0, warm_dt)])
                    continue
                samples: List[Tuple[int, int, float]] = []
                for batch, total_extent in probes:
                    best = None
                    # Best-of-two absorbs scheduler noise; a probe that
                    # already cost > 5 ms is measured once — noise is
                    # relatively small there and budget is precious.
                    for _ in range(2):
                        t0 = perf_counter()
                        run_plan(plan, batch, mode)
                        dt = perf_counter() - t0
                        best = dt if best is None else min(best, dt)
                        if dt > 0.005:
                            break
                    samples.append((len(batch), total_extent, best))
                self.model.fit(plan.key(mode), samples)
        self.model.meta.setdefault("index", _index_meta(self._index))
        self.model.meta.setdefault(
            "machine", {"cpus": self.caps.cpus, "workers": self.caps.workers}
        )
        if save_path is not None:
            self.model.save(save_path)
        return self.model

    def stats(self) -> Dict[str, object]:
        """Introspection snapshot (plan-sim, tests)."""
        return {
            "decisions": self._decisions,
            "explorations": self._explorations,
            "exploration_rate": self.exploration_rate,
            "calibrated_plans": self.model.keys(),
            "calibration_age_s": self.model.age_seconds(),
        }


def _pick(scored: List[Tuple[float, Plan]]) -> Tuple[float, Plan]:
    """The cheapest of *scored* (cheapest first) — unless that plan runs
    on several cores and is not :data:`MULTICORE_MARGIN` below the
    cheapest that runs on one."""
    one_core = next(
        (item for item in scored if not item[1].backend.startswith("threads")),
        scored[0],
    )
    return scored[0] if scored[0][0] < one_core[0] * MULTICORE_MARGIN else one_core


def _domain_top(index) -> int:
    """Top usable domain value of any supported index kind."""
    m = getattr(index, "m", None)
    if m is not None:
        return (1 << int(m)) - 1
    top = getattr(index, "_domain_top", None)
    if top is not None:
        return int(top)
    shards = getattr(index, "shards", None)
    if shards:
        return int(shards[-1].hi)
    return (1 << 16) - 1


def _index_meta(index) -> dict:
    return {
        "kind": type(index).__name__,
        "size": int(getattr(index, "size", None) or len(index)),
        "m": int(getattr(index, "m", 0) or 0),
    }


def _probe_batches(rng, top: int) -> List[Tuple[QueryBatch, int]]:
    """The seeded probe suite: (batch, total_extent) feature points, three
    of them (:func:`probe_points`) so the fit is determined."""
    out: List[Tuple[QueryBatch, int]] = []
    for n, extent in probe_points(top):
        st = rng.integers(0, max(top - extent, 1), size=n)
        ext = rng.integers(extent // 2, extent + 1, size=n)
        end = np.minimum(st + ext, top)
        batch = QueryBatch(st, end)
        out.append((batch, int((batch.end - batch.st).sum())))
    return out
