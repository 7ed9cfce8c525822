"""The adaptive plan selector: it learns only from the batches it runs.

:class:`AdaptivePlanner` picks a :class:`~repro.planner.plan.Plan` for
each batch from what the legal plans have been seen to cost at about its
size (:class:`~repro.planner.costmodel.CostModel`).  Nothing is probed
at start-up and nothing is read from disk.

A plan never timed within a factor of two of the batch in front of it is
handed that batch (``source="explore"``), in rounds: every such plan
once — the paper-rule plan
(:func:`~repro.core.advisor.cold_start_recommendation` on ``serial``)
first, so a fresh process begins where the bare engine would — then
every one within :data:`EXPLORE_CAP` again, the better of its two
timings kept.
The first batches of a process are slow for reasons that are no plan's
price (fresh result pages), and in rounds that falls on every first
timing and on no kept one.

Once some plan has been seen at that size, a plan's first look runs
only the first quarter of the batch and the cheapest plan seen there
answers the rest (``Decision.beside``): a plan ten times the best costs
3.25 batches' worth to look at, not 10.  A plan whose first look is
beyond :data:`EXPLORE_CAP` of the best seen at that size gets no second
— that look, scaled to the batch, is kept — and it cannot be the best:
its quarter of the batch took longer than the best plan took on all of
it, and a plan's cost grows with its queries.  A second look runs the
whole batch, so the timing kept of every plan within the cap is of a
whole batch, and no plan's fixed costs are spread over fewer queries
than another's.

Once every plan has a timing near the batch size the cheapest is chosen
(``source="model"``) and **settled**: remembered per (mode, size class,
strategy set), so the batches after it are decided by one lookup.  The
settled plan's observed/predicted ratio is followed by an EWMA; when it
leaves :data:`DRIFT_BAND` the class is re-opened — the timings near that
size are forgotten and first sight runs again — so a timing taken in an
unrepresentative moment, or a machine that slows down mid-run, is
measured again instead of pinning the plan.

Every decision runs inside a ``planner.decide`` span (attributes say
which plan won, why, and at what predicted cost) and bumps the
``repro_planner_*`` series.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.intervals.batch import QueryBatch
from repro.core.advisor import cold_start_recommendation
from repro.planner.costmodel import CostModel, Sample, near
from repro.planner.plan import BackendCaps, Plan, plan_space

__all__ = [
    "AdaptivePlanner",
    "Decision",
    "DRIFT_BAND",
    "EXPLORE_CAP",
    "MULTICORE_MARGIN",
]

#: A plan whose first look at a size (a quarter of a batch) is, per
#: query, beyond this factor of the best timing there gets no second:
#: bounds what learning a size costs.  At 4 such a plan took longer on
#: its quarter than the best took on the whole batch.
EXPLORE_CAP = 4.0

#: A plan on several cores is chosen only when predicted below this share
#: of the cheapest one-core plan: its best timing needs every core idle,
#: which a shared machine grants one minute and not the next (2 shards,
#: ids: 6.5 ms against 6.2 on one core when idle, 12 against 7.5 when not).
MULTICORE_MARGIN = 0.8

#: A settled decision is re-opened when its plan's observed/predicted
#: ratio (EWMA, weight DRIFT_ALPHA per batch) leaves DRIFT_BAND of 1:
#: the timings it was chosen on no longer describe the batches (an idle
#: second core that is busy now, a machine that slowed down).  Slow
#: minutes on a shared host move pure-CPU code by 1.3-1.6x, and a kept
#: timing is the better of two; DRIFT_BAND stays clear of both.
DRIFT_BAND = 2.0
DRIFT_ALPHA = 0.25


@dataclass
class Decision:
    """One planning outcome, with enough context to explain itself."""

    plan: Plan
    mode: str
    source: str  # "model" | "explore"
    predicted_s: Optional[float] = None
    reason: str = ""
    n: int = 0
    #: Plans timed near this size, cheapest first: ``(plan key, seconds)``.
    table: List[Tuple[str, float]] = field(default_factory=list)
    #: The (mode, size class, strategies) slot a model decision settles.
    slot: Optional[tuple] = field(default=None, repr=False)
    #: On a first-sight batch, the cheapest plan seen at this size: it
    #: answers the queries after the first ``head`` ones.
    beside: Optional[Plan] = None
    head: int = 0

    @property
    def timed(self) -> int:
        """Queries ``plan`` runs, and is timed on: the whole batch, or
        its first ``head`` queries when ``beside`` answers the rest."""
        return self.n if self.beside is None else self.head

    def describe(self) -> str:
        cost = "" if self.predicted_s is None else f" ~{self.predicted_s * 1e3:.3f}ms"
        rest = ""
        if self.beside is not None:
            rest = f" ({self.head}; rest on {self.beside.describe()})"
        return f"{self.plan.describe()}{rest} [{self.source}]{cost}"


@dataclass
class _Settled:
    """A size class's chosen plan, its price, and how far it has moved."""

    plan: Plan
    table: List[Tuple[str, float]]
    rate: float  # predicted seconds per query when settled
    drift: Optional[float] = None  # EWMA of observed / predicted

    def moved(self, ratio: float) -> bool:
        """Fold one batch in; whether the drift has left the band."""
        if self.drift is None:
            self.drift = ratio
        else:
            self.drift += DRIFT_ALPHA * (ratio - self.drift)
        return not 1.0 / DRIFT_BAND <= self.drift <= DRIFT_BAND


class AdaptivePlanner:
    """Plan selection over one installed index, learned from its batches.

    Parameters
    ----------
    index:
        The installed index (HintIndex / ShardedHint); only its shape
        enters — the planner never executes anything itself.
    caps:
        Machine/index capabilities; derived from *index* when omitted.
    model:
        The timings to start from; an empty :class:`CostModel` when
        omitted.
    strategies:
        The strategy dimension of the plan space (default
        :data:`~repro.planner.plan.DEFAULT_STRATEGIES`).
    """

    def __init__(
        self,
        index,
        *,
        caps: Optional[BackendCaps] = None,
        model: Optional[CostModel] = None,
        strategies: Optional[Sequence[str]] = None,
    ):
        self.caps = caps if caps is not None else BackendCaps.from_index()
        self.model = model if model is not None else CostModel()
        self.strategies = tuple(strategies) if strategies is not None else None
        self._collection_size = int(getattr(index, "size", None) or len(index))
        self._decisions = 0
        self._explorations = 0
        self._reopened = 0
        #: plan key -> the first of a plan's two looks at a size, as
        #: (batch size, seconds scaled from the queries it ran).
        self._first_sight: Dict[str, Sample] = {}
        #: (mode, size class, strategies) -> the plan chosen for it.
        self._settled: Dict[tuple, _Settled] = {}
        #: Guards the state above: the serving path decides and observes
        #: from the flusher and client threads concurrently.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # deciding
    # ------------------------------------------------------------------ #

    def decide(
        self,
        batch: QueryBatch,
        *,
        mode: str = "count",
        strategy: Optional[str] = None,
    ) -> Decision:
        """Pick the plan for *batch*; ``strategy`` pins that dimension."""
        ob = obs.active()
        if ob is None:
            with self._lock:
                return self._decide_inner(len(batch), mode, strategy, None)
        with ob.span("planner.decide", queries=len(batch), mode=mode) as sp:
            with self._lock:
                decision = self._decide_inner(len(batch), mode, strategy, ob)
            sp.attrs["plan"] = decision.plan.key(mode)
            sp.attrs["source"] = decision.source
            if decision.predicted_s is not None:
                sp.attrs["predicted_s"] = decision.predicted_s
        return decision

    def _decide_inner(self, n: int, mode: str, strategy, ob) -> Decision:
        self._decisions += 1
        strategies = (strategy,) if strategy is not None else self.strategies
        slot = (mode, n.bit_length(), strategies)
        settled = self._settled.get(slot)
        if settled is not None:
            decision = Decision(
                plan=settled.plan,
                mode=mode,
                source="model",
                predicted_s=settled.rate * n,
                reason="settled for this size class",
                n=n,
                table=settled.table,
                slot=slot,
            )
            self._record(decision, ob)
            return decision

        plans = plan_space(self.caps, strategies=strategies)
        timed = {plan: self.model.predict(plan.key(mode), n) for plan in plans}
        pending = {}  # plan -> its first look, scaled to n
        for plan in plans:
            first = self._first_sight.get(plan.key(mode))
            if timed[plan] is None and first is not None and near(first[0], n):
                pending[plan] = first[1] * n / first[0]
        seen = {p: s for p, s in timed.items() if s is not None}
        seen.update(pending)
        cheapest = min(seen, key=seen.get) if seen else None

        unseen = []
        for position, plan in enumerate(plans):
            if timed[plan] is not None:
                continue
            first = pending.get(plan)
            key = plan.key(mode)
            if first is not None and first > EXPLORE_CAP * seen[cheapest]:
                # Far beyond the best at this size: one timing is enough,
                # kept at this size, scaled from the queries it ran.
                del self._first_sight[key]
                self.model.add(key, (n, first))
                timed[plan] = first
                continue
            unseen.append((first is not None, first or 0.0, position, plan))
        table = sorted(
            ((plan.key(mode), s) for plan, s in timed.items() if s is not None),
            key=lambda item: item[1],
        )

        if unseen:
            # Second timings wait until every plan has its first; the
            # paper-rule plan goes first, the cheapest first timing next.
            prior = self._prior(n, strategy)
            plan = min(unseen, key=lambda u: (u[0], u[1], u[3] != prior, u[2]))[3]
            self._explorations += 1
            beside, head = None, 0
            if plan not in pending and cheapest is not None and n >= 4:
                # A quarter of the batch for a first look: enough to
                # price the plan against the cap.  A second look is whole.
                beside, head = cheapest, n - 3 * (n // 4)
            decision = Decision(
                plan=plan,
                mode=mode,
                source="explore",
                predicted_s=pending.get(plan),
                reason=f"never timed within 2x of {n} queries",
                n=n,
                table=table,
                beside=beside,
                head=head,
            )
            self._record(decision, ob)
            return decision

        cost, plan = _pick(sorted(((s, p) for p, s in timed.items()), key=lambda i: i[0]))
        self._settled[slot] = _Settled(plan, table, cost / n)
        decision = Decision(
            plan=plan,
            mode=mode,
            source="model",
            predicted_s=cost,
            reason="cheapest plan timed at this size",
            n=n,
            table=table,
            slot=slot,
        )
        self._record(decision, ob)
        return decision

    def _prior(self, n: int, strategy: Optional[str]) -> Plan:
        """The paper-rule strategy on ``serial``, the static rule's backend."""
        if strategy is None:
            strategy, _ = cold_start_recommendation(self._collection_size, n)
        return Plan(strategy, "serial")

    def _record(self, decision: Decision, ob) -> None:
        if ob is None:
            return
        ob.record_planner_decision(decision.plan.key(decision.mode), decision.source)
        if decision.source == "explore":
            ob.record_planner_exploration()

    # ------------------------------------------------------------------ #
    # feedback
    # ------------------------------------------------------------------ #

    def observe(self, decision: Decision, seconds: float) -> Optional[float]:
        """Fold the run of *decision*'s plan (on ``decision.timed``
        queries) back in: a look to keep from a first-sight batch,
        otherwise the relative error of the prediction (and the settled
        plan's drift)."""
        key, n = decision.plan.key(decision.mode), decision.timed
        if n <= 0:
            return None
        with self._lock:
            if decision.source == "explore":
                # Unless another thread's look at this size landed first.
                if not self.model.timed_near(key, decision.n):
                    self._learn(key, (decision.n, seconds * decision.n / n))
                return None
            predicted = decision.predicted_s
            if not predicted or seconds <= 0.0:
                return None
            settled = self._settled.get(decision.slot)
            if (
                settled is not None
                and settled.plan == decision.plan
                and settled.moved(seconds / predicted)
            ):
                self._reopen(decision.slot, n)
        rel_error = abs(seconds - predicted) / seconds
        ob = obs.active()
        if ob is not None:
            ob.record_planner_cost_error(rel_error)
        return rel_error

    def _learn(self, key: str, sample: Sample) -> None:
        """Best of two looks, however long the first took: the first of
        a process at a new size costs 3x the tenth (fresh result pages).
        *sample* is a look scaled to the batch it was part of; the better
        rate per query is kept at the second look's batch size."""
        first = self._first_sight.pop(key, None)
        if first is None or not near(first[0], sample[0]):
            self._first_sight[key] = sample
            return
        rate = min(first[1] / first[0], sample[1] / sample[0])
        self.model.add(key, (sample[0], rate * sample[0]))

    def _reopen(self, slot: tuple, n: int) -> None:
        """Forget what was timed near *n* in *slot*'s mode and decide again."""
        mode, size_class = slot[0], slot[1]
        self._reopened += 1
        for key in self.model.keys():
            if key.endswith("|" + mode):
                self.model.forget_near(key, n)
                self._first_sight.pop(key, None)
        for other in [s for s in self._settled if s[:2] == (mode, size_class)]:
            self._settled.pop(other, None)

    @property
    def exploration_rate(self) -> float:
        """Fraction of decisions so far that were first-sight batches."""
        if not self._decisions:
            return 0.0
        return self._explorations / self._decisions

    def stats(self) -> Dict[str, object]:
        """Introspection snapshot (plan-sim, tests)."""
        with self._lock:
            return {
                "decisions": self._decisions,
                "explorations": self._explorations,
                "exploration_rate": self.exploration_rate,
                "settled": len(self._settled),
                "reopened": self._reopened,
                "timed_plans": self.model.keys(),
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
