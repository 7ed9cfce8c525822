"""The planner-driven execution front: ``execute()`` in, best plan out.

:class:`PlannedExecutor` is the deployable face of :mod:`repro.planner`:
it exposes the same ``run_strategy``-shaped ``execute()`` contract as
:class:`~repro.engine.ExecutionEngine`, :class:`~repro.shard.ShardedHint`
and :class:`~repro.cache.CachingExecutor`, so it installs anywhere those
do — ``service.swap_index(PlannedExecutor(index))``, or wrapped by a
``CachingExecutor`` (the cache consults ``_index`` for invalidation
exactly as it does for an engine).  Per batch it:

1. fires the :data:`~repro.verify.faults.SITE_PLANNER_DECIDE` fault
   site, then asks its :class:`~repro.planner.planner.AdaptivePlanner`
   for a plan (inside a ``planner.decide`` span);
2. runs the plan's ``(strategy, backend)`` pair through the engine — on
   a plan's first look beside the cheapest plan seen at that size, the
   first quarter of the batch on the plan being timed and the rest on the
   cheapest, merged back into caller order;
3. hands the observed latency back to the planner: a timing to keep
   for a plan first seen at this batch size, otherwise the prediction
   error and the settled plan's drift.

Before the first batch the executor builds, once, the raw collection a
join-based plan reads (:meth:`~repro.hint.index.HintIndex.as_collection`,
cached on each index): a one-time cost of the index (50 ms for 200k
intervals, against 7 ms for a steady 4096-query join), which would
otherwise be charged to the first join-based batch and price the plan
out for what it is not.  Before the first batch of a mode it builds
what partition-based reads in that mode, for the same reason: the
mode's :meth:`~repro.hint.index.HintIndex.fold` for a count or checksum
(3–4 ms on a 50k-interval index at m = 17, against 0.6–1 ms for a
4096-query count, was enough to price partition-based out), the
:meth:`~repro.hint.index.HintIndex.id_runs` for ids.

Any planner failure (including injected faults) degrades the batch to
the engine's static ``auto`` rule: a possibly slower plan, never a
lost batch.  A caller-pinned ``backend=`` bypasses the planner entirely
— explicit control always wins.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

import repro.obs as obs
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES
from repro.engine import ExecutionEngine
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.planner.plan import DEFAULT_STRATEGIES, BackendCaps
from repro.planner.planner import AdaptivePlanner, Decision
from repro.verify.faults import SITE_PLANNER_DECIDE, FaultPlan

__all__ = ["PlannedExecutor"]


class PlannedExecutor:
    """Adaptive plan selection behind the ``execute()`` contract.

    Parameters
    ----------
    index:
        A :class:`~repro.hint.index.HintIndex` or
        :class:`~repro.shard.ShardedHint` (whatever the engine wraps).
    engine:
        An existing :class:`ExecutionEngine` to borrow; one is created
        (and owned, i.e. closed by :meth:`close`) when omitted.
        Extra ``engine_kwargs`` go to that constructor; with *engine*
        given they are a ``TypeError``.
    planner:
        An existing :class:`AdaptivePlanner`; when omitted, a fresh one
        over *index*, which knows nothing until batches run.
    fault_plan:
        Optional :class:`FaultPlan`; :data:`SITE_PLANNER_DECIDE` fires
        before every planning step.
    """

    def __init__(
        self,
        index,
        *,
        engine: Optional[ExecutionEngine] = None,
        planner: Optional[AdaptivePlanner] = None,
        fault_plan: Optional[FaultPlan] = None,
        **engine_kwargs,
    ):
        if engine is not None and engine_kwargs:
            raise TypeError(
                "PlannedExecutor got engine= and engine options "
                f"{sorted(engine_kwargs)}; pass one or the other"
            )
        self._index = index
        self._owns_engine = engine is None
        self._engine = (
            engine
            if engine is not None
            else ExecutionEngine(index, backend="auto", **engine_kwargs)
        )
        self._fault_plan = fault_plan
        self.last_decision: Optional[Decision] = None
        self.planner = planner if planner is not None else AdaptivePlanner(
            index, caps=BackendCaps.from_index(workers=self._engine.workers)
        )
        self._hints = [s.index for s in getattr(index, "shards", ())] or [index]
        self._prebuilt = set()  # modes whose folds or id runs are built
        if "join-based" in (self.planner.strategies or DEFAULT_STRATEGIES):
            for hint in self._hints:
                if hasattr(hint, "as_collection"):
                    hint.as_collection()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def index(self):
        return self._index

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

    def __repr__(self) -> str:
        return (
            f"PlannedExecutor(index={type(self._index).__name__}, "
            f"timed_plans={len(self.planner.stats()['timed_plans'])})"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        batch: QueryBatch,
        *,
        strategy: str = "partition-based",
        mode: str = "count",
        backend: Optional[str] = None,
    ) -> BatchResult:
        """Evaluate *batch* on the planner-chosen plan; caller order.

        The planner may run a measurably faster strategy than the
        caller's ``strategy=`` — all strategies are result-identical, so
        only latency changes.  ``backend=`` pins the engine backend and
        bypasses the planner (explicit control wins); otherwise the
        planner decides, and any failure in deciding degrades to the
        engine's static ``auto`` rule without losing the batch.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
            )
        if mode not in MODES:
            raise ValueError(
                f"unknown result mode {mode!r}; expected one of {MODES}"
            )
        if backend is not None:
            return self._engine.execute(
                batch, strategy=strategy, mode=mode, backend=backend
            )
        if len(batch) == 0:
            return BatchResult.empty(mode)
        if mode not in self._prebuilt:
            for hint in self._hints:
                if isinstance(hint, HintIndex):
                    hint.id_runs() if mode == "ids" else hint.fold(mode)
            self._prebuilt.add(mode)
        try:
            if self._fault_plan is not None:
                self._fault_plan.fire(SITE_PLANNER_DECIDE)
            decision = self.planner.decide(batch, mode=mode)
        except Exception as exc:
            ob = obs.active()
            if ob is not None:
                ob.record_planner_fallback(type(exc).__name__)
            self.last_decision = None
            return self._engine.execute(
                batch, strategy=strategy, mode=mode, backend="auto"
            )
        self.last_decision = decision
        if decision.beside is None:
            t0 = perf_counter()
            result = self._run(batch, decision.plan, mode)
            self.planner.observe(decision, perf_counter() - t0)
            return result
        # First sight beside the cheapest plan: the plan being timed
        # answers the first queries, the cheapest the rest.
        k, n = decision.timed, len(batch)
        t0 = perf_counter()
        head = self._run(
            QueryBatch(batch.st[:k], batch.end[:k]), decision.plan, mode
        )
        self.planner.observe(decision, perf_counter() - t0)
        rest = self._run(
            QueryBatch(batch.st[k:], batch.end[k:]), decision.beside, mode
        )
        return BatchResult.merge(
            n, mode, [head.as_part(batch.order[:k]), rest.as_part(batch.order[k:])]
        )

    def _run(self, batch: QueryBatch, plan, mode: str) -> BatchResult:
        return self._engine.execute(
            batch, strategy=plan.strategy, mode=mode, backend=plan.backend
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the engine if this executor created it; idempotent."""
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "PlannedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
