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
2. runs the plan through the engine — a single ``(strategy, backend)``
   pair, or a :class:`~repro.planner.plan.SplitPlan` cutting the batch
   at an extent threshold and merging the sides mode-correctly;
3. feeds the observed latency back into the cost model (a new sample
   for a plan first seen at this batch size, otherwise the EWMA drift
   correction + the ``repro_planner_cost_error`` histogram).

Any planner failure (including injected faults) degrades the batch to
the engine's static ``auto`` rule: a possibly slower plan, never a
lost batch.  A caller-pinned ``backend=`` bypasses the planner entirely
— explicit control always wins.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.analysis.batch_stats import batch_extents
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES
from repro.engine import ExecutionEngine
from repro.intervals.batch import QueryBatch
from repro.planner.costmodel import DEFAULT_CALIBRATION_PATH, CostModel
from repro.planner.plan import BackendCaps, Plan, SplitPlan
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
        Extra ``engine_kwargs`` go to that constructor.
    planner:
        An existing :class:`AdaptivePlanner`; built from *index* (plus
        *model*) when omitted.
    model:
        A pre-built :class:`CostModel`.  When omitted and
        *reuse_calibration* is true, a calibration file at *model_path*
        whose index metadata matches is loaded; otherwise a fresh empty
        model starts on the prior.
    model_path:
        Where calibration persists (default
        ``results/planner-calibration.json``).
    calibrate:
        Run the startup micro-calibration probe suite (~*budget* s)
        when the model is still empty, then save to *model_path*.
    choose_strategy:
        When true (default) the planner may override the caller's
        ``strategy=`` with a measurably faster one — all strategies are
        result-identical, so only latency changes.  Set false to treat
        the caller's strategy as pinned.
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
        model: Optional[CostModel] = None,
        model_path: str = DEFAULT_CALIBRATION_PATH,
        calibrate: bool = False,
        reuse_calibration: bool = True,
        calibration_budget_s: float = 0.12,
        calibration_modes: Sequence[str] = ("count", "checksum", "ids"),
        choose_strategy: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        **engine_kwargs,
    ):
        self._index = index
        self._owns_engine = engine is None
        self._engine = (
            engine
            if engine is not None
            else ExecutionEngine(index, backend="auto", **engine_kwargs)
        )
        self.choose_strategy = bool(choose_strategy)
        self._fault_plan = fault_plan
        self.model_path = model_path
        self.last_decision: Optional[Decision] = None

        if planner is not None:
            self.planner = planner
        else:
            caps = BackendCaps.from_index(index, workers=self._engine.workers)
            if model is None and reuse_calibration and model_path:
                model = _try_load(model_path, index, caps)
            self.planner = AdaptivePlanner(index, caps=caps, model=model)
        if calibrate and not self.planner.model.calibrated:
            self.calibrate(
                budget_s=calibration_budget_s,
                modes=calibration_modes,
                save_path=model_path,
            )

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
            f"calibrated={self.planner.model.calibrated})"
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #

    def calibrate(
        self,
        *,
        budget_s: float = 0.12,
        modes: Sequence[str] = ("count", "checksum", "ids"),
        save_path: Optional[str] = None,
        seed: int = 0,
    ) -> CostModel:
        """Run the startup probe suite on the real engine and persist it."""
        return self.planner.calibrate(
            self._run_probe,
            modes=modes,
            budget_s=budget_s,
            seed=seed,
            save_path=save_path if save_path is not None else self.model_path,
        )

    def _run_probe(self, plan: Plan, batch: QueryBatch, mode: str):
        return self._engine.execute(
            batch, strategy=plan.strategy, mode=mode, backend=plan.backend
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
        executor=None,
    ) -> BatchResult:
        """Evaluate *batch* on the planner-chosen plan; caller order.

        ``backend=`` pins the engine backend and bypasses the planner
        (explicit control wins); otherwise the planner decides, and any
        failure in deciding degrades to the engine's static ``auto``
        rule without losing the batch.
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
                batch, strategy=strategy, mode=mode, backend=backend,
                executor=executor,
            )
        n = len(batch)
        if n == 0:
            return BatchResult.empty(mode)
        try:
            if self._fault_plan is not None:
                self._fault_plan.fire(SITE_PLANNER_DECIDE)
            decision = self.planner.decide(
                batch,
                mode=mode,
                strategy=None if self.choose_strategy else strategy,
            )
        except Exception as exc:
            ob = obs.active()
            if ob is not None:
                ob.record_planner_fallback(type(exc).__name__)
            self.last_decision = None
            return self._engine.execute(
                batch, strategy=strategy, mode=mode, backend="auto",
                executor=executor,
            )
        self.last_decision = decision
        if isinstance(decision.plan, SplitPlan):
            return self._execute_split(batch, decision, executor)
        return self._execute_single(batch, decision, executor)

    def _execute_single(
        self, batch: QueryBatch, decision: Decision, executor
    ) -> BatchResult:
        plan = decision.plan
        t0 = perf_counter()
        result = self._engine.execute(
            batch,
            strategy=plan.strategy,
            mode=decision.mode,
            backend=plan.backend,
            executor=executor,
        )
        self.planner.observe(
            plan, decision.mode, decision.n, decision.total_extent,
            perf_counter() - t0,
        )
        return result

    def _execute_split(
        self, batch: QueryBatch, decision: Decision, executor
    ) -> BatchResult:
        split: SplitPlan = decision.plan
        mode = decision.mode
        ext = batch_extents(batch)
        narrow_mask = ext <= split.threshold
        idx_narrow = np.flatnonzero(narrow_mask)
        idx_wide = np.flatnonzero(~narrow_mask)
        if idx_narrow.size == 0 or idx_wide.size == 0:
            # The cut degenerated (can only happen via a hand-built
            # decision); run the appropriate single plan instead.
            single = split.wide if idx_narrow.size == 0 else split.narrow
            fallback = Decision(
                plan=single,
                mode=mode,
                source=decision.source,
                predicted_s=decision.predicted_s,
                n=decision.n,
                total_extent=decision.total_extent,
            )
            return self._execute_single(batch, fallback, executor)
        parts = []
        for plan, idx in ((split.narrow, idx_narrow), (split.wide, idx_wide)):
            sub = QueryBatch(batch.st[idx], batch.end[idx])
            t0 = perf_counter()
            res = self._engine.execute(
                sub,
                strategy=plan.strategy,
                mode=mode,
                backend=plan.backend,
                executor=executor,
            )
            self.planner.observe(
                plan, mode, len(sub), int(ext[idx].sum()), perf_counter() - t0
            )
            parts.append(res.as_part(idx))
        return BatchResult.merge(len(batch), mode, parts)

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


def _try_load(path: str, index, caps: BackendCaps) -> Optional[CostModel]:
    """Load a persisted calibration if it plausibly matches *index* and
    was recorded on a machine with the same plan space."""
    if not os.path.exists(path):
        return None
    try:
        model = CostModel.load(path)
    except (OSError, ValueError, KeyError):
        return None
    meta = (model.meta or {}).get("index") or {}
    if meta.get("kind") and meta["kind"] != type(index).__name__:
        return None
    size = int(getattr(index, "size", None) or len(index))
    if meta.get("size") and size and not (
        0.5 <= meta["size"] / size <= 2.0
    ):
        return None  # the collection changed materially: recalibrate
    machine = (model.meta or {}).get("machine") or {}
    if machine and (machine.get("cpus"), machine.get("workers")) != (
        caps.cpus, caps.workers
    ):
        # Other cores, other legal plans: a model missing one of them
        # would leave every mode on the prior, so start fresh.
        return None
    return model
