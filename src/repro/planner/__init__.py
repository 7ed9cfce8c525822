"""repro.planner — cost-calibrated, online-adapting plan selection.

The paper's experiments show the best batch-evaluation *plan* —
strategy × engine backend × kernel path, and for mixed batches even a
split of the batch itself — depends on batch size, query extent and the
collection.  This package turns that from a hand-tuned threshold table
into a measured decision:

* :mod:`~repro.planner.plan` — the plan space (what is legal here);
* :mod:`~repro.planner.costmodel` — the calibrated linear cost model
  with EWMA online drift correction, persisted to
  ``results/planner-calibration.json``;
* :mod:`~repro.planner.policy` — the static threshold prior (what the
  engine's ``auto`` backend evaluates when no plan pins a backend);
* :mod:`~repro.planner.planner` — :class:`AdaptivePlanner`, the scorer
  (with first-sight probes of unseen batch sizes and extent-split search);
* :mod:`~repro.planner.executor` — :class:`PlannedExecutor`, the
  ``execute()``-contract front that drops into the service, the cache
  and the benchmarks.

See ``docs/planning.md`` for the operational guide.

The executor is imported lazily: it depends on :mod:`repro.engine`,
which itself imports :mod:`repro.planner.policy` — eager import here
would cycle.
"""

from repro.planner.costmodel import (
    DEFAULT_CALIBRATION_PATH,
    CostModel,
    PlanCost,
)
from repro.planner.plan import BackendCaps, Plan, SplitPlan, plan_key, plan_space
from repro.planner.planner import AdaptivePlanner, Decision
from repro.planner.policy import (
    GIL_BOUND_STRATEGIES,
    cold_start_recommendation,
    static_backend_choice,
)

__all__ = [
    "AdaptivePlanner",
    "BackendCaps",
    "CostModel",
    "Decision",
    "DEFAULT_CALIBRATION_PATH",
    "GIL_BOUND_STRATEGIES",
    "Plan",
    "PlanCost",
    "PlannedExecutor",
    "SplitPlan",
    "cold_start_recommendation",
    "plan_key",
    "plan_space",
    "static_backend_choice",
]


def __getattr__(name):
    if name == "PlannedExecutor":
        from repro.planner.executor import PlannedExecutor

        return PlannedExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
