"""repro.planner — per-batch plan selection learned from the batches run.

The paper's experiments show the best batch-evaluation *plan* —
strategy × engine backend × kernel path — depends on batch size, query
extent and the collection.  This package turns that from a hand-tuned
threshold table into a measured decision:

* :mod:`~repro.planner.plan` — the plan space (what is legal here);
* :mod:`~repro.planner.costmodel` — the timings kept per plan, and the
  local prediction read off them;
* :mod:`~repro.planner.policy` — the static threshold rule (what the
  engine's ``auto`` backend evaluates, and the plan a fresh planner
  runs first);
* :mod:`~repro.planner.planner` — :class:`AdaptivePlanner`: first-sight
  batches at every new size, then one settled plan per size class;
* :mod:`~repro.planner.executor` — :class:`PlannedExecutor`, the
  ``execute()``-contract front that drops into the service, the cache
  and the benchmarks.

See ``docs/planning.md`` for the operational guide.

The executor is imported lazily: it depends on :mod:`repro.engine`,
which itself imports :mod:`repro.planner.policy` — eager import here
would cycle.
"""

from repro.planner.costmodel import CostModel
from repro.planner.plan import BackendCaps, Plan, plan_key, plan_space
from repro.planner.planner import AdaptivePlanner, Decision
from repro.planner.policy import cold_start_recommendation, static_backend_choice

__all__ = [
    "AdaptivePlanner",
    "BackendCaps",
    "CostModel",
    "Decision",
    "Plan",
    "PlannedExecutor",
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
