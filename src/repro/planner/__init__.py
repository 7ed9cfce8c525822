"""repro.planner — per-batch plan selection learned from the batches run.

The paper's experiments show the best batch-evaluation *plan* —
strategy × engine backend — depends on batch size, query
extent and the collection.  This package turns that from a hand-tuned
threshold table into a measured decision:

* :mod:`~repro.planner.plan` — the plan space (what is legal here);
* :mod:`~repro.planner.costmodel` — the timings kept per plan, and the
  local prediction read off them;
* :mod:`~repro.planner.planner` — :class:`AdaptivePlanner`: first-sight
  batches at every new size, then one settled plan per size class;
* :mod:`~repro.planner.executor` — :class:`PlannedExecutor`, the
  ``execute()``-contract front that drops into the service, the cache
  and the benchmarks.

See ``docs/planning.md`` for the operational guide.
"""

from repro.planner.costmodel import CostModel
from repro.planner.executor import PlannedExecutor
from repro.planner.plan import BackendCaps, Plan, plan_key, plan_space
from repro.planner.planner import AdaptivePlanner, Decision

__all__ = [
    "AdaptivePlanner",
    "BackendCaps",
    "CostModel",
    "Decision",
    "Plan",
    "PlannedExecutor",
    "plan_key",
    "plan_space",
]
