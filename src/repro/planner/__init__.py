"""repro.planner — :class:`PlannedExecutor`, the executor front that runs
the caller's plan on the execution engine.

The strategy is the caller's choice (:mod:`repro.core.advisor` states
the paper's rule); the engine's ``auto`` backend is ``serial``.
"""

from repro.planner.executor import PlannedExecutor

__all__ = ["PlannedExecutor"]
