"""The execution front that runs the caller's plan.

:class:`PlannedExecutor` exposes the same ``run_strategy``-shaped
``execute()`` contract as :class:`~repro.engine.ExecutionEngine`,
:class:`~repro.shard.ShardedHint` and :class:`~repro.cache.CachingExecutor`,
so it installs anywhere those do — ``service.swap_index(PlannedExecutor(index))``,
or wrapped by a ``CachingExecutor`` (the cache consults ``_index`` for
invalidation exactly as it does for an engine).

It chooses nothing: the caller's ``strategy=`` and ``backend=`` go to
the engine as given, and the engine's ``auto`` is ``serial``.  The
paper's rule for which strategy to run lives in
:mod:`repro.core.advisor`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.result import BatchResult
from repro.engine import ExecutionEngine
from repro.intervals.batch import QueryBatch

__all__ = ["PlannedExecutor"]


class PlannedExecutor:
    """The engine's ``execute()`` behind the executor surface.

    Parameters
    ----------
    index:
        A :class:`~repro.hint.index.HintIndex` or
        :class:`~repro.shard.ShardedHint` (whatever the engine wraps).
    engine:
        An existing :class:`ExecutionEngine` to borrow; one is created
        (and owned, i.e. closed by :meth:`close`) when omitted.
    """

    def __init__(self, index, *, engine: Optional[ExecutionEngine] = None):
        self._index = index
        self._owns_engine = engine is None
        self._engine = engine if engine is not None else ExecutionEngine(index)

    @property
    def index(self):
        return self._index

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

    def __repr__(self) -> str:
        return f"PlannedExecutor(index={type(self._index).__name__})"

    def execute(
        self,
        batch: QueryBatch,
        *,
        strategy: str = "partition-based",
        mode: str = "count",
        backend: Optional[str] = None,
    ) -> BatchResult:
        """Evaluate *batch* with *strategy* on *backend*; caller order."""
        return self._engine.execute(
            batch, strategy=strategy, mode=mode, backend=backend
        )

    def close(self) -> None:
        """Close the engine if this executor created it; idempotent."""
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "PlannedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
