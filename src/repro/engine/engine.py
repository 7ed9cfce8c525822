"""Unified batch-execution engine: serial or threads.

:class:`ExecutionEngine` wraps a built index behind the same
``run_strategy``-shaped ``execute()`` contract that
:class:`~repro.shard.ShardedHint` exposes, and picks **per batch** how
to run it:

``serial``
    The sequential strategy call — lowest constant cost, and on a
    single-core machine the fastest option for everything.
``threads``
    The chunked thread path on the engine's own pool
    (:func:`~repro.core.parallel.parallel_batch`, or one job per shard
    of a sharded index) — real parallelism only where the numpy hot
    loops release the GIL.
``auto``
    ``serial`` for every batch: the partition-based strategy is gathers
    from the index's prefix folds and id runs, which leave a thread
    nothing worth its hand-off, and the other strategies are Python
    loops that hold the GIL.  The engine learns nothing; a caller that
    wants ``threads`` pins it, per engine or per batch.

Because the surface matches ``ShardedHint.execute``, a
:class:`~repro.service.BatchingQueryService` installs an engine through
``swap_index`` with zero call-site changes.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Optional

import repro.obs as obs
from repro.core.parallel import parallel_batch, resolve_workers
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES, run_strategy
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.shard.sharded import ShardedHint

__all__ = ["ExecutionEngine", "BACKENDS"]

#: Backend names accepted by :class:`ExecutionEngine`.
BACKENDS = ("auto", "serial", "threads")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


class ExecutionEngine:
    """Backend-selecting executor over a built index.

    Parameters
    ----------
    index:
        A :class:`~repro.hint.index.HintIndex` or
        :class:`~repro.shard.ShardedHint`.  The engine borrows it — it
        is not closed by :meth:`close`.
    backend:
        One of :data:`BACKENDS`; ``"auto"`` (default) runs ``serial``.
        The per-call ``backend=`` argument of :meth:`execute` overrides
        this for one batch (benchmarks measure all backends through one
        engine this way).
    workers:
        Thread count of the engine's pool; ``None`` resolves to
        ``os.cpu_count()`` via
        :func:`~repro.core.parallel.resolve_workers`.

    The thread pool starts on the first batch that needs it.
    """

    def __init__(
        self,
        index,
        *,
        backend: str = "auto",
        workers: Optional[int] = None,
    ):
        if backend == "auto-static":
            # An older name of the static rule, which is all that "auto"
            # is now; bench/stacks.py still constructs with it.
            backend = "auto"
        _check_backend(backend)
        if not isinstance(index, (HintIndex, ShardedHint)):
            raise TypeError(
                "ExecutionEngine wraps HintIndex or ShardedHint, got "
                f"{type(index).__name__}"
            )
        self._index = index
        self._is_sharded = isinstance(index, ShardedHint)
        self.backend = backend
        self.workers = resolve_workers(workers)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._inflight = 0
        self._closed = False
        self._thread_pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def index(self):
        """The wrapped index (borrowed, never closed by the engine)."""
        return self._index

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:
        kind = "sharded" if self._is_sharded else "hint"
        return (
            f"ExecutionEngine(backend={self.backend!r}, kind={kind!r}, "
            f"workers={self.workers})"
        )

    # ------------------------------------------------------------------ #
    # backend selection
    # ------------------------------------------------------------------ #

    def _choose(self, override) -> str:
        """Resolve the backend for one batch: fixed backends resolve to
        themselves, ``auto`` to ``serial``."""
        backend = override if override is not None else self.backend
        _check_backend(backend)
        return "serial" if backend == "auto" else backend

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
        """Evaluate *batch*; results in caller order, any backend.

        Mirrors :func:`~repro.core.strategies.run_strategy` /
        :meth:`ShardedHint.execute` — same strategy names, same result
        modes, same ordering contract — so the engine drops into a
        :class:`~repro.service.BatchingQueryService` via ``swap_index``
        unchanged.  ``backend`` overrides the engine's configured
        backend for this one call.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
            )
        if mode not in MODES:
            raise ValueError(
                f"unknown result mode {mode!r}; expected one of {MODES}"
            )
        n = len(batch)
        if n == 0:
            return BatchResult.empty(mode)
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._inflight += 1
        try:
            resolved = self._choose(backend)
            ob = obs.active()
            if ob is None:
                return self._run(batch, strategy, mode, resolved)
            t0 = perf_counter()
            with ob.span(
                "engine.execute",
                backend=resolved,
                strategy=strategy,
                queries=n,
                mode=mode,
            ):
                result = self._run(batch, strategy, mode, resolved)
            ob.record_engine_batch(resolved, n, perf_counter() - t0)
            return result
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()

    def _run(self, batch, strategy, mode, resolved) -> BatchResult:
        if resolved == "threads":
            return self._execute_threads(batch, strategy, mode)
        if self._is_sharded:
            return self._index.execute(batch, strategy=strategy, mode=mode)
        return run_strategy(strategy, self._index, batch, mode=mode)

    def _execute_threads(self, batch, strategy, mode) -> BatchResult:
        if self._is_sharded:
            return self._index.execute(
                batch, strategy=strategy, mode=mode, executor=self._threads()
            )
        return parallel_batch(
            self._index,
            batch,
            strategy=strategy,
            workers=self.workers,
            mode=mode,
            executor=self._threads(),
        )

    def _threads(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-engine",
                )
            return self._thread_pool

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain in-flight batches, then stop the thread pool.

        Blocks until every in-flight :meth:`execute` has finished (the
        refcount the service's ``swap_index(..., close_old=True)`` path
        relies on), then joins the pool's threads.  The wrapped index is
        left untouched.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            while self._inflight:
                self._cond.wait()
            thread_pool, self._thread_pool = self._thread_pool, None
        if thread_pool is not None:
            thread_pool.shutdown(wait=True)

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
