"""Unified batch-execution engine: serial, threads, or processes.

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
``processes``
    A persistent process pool sharing the index through a
    :class:`~repro.engine.arena.SharedIndexArena` — workers attach the
    shared-memory segment once at warm-up, per-batch dispatch ships
    only the chunk query arrays plus ``(strategy, mode)``, and results
    return as compact flat arrays.  Sidesteps the GIL for the
    Python-loop strategies and ids-mode materialization.
``compiled``
    The kernel path (:func:`~repro.kernels.compiled.compiled_run`):
    the partition-based sweep runs on the :mod:`repro.kernels` hot-path
    kernels — Numba machine code when available, the identical NumPy
    fallback otherwise — in the calling thread.
``threads+compiled``
    The thread path with the compiled runner in every chunk/shard.
    With numba present the kernels release the GIL, so this covers the
    GIL-bound work the process backend existed for, without arena or
    pickle costs.
``auto``
    The static threshold rule
    (:func:`~repro.planner.policy.static_backend_choice`: batch size,
    strategy, result mode, kernel availability, core count).  It is the
    planner's prior and fallback; the engine itself learns nothing —
    a caller that wants a measured choice pins the backend per batch,
    which is what :class:`~repro.planner.PlannedExecutor` does.

Because the surface matches ``ShardedHint.execute``, a
:class:`~repro.service.BatchingQueryService` installs an engine through
``swap_index`` with zero call-site changes.

Failure containment: every process dispatch passes the
:data:`~repro.verify.faults.SITE_DISPATCH` fault site, and a broken
pool (killed worker, injected fault) **degrades** the engine to
in-process execution for the batch at hand — callers see results, not
hangs.  A degraded engine is on probation, not dead: after
``probation_batches`` clean batches it rebuilds the pool, and only
after ``max_pool_failures`` consecutive pool failures does it give up
permanently; the arena is unlinked on degrade and at :meth:`close`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from time import perf_counter
from typing import List, Optional

import repro.obs as obs
from repro.obs.aggregate import merge_telemetry
from repro.core.parallel import (
    _chunks,
    parallel_batch,
    resolve_workers,
    stitch_chunks,
)
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES, run_strategy
from repro.engine.arena import SharedIndexArena
from repro.engine.worker import (
    decode_result,
    init_worker,
    ping,
    run_hint_chunk,
    run_shard_primary,
)
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch
from repro.kernels.compiled import compiled_run
from repro.planner.policy import static_backend_choice
from repro.shard.sharded import ShardedHint
from repro.verify.faults import SITE_DISPATCH, FaultPlan, InjectedFault

__all__ = ["ExecutionEngine", "BACKENDS"]

#: Backend names accepted by :class:`ExecutionEngine`.
BACKENDS = (
    "auto",
    "serial",
    "threads",
    "processes",
    "compiled",
    "threads+compiled",
)


class ExecutionEngine:
    """Backend-selecting executor over a built index.

    Parameters
    ----------
    index:
        A :class:`~repro.hint.index.HintIndex` or
        :class:`~repro.shard.ShardedHint`.  The engine borrows it (for
        the serial/thread paths and the sharded routing/merge) — it is
        not closed by :meth:`close`.
    backend:
        One of :data:`BACKENDS`; ``"auto"`` (default) picks per call.
        The per-call ``backend=`` argument of :meth:`execute` overrides
        this for one batch (benchmarks measure all backends through one
        engine and one arena this way).
    workers:
        Worker count for the thread and process paths; ``None`` resolves
        to ``os.cpu_count()`` via
        :func:`~repro.core.parallel.resolve_workers`.
    mp_context:
        Multiprocessing start method (``"fork"``/``"spawn"``/
        ``"forkserver"`` or a context object).  Defaults to ``"fork"``
        where available — microsecond worker start and no re-import; see
        ``docs/parallelism.md`` for the spawn caveats.
    shard_affinity:
        For a sharded index, pin whole shards to dedicated single-worker
        pools (shard ``j`` always runs on pool ``j % npools``), so each
        worker only ever touches its shards' pages.  With ``False`` one
        shared pool runs any shard anywhere.
    fault_plan:
        Optional :class:`~repro.verify.faults.FaultPlan`; the
        :data:`~repro.verify.faults.SITE_DISPATCH` site fires right
        before every process-pool dispatch.
    probation_batches:
        After a pool failure, the number of clean batches the engine
        must serve in-process before it attempts a pool rebuild.
    max_pool_failures:
        Consecutive pool failures (without an intervening healthy
        process batch) after which the engine stops rebuilding and
        stays in-process permanently.

    The process infrastructure (arena + pools) starts eagerly when the
    configured backend is ``"processes"``, or on first demand otherwise;
    ``"auto"`` on a single-core machine never starts it.
    """

    def __init__(
        self,
        index,
        *,
        backend: str = "auto",
        workers: Optional[int] = None,
        mp_context=None,
        shard_affinity: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        probation_batches: int = 32,
        max_pool_failures: int = 3,
    ):
        if backend == "auto-static":
            # The pre-planner name of the static rule, which is all that
            # "auto" is now; bench/stacks.py still constructs with it.
            backend = "auto"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if not isinstance(index, (HintIndex, ShardedHint)):
            raise TypeError(
                "ExecutionEngine wraps HintIndex or ShardedHint, got "
                f"{type(index).__name__}"
            )
        self._index = index
        self._is_sharded = isinstance(index, ShardedHint)
        self.backend = backend
        self.workers = resolve_workers(workers)
        self.shard_affinity = bool(shard_affinity)
        self.probation_batches = int(probation_batches)
        self.max_pool_failures = int(max_pool_failures)
        self._fault_plan = fault_plan
        self._cpus = os.cpu_count() or 1
        if mp_context is None or isinstance(mp_context, str):
            methods = multiprocessing.get_all_start_methods()
            method = mp_context or ("fork" if "fork" in methods else "spawn")
            self._mp_context = multiprocessing.get_context(method)
        else:
            self._mp_context = mp_context

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._inflight = 0
        self._closed = False
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._arena: Optional[SharedIndexArena] = None
        self._pools: List[ProcessPoolExecutor] = []
        self._procs_started = False
        self._procs_broken = False
        self._pool_failures = 0  # consecutive, reset by a healthy batch
        self._clean_batches = 0  # in-process batches since last failure
        if backend == "processes":
            self._ensure_processes()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def index(self):
        """The wrapped index (borrowed, never closed by the engine)."""
        return self._index

    @property
    def arena(self) -> Optional[SharedIndexArena]:
        """The shared-memory arena, once the process backend started."""
        return self._arena

    @property
    def processes_available(self) -> bool:
        """True while the process backend is started and healthy."""
        with self._lock:
            return self._procs_started and not self._procs_broken

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:
        kind = "sharded" if self._is_sharded else "hint"
        return (
            f"ExecutionEngine(backend={self.backend!r}, kind={kind!r}, "
            f"workers={self.workers}, processes="
            f"{'up' if self.processes_available else 'down'})"
        )

    # ------------------------------------------------------------------ #
    # backend selection
    # ------------------------------------------------------------------ #

    def _choose(self, n: int, strategy: str, mode: str, override) -> str:
        """Resolve the backend for one batch.

        Fixed backends resolve to themselves (``processes`` degrades to
        ``threads`` while the pool is broken or on probation); ``auto``
        is :func:`~repro.planner.policy.static_backend_choice` — note it
        only prefers ``threads+compiled`` when the JIT kernels are live
        *and not* on the GIL-holding NumPy fallback.
        """
        backend = override if override is not None else self.backend
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if backend == "processes":
            self._ensure_processes()
            return "processes" if self.processes_available else "threads"
        if backend != "auto":
            return backend
        return static_backend_choice(
            n, strategy, mode, cpus=self._cpus, processes_up=self._processes_up
        )

    def _processes_up(self) -> bool:
        self._ensure_processes()
        return self.processes_available

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
        """Evaluate *batch*; results in caller order, any backend.

        Mirrors :func:`~repro.core.strategies.run_strategy` /
        :meth:`ShardedHint.execute` — same strategy names, same result
        modes, same ordering contract — so the engine drops into a
        :class:`~repro.service.BatchingQueryService` via ``swap_index``
        unchanged.  ``backend`` overrides the engine's configured
        backend for this one call; ``executor`` replaces the engine's
        own pool on the thread path (externally managed pools).
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
            resolved = self._choose(n, strategy, mode, backend)
            ob = obs.active()
            if ob is None:
                result, ran_on = self._run(batch, strategy, mode, resolved, executor)
                self._note_outcome(resolved, ran_on)
                return result
            t0 = perf_counter()
            with ob.span(
                "engine.execute",
                backend=resolved,
                strategy=strategy,
                queries=n,
                mode=mode,
            ) as sp:
                result, ran_on = self._run(batch, strategy, mode, resolved, executor)
                if ran_on != resolved:
                    sp.attrs["degraded_to"] = ran_on
            self._note_outcome(resolved, ran_on)
            ob.record_engine_batch(ran_on, n, perf_counter() - t0)
            return result
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()

    def _note_outcome(self, resolved: str, ran_on: str) -> None:
        """Probation bookkeeping after one successful batch.

        A healthy process batch ends the current failure streak; any
        other successful batch (other than the one that just degraded)
        counts toward the clean-batch quota that re-arms the pool
        rebuild in :meth:`_ensure_processes`.
        """
        degraded_now = resolved == "processes" and ran_on != "processes"
        with self._lock:
            if ran_on == "processes":
                self._pool_failures = 0
            elif self._pool_failures and not self._procs_broken and not degraded_now:
                self._clean_batches += 1

    def _run(self, batch, strategy, mode, resolved, executor):
        """Dispatch to *resolved*; returns ``(result, backend_that_ran)``."""
        if resolved == "processes":
            try:
                if self._fault_plan is not None:
                    self._fault_plan.fire(SITE_DISPATCH)
                return self._dispatch_processes(batch, strategy, mode), "processes"
            except (BrokenExecutor, InjectedFault, OSError) as exc:
                # A killed worker (BrokenProcessPool), an injected
                # dispatch fault, or a torn-down segment: degrade to
                # in-process execution rather than failing the batch.
                # The pool goes on probation (see _degrade) — it is
                # rebuilt after enough clean batches, abandoned for
                # good after max_pool_failures consecutive failures.
                self._degrade(exc)
        if resolved == "compiled":
            return self._execute_compiled(batch, strategy, mode), "compiled"
        if resolved == "threads+compiled":
            return (
                self._execute_threads(
                    batch, strategy, mode, executor, runner=compiled_run
                ),
                "threads+compiled",
            )
        if resolved == "threads" or resolved == "processes":
            return self._execute_threads(batch, strategy, mode, executor), "threads"
        return self._execute_serial(batch, strategy, mode), "serial"

    def _execute_serial(self, batch, strategy, mode) -> BatchResult:
        if self._is_sharded:
            return self._index.execute(batch, strategy=strategy, mode=mode)
        return run_strategy(strategy, self._index, batch, mode=mode)

    def _execute_compiled(self, batch, strategy, mode) -> BatchResult:
        """The kernel path, serially in the calling thread."""
        if self._is_sharded:
            return self._index.execute(
                batch, strategy=strategy, mode=mode, runner=compiled_run
            )
        return compiled_run(strategy, self._index, batch, mode=mode)

    def _execute_threads(
        self, batch, strategy, mode, executor=None, runner=None
    ) -> BatchResult:
        if executor is None:
            executor = self._threads()
        if self._is_sharded:
            return self._index.execute(
                batch,
                strategy=strategy,
                mode=mode,
                executor=executor,
                runner=runner,
            )
        return parallel_batch(
            self._index,
            batch,
            strategy=strategy,
            workers=self.workers,
            mode=mode,
            executor=executor,
            runner=runner,
        )

    # ------------------------------------------------------------------ #
    # process backend
    # ------------------------------------------------------------------ #

    def _dispatch_processes(self, batch, strategy, mode) -> BatchResult:
        if self._is_sharded:
            return self._dispatch_sharded(batch, strategy, mode)
        return self._dispatch_hint(batch, strategy, mode)

    def _telemetry_request(self, ob) -> Optional[dict]:
        """The per-task telemetry request shipped to pool workers: the
        dispatching thread's sampled trace ids (set by the service
        flusher's trace scope) plus the parent plane's recorder
        thresholds, so worker-side sampling matches the parent's."""
        if ob is None:
            return None
        cfg = ob.config
        return {
            "traces": ob.recorder.current_trace_ids(),
            "trace_partitions": cfg.trace_partitions,
            "slow_threshold_s": cfg.slow_threshold_s,
            "slow_overrides": cfg.slow_overrides,
        }

    def _collect(self, future, ob, telemetry):
        """Unwrap one worker future; fold shipped telemetry into *ob*.

        Adopted worker spans graft under the dispatching thread's open
        ``engine.execute`` span, which is what makes one cross-process
        trace tree out of the batch.
        """
        payload = future.result()
        if telemetry is None:
            return payload
        payload, tele = payload
        merge_telemetry(
            ob,
            tele.get("delta"),
            worker_label=str(tele.get("worker", "?")),
            parent_span_id=ob.recorder.current_span_id(),
        )
        return payload

    def _dispatch_hint(self, batch, strategy, mode) -> BatchResult:
        """Chunk the sorted batch across the pool; stitch to caller order."""
        work = batch.sorted_by_start()
        pool = self._pools[0]
        ob = obs.active()
        telemetry = self._telemetry_request(ob)
        slices = _chunks(len(work), self.workers)
        futures = [
            pool.submit(
                run_hint_chunk, work.st[sl], work.end[sl], strategy, mode,
                telemetry,
            )
            for sl in slices
        ]
        partials = [
            decode_result(self._collect(f, ob, telemetry), mode)
            for f in futures
        ]
        return stitch_chunks(partials, slices, work.order, mode)

    def _dispatch_sharded(self, batch, strategy, mode) -> BatchResult:
        """Route parent-side, run primaries on shard-pinned workers.

        Only the HINT traversals cross the process boundary: routing,
        the replica/spill probes (single vectorized ``searchsorted``
        calls — cheaper than a round-trip) and the exact merge all stay
        in the parent, reusing the sharded index's own helpers.
        """
        index = self._index
        ob = obs.active()
        telemetry = self._telemetry_request(ob)
        work, q_st, q_end, jobs = index._route(batch)
        staged = []
        for j, j0, j1, spill in jobs:
            future = None
            if j1 > j0:
                sub = index._primary_local_batch(j, j0, j1, q_st, q_end)
                future = self._pool_for_shard(j).submit(
                    run_shard_primary, j, sub.st, sub.end, strategy, mode,
                    telemetry,
                )
            staged.append((j, j0, j1, spill, future))
        partials = []
        for j, j0, j1, spill, future in staged:
            primary = rep_ks = sp_ks = None
            if future is not None:
                primary = decode_result(
                    self._collect(future, ob, telemetry), mode
                )
                rep_ks = index._probe_replicas(j, j0, j1, q_st)
            if spill.size:
                sp_ks = index._probe_spills(j, spill, q_end)
            partials.append((j, j0, j1, spill, primary, rep_ks, sp_ks))
        return index._merge(partials, work, len(batch), mode)

    def _pool_for_shard(self, j: int) -> ProcessPoolExecutor:
        return self._pools[j % len(self._pools)]

    def _ensure_processes(self) -> None:
        """Start the arena and pools once; warm every worker's attach.

        After a pool failure the engine is on probation: rebuild
        attempts are refused until ``probation_batches`` clean batches
        have been served in-process (and permanently once
        ``max_pool_failures`` consecutive failures accumulated).
        """
        with self._lock:
            if self._procs_started or self._procs_broken or self._closed:
                return
            if self._pool_failures and self._clean_batches < self.probation_batches:
                return  # on probation after a pool failure
            self._procs_started = True
        try:
            arena = SharedIndexArena(self._index)
            # Registered immediately so a mid-build failure releases it
            # via _degrade instead of leaking the shared segments.
            with self._lock:
                self._arena = arena
            pools: List[ProcessPoolExecutor] = []
            warmups = []
            if self._is_sharded and self.shard_affinity:
                npools = min(self.workers, self._index.k)
                for i in range(npools):
                    pinned = list(range(i, self._index.k, npools))
                    pool = ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=self._mp_context,
                        initializer=init_worker,
                        initargs=(arena.manifest, pinned),
                    )
                    pools.append(pool)
                    warmups.append(pool.submit(ping))
            else:
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._mp_context,
                    initializer=init_worker,
                    initargs=(arena.manifest, None),
                )
                pools.append(pool)
                warmups.extend(pool.submit(ping) for _ in range(self.workers))
            with self._lock:
                self._pools = pools
            for future in warmups:
                future.result()
        except Exception as exc:
            self._degrade(exc)

    def _degrade(self, exc: BaseException) -> None:
        """Tear the process backend down after a failure; keep serving.

        The failure starts (or extends) a probation window: the pool
        and arena are released now, ``_ensure_processes`` refuses to
        rebuild until enough clean batches pass, and after
        ``max_pool_failures`` consecutive failures the backend is
        abandoned for good.
        """
        with self._lock:
            if not self._procs_started and not self._pools:
                return  # a concurrent dispatch already degraded us
            self._procs_started = False
            self._pool_failures += 1
            self._clean_batches = 0
            if self._pool_failures >= self.max_pool_failures:
                self._procs_broken = True
            pools, self._pools = self._pools, []
            arena, self._arena = self._arena, None
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        if arena is not None:
            arena.release()
        ob = obs.active()
        if ob is not None:
            ob.record_engine_fallback(type(exc).__name__)

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
        """Drain in-flight batches, stop the pools, unlink the arena.

        Blocks until every in-flight :meth:`execute` has finished (the
        refcount the service's ``swap_index(..., close_old=True)`` path
        relies on), then releases every resource the engine created.
        The wrapped index is left untouched.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            while self._inflight:
                self._cond.wait()
            pools, self._pools = self._pools, []
            thread_pool, self._thread_pool = self._thread_pool, None
            arena, self._arena = self._arena, None
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)
        if thread_pool is not None:
            thread_pool.shutdown(wait=True)
        if arena is not None:
            arena.release()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

