"""Parallel batch processing — the paper's stated future work.

Section 5 closes with: "we plan to investigate the parallel processing
of query batches in multi-core CPUs".  This module provides that
investigation for the Python build: the batch is split into contiguous
chunks of the *sorted* query sequence (so each chunk keeps the locality
the strategies rely on), chunks run on a thread pool, and per-chunk
results are stitched back into caller order.

Threads share the index without copying it: the hot loops of the
columnar strategies are numpy calls (``searchsorted``, gathers,
reductions), which release the GIL on large inputs, so thread-level
parallelism is real for the serial strategies whose per-query work
dominates.  For the fully vectorized
partition-based count path the sequential version is already one long
numpy pipeline; chunking mainly helps its ids mode and the other
strategies.  The ablation benchmark ``bench_ablation_parallel`` measures
exactly where the speedup lands.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import List, Optional

import numpy as np

import repro.obs as obs
from repro.core.result import BatchResult
from repro.core.strategies import STRATEGIES
from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch

__all__ = ["parallel_batch", "resolve_workers", "stitch_chunks"]

def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a ``workers`` argument to a concrete positive count.

    ``None`` means "derive from the machine": ``os.cpu_count()`` (at
    least 1) — the same convention :class:`~repro.shard.ShardedHint`
    uses for its thread pool.  Explicit values are validated (< 1
    raises ``ValueError``) and returned unchanged.
    """
    if workers is None:
        return os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be positive (or None for cpu count)")
    return workers


def _chunks(n: int, workers: int) -> List[slice]:
    """Split ``range(n)`` into at most *workers* contiguous slices."""
    if n == 0:
        return []
    workers = min(workers, n)
    bounds = np.linspace(0, n, workers + 1, dtype=np.int64)
    return [
        slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a
    ]


def parallel_batch(
    index: HintIndex,
    batch: QueryBatch,
    *,
    strategy: str = "partition-based",
    workers: Optional[int] = None,
    mode: str = "count",
    executor: Optional[ThreadPoolExecutor] = None,
) -> BatchResult:
    """Evaluate a batch with *strategy*, parallelized over *workers* threads.

    The batch is sorted by query start once, chunked contiguously (each
    chunk covers a compact slice of the domain, preserving the
    strategies' locality), and results are returned in the caller's
    original order — exactly like the sequential strategies.

    Parameters
    ----------
    index, batch:
        As for the sequential strategies.
    strategy:
        Name from :data:`repro.core.strategies.STRATEGIES`.
    workers:
        Number of chunks / threads (>= 1).  ``None`` (the default)
        resolves to ``os.cpu_count()`` (at least 1) via
        :func:`resolve_workers` — the same machine-derived convention
        :class:`~repro.shard.ShardedHint` and
        :class:`~repro.service.BatchingQueryService` use.
    executor:
        Optional externally managed pool (reused across calls); when
        omitted, a pool is created per call.
    """
    workers = resolve_workers(workers)
    try:
        spec = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
        ) from None
    fn = spec["fn"]

    def run_fn(idx, sub):
        return fn(idx, sub, sort=True, mode=mode)

    work = batch.sorted_by_start()
    n = len(work)
    if n == 0:
        # The short-circuit must still honour the requested mode: a
        # count-mode result for mode="checksum" breaks every caller
        # that dispatches on result.mode.
        return BatchResult.empty(mode)
    slices = _chunks(n, workers)
    if len(slices) == 1:
        return run_fn(index, batch)

    ob = obs.active()
    if ob is not None:
        # Chunks run on pool threads, outside the dispatching thread's
        # trace scope and span stack — capture both here so the chunk
        # spans, and the strategy spans inside them, stay attributable to
        # the flush that dispatched them.
        trace_ids = ob.recorder.current_trace_ids()
        parent_id = ob.recorder.current_span_id()

    def run(job) -> BatchResult:
        worker, sl = job
        sub = QueryBatch(work.st[sl], work.end[sl])
        if ob is None:
            return run_fn(index, sub)
        # Per-worker timing: each chunk is a `parallel.chunk` span and a
        # sample of the chunk-latency histogram, so skew between workers
        # (the straggler that bounds the whole flush) is visible live.
        t0 = perf_counter()
        try:
            with ob.recorder.trace_scope(trace_ids, parent_id):
                return run_fn(index, sub)
        finally:
            ob.record_parallel_chunk(
                strategy, worker, len(sub), perf_counter() - t0,
                trace_ids=trace_ids, parent_id=parent_id,
            )

    jobs = list(enumerate(slices))
    if executor is None:
        with ThreadPoolExecutor(max_workers=len(slices)) as pool:
            partials = list(pool.map(run, jobs))
    else:
        partials = list(executor.map(run, jobs))

    return stitch_chunks(partials, slices, work.order, mode)


def stitch_chunks(partials, slices, order: np.ndarray, mode: str) -> BatchResult:
    """Per-chunk results over *slices* of the sorted batch, in caller order."""
    parts = [
        partial.as_part(np.arange(sl.start, sl.stop))
        for partial, sl in zip(partials, slices)
    ]
    return BatchResult.merge(order.size, mode, parts, order)
