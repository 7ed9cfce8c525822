"""The caching execution front end.

:class:`CachingExecutor` wraps any backend that the
:class:`~repro.service.BatchingQueryService` can install — a
:class:`~repro.hint.index.HintIndex`, a
:class:`~repro.hint.dynamic.DynamicHint`, a
:class:`~repro.shard.ShardedHint`, an
:class:`~repro.engine.ExecutionEngine`, anything with the
``run_strategy``-shaped ``execute()`` surface — and answers repeated
ids queries from a :class:`~repro.cache.result.ResultCache`: exact
per-query id arrays keyed by the normalized query.

Count and checksum batches pass straight through to the backend: two
gathers per level cost less than a probe of the store (docs/caching.md,
"Count and checksum").  They touch neither the store nor the counters.

Invalidation contract
---------------------

The executor may never serve a stale answer.  Backends are classified by
mutability:

* immutable backends (``HintIndex``, ``ShardedHint``,
  ``ExecutionEngine``) never invalidate — entries live until evicted or
  the backend is replaced;
* a mutable :class:`DynamicHint` exposes a monotonic
  :attr:`~repro.hint.dynamic.DynamicHint.cache_version` plus a bounded
  mutation log.  Before every ids batch the executor compares versions;
  on a change it asks for the mutation deltas and **selectively** drops
  only cached queries overlapping a mutated interval.  When the deltas are
  unavailable (log overflow) — or when the selective pass itself fails
  (the :data:`~repro.verify.faults.SITE_CACHE_INVALIDATE` injection
  site) — the executor degrades to a **full flush**: strictly more
  invalidation than needed, never less, so a failed invalidation can
  produce extra misses but never a wrong answer;
* replacing the backend (:meth:`swap_backend`, or installing a fresh
  executor through ``service.swap_index``) always flushes the store.

``DynamicHint`` merges (``compact`` or a full buffer) do *not* bump the
content version — a merge changes the physical layout but
not one query answer — which is itself proven by the stateful cache
machine (``tests/test_cache_stateful.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.cache.result import ResultCache
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES, run_strategy
from repro.hint.dynamic import DynamicHint
from repro.intervals.batch import QueryBatch
from repro.verify.faults import SITE_CACHE_INVALIDATE, FaultPlan

__all__ = ["CachingExecutor", "CacheCounters"]


@dataclass(frozen=True)
class CacheCounters:
    """Point-in-time cache statistics (see :meth:`CachingExecutor.stats`)."""

    hits: int
    misses: int
    #: The part of ``hits`` answered by another query of the same batch
    #: (one shared execution), not by a resident entry.
    shared: int
    evictions: int
    invalidated_entries: int
    invalidation_flushes: int
    bytes_resident: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _pairs(batch: QueryBatch):
    """The batch's ``(st, end)`` as Python ints, in batch order."""
    return zip(batch.st.tolist(), batch.end.tolist())


class CachingExecutor:
    """Result cache in front of an execution backend.

    Parameters
    ----------
    backend:
        The wrapped index/executor.  Self-executing backends (those with
        an ``execute`` method) are delegated to as-is; a plain
        :class:`HintIndex` runs through
        :func:`~repro.core.strategies.run_strategy`; a
        :class:`DynamicHint` is served through
        its single-query API so mutations are always visible.
    max_bytes / max_entries:
        Result-tier residency budgets (see :class:`ResultCache`).
    fault_plan:
        Optional :class:`~repro.verify.faults.FaultPlan`; the
        :data:`~repro.verify.faults.SITE_CACHE_INVALIDATE` site fires at
        the start of every selective invalidation pass, and an injected
        failure degrades that pass to a full flush.  The attribute is
        public and may be re-armed between batches (tests do).

    Examples
    --------
    >>> from repro import HintIndex, IntervalCollection, QueryBatch
    >>> from repro.cache import CachingExecutor
    >>> index = HintIndex(IntervalCollection.from_pairs([(2, 5), (4, 9)]), m=4)
    >>> cached = CachingExecutor(index)
    >>> batch = QueryBatch([0, 8], [3, 12])
    >>> cached.execute(batch, mode="ids").flat_ids.tolist()
    [0, 1]
    >>> cached.execute(batch, mode="ids").flat_ids.tolist()  # served from cache
    [0, 1]
    >>> cached.stats().hits
    2
    >>> cached.execute(batch, mode="count").counts.tolist()  # passed through
    [1, 1]
    """

    def __init__(
        self,
        backend,
        *,
        max_bytes: int = 64 << 20,
        max_entries: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self._lock = threading.RLock()
        self._results = ResultCache(max_bytes, max_entries)
        self.fault_plan = fault_plan
        self._hits = 0
        self._misses = 0
        self._shared = 0
        self._invalidated = 0
        self._flushes = 0
        self._install(backend)

    # ------------------------------------------------------------------ #
    # backend management
    # ------------------------------------------------------------------ #

    def _install(self, backend) -> None:
        self._backend = backend
        if isinstance(backend, DynamicHint):
            self._kind = "dynamic"
        elif hasattr(backend, "execute"):
            self._kind = "execute"
        elif hasattr(backend, "levels") and hasattr(backend, "m"):
            self._kind = "index"
        else:
            raise TypeError(
                "backend must be a DynamicHint, expose execute(), or be a "
                f"HintIndex-like object; got {type(backend).__name__}"
            )
        self._seen_version = getattr(backend, "cache_version", 0)
        self._top = self._resolve_top(backend)

    @staticmethod
    def _resolve_top(backend) -> Optional[int]:
        for obj in (backend, getattr(backend, "_index", None)):
            if obj is None:
                continue
            top = getattr(obj, "_domain_top", None)
            if top is not None:
                return int(top)
            m = getattr(obj, "m", None)
            if m is not None:
                return (1 << int(m)) - 1
        return None

    @property
    def backend(self):
        """The currently wrapped backend."""
        return self._backend

    def swap_backend(self, new_backend, *, close_old: bool = False):
        """Install *new_backend*; flushes the store; returns the old one.

        The cache-preserving counterpart of
        ``service.swap_index(CachingExecutor(...))`` — use it when the
        executor itself stays installed and only the index underneath
        changes (e.g. after an offline rebuild).
        """
        with self._lock:
            old = self._backend
            self._flush_all()
            self._install(new_backend)
        if close_old:
            close = getattr(old, "close", None)
            if close is not None:
                close()
        return old

    def close(self) -> None:
        """Close the wrapped backend (when it is closable)."""
        close = getattr(self._backend, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #

    def _flush_all(self) -> None:
        self._invalidated += self._results.clear()
        self._flushes += 1

    def invalidate(self, lo: Optional[int] = None, hi: Optional[int] = None) -> None:
        """Drop cached results overlapping ``[lo, hi]`` (or everything).

        The selective pass fires the ``cache.invalidate`` fault site; a
        failure degrades to a full flush — never a stale entry.
        """
        with self._lock:
            if lo is None or hi is None:
                self._flush_all()
                return
            self._apply_regions([(int(lo), int(hi))])

    def _apply_regions(self, regions) -> None:
        """Selective drop with the degrade-to-flush contract."""
        try:
            if self.fault_plan is not None:
                self.fault_plan.fire(SITE_CACHE_INVALIDATE)
            if regions is None:
                raise RuntimeError("mutation deltas unavailable")
            self._invalidated += self._results.drop_overlapping(regions)
        except Exception:
            self._flush_all()

    def _maybe_invalidate(self) -> None:
        version = getattr(self._backend, "cache_version", None)
        if version is None or version == self._seen_version:
            return
        regions = None
        dirty_since = getattr(self._backend, "dirty_since", None)
        if dirty_since is not None:
            regions = dirty_since(self._seen_version)
        self._apply_regions(regions)
        self._seen_version = version

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        batch: QueryBatch,
        *,
        strategy: str = "partition-based",
        mode: str = "count",
    ) -> BatchResult:
        """Evaluate *batch*; results in caller order, ids hits served
        cached, count and checksum batches passed through to the backend.

        Mirrors :func:`~repro.core.strategies.run_strategy` — same
        strategy names, same result modes, same ordering contract — so
        the executor installs into a
        :class:`~repro.service.BatchingQueryService` via ``swap_index``
        with zero call-site changes, exactly like
        :class:`~repro.shard.ShardedHint` and
        :class:`~repro.engine.ExecutionEngine`.
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
        if mode != "ids":
            with self._lock:
                return self._run(batch, strategy, mode)
        ob = obs.active()
        if ob is None:
            return self._execute_inner(batch, strategy, None)
        with ob.span(
            "cache.execute", strategy=strategy, queries=n, mode=mode
        ) as sp:
            pre_hits, pre_misses = self._hits, self._misses
            result = self._execute_inner(batch, strategy, ob)
            sp.attrs["entries"] = len(self._results)
            sp.attrs["hits"] = self._hits - pre_hits
            sp.attrs["misses"] = self._misses - pre_misses
            return result

    def _execute_inner(self, batch, strategy, ob) -> BatchResult:
        n = len(batch)
        with self._lock:
            pre = (self._hits, self._misses, self._shared, self._results.evictions,
                   self._invalidated, self._flushes)
            self._maybe_invalidate()
            if self._top is not None:
                q_st = np.clip(batch.st, 0, self._top)
                q_end = np.clip(batch.end, 0, self._top)
            else:
                q_st, q_end = batch.st, batch.end
            rows = self._results.lookup(q_st, q_end)
            hit_at = np.flatnonzero(rows >= 0)
            miss_at = np.flatnonzero(rows < 0)
            # Read the hits before the fill below, which may evict or
            # displace one of them.
            hits = self._results.payloads(rows[hit_at])
            # One sort puts the batch's repeats of a missed query side by
            # side: the first is the miss, the rest share its execution (no
            # extra backend work — counted as hits), and the sub-batch
            # reaches the backend already in start order.
            m_st, m_end = q_st[miss_at], q_end[miss_at]
            by_key = self._sort_keys(m_st, m_end)
            m_st, m_end = m_st[by_key], m_end[by_key]
            first = np.ones(miss_at.size, dtype=bool)
            first[1:] = (m_st[1:] != m_st[:-1]) | (m_end[1:] != m_end[:-1])
            u_st, u_end = m_st[first], m_end[first]
            answer_of = np.empty(miss_at.size, dtype=np.intp)
            answer_of[by_key] = np.cumsum(first) - 1
            self._misses += u_st.size
            self._shared += miss_at.size - u_st.size
            self._hits += n - u_st.size
            counts, ids = self._answers(QueryBatch(u_st, u_end), strategy)
            # Hits and misses land at their callers' positions in one merge;
            # a repeat reads the answer it shares.
            result = BatchResult.merge(n, "ids", [
                (batch.order[hit_at], *hits),
                (batch.order[miss_at], counts[answer_of], None,
                 (ids[answer_of], None, None)),
            ])
            self._results.fill(u_st, u_end, counts, ids)
            if ob is not None:
                ob.record_cache_batch(
                    hits=self._hits - pre[0],
                    misses=self._misses - pre[1],
                    shared=self._shared - pre[2],
                    evictions=self._results.evictions - pre[3],
                    invalidated=self._invalidated - pre[4],
                    flushes=self._flushes - pre[5],
                    bytes_resident=self._results.bytes_resident,
                    entries=len(self._results),
                )
            return result

    def _sort_keys(self, st: np.ndarray, end: np.ndarray) -> np.ndarray:
        """The permutation into ``(st, end)`` order; clipped keys that pack
        into one int64 take one sort instead of lexsort's two."""
        if self._top is not None and self._top < 1 << 31:
            return np.argsort(st * (self._top + 1) + end)
        return np.lexsort((end, st))

    def _run(self, batch: QueryBatch, strategy: str, mode: str) -> BatchResult:
        """The backend's answer to a non-empty *batch*, in caller order."""
        if self._kind == "execute":
            return self._backend.execute(batch, strategy=strategy, mode=mode)
        if self._kind == "index":
            return run_strategy(strategy, self._backend, batch, mode=mode)
        if mode == "count":
            # A DynamicHint counts without building ids.
            count = self._backend.query_count
            answered = BatchResult(np.fromiter(
                (count(s, e) for s, e in _pairs(batch)), np.int64, len(batch)
            ))
        else:
            answered = BatchResult.from_id_arrays(self._query_each(batch), mode)
        return BatchResult.merge(len(batch), mode, [answered.as_part(batch.order)])

    def _query_each(self, batch: QueryBatch) -> list:
        """A :class:`DynamicHint`'s ids for each query of *batch*, one
        array per query, each owning its bytes."""
        query = self._backend.query
        return [
            np.asarray(query(s, e), dtype=np.int64)
            for s, e in _pairs(batch)
        ]

    def _answers(self, sub: QueryBatch, strategy: str):
        """The backend's ``(counts, ids)`` for the missed keys; ids are
        one array per key, each owning its bytes, for the store to keep
        and the result to copy from."""
        if self._kind == "dynamic":
            arrays = self._query_each(sub)
            counts = np.fromiter(map(len, arrays), np.int64, len(arrays))
            return counts, np.fromiter(arrays, object, len(arrays))
        answered = self._run(sub, strategy, "ids") if len(sub) else BatchResult.empty("ids")
        counts = answered.counts
        # The store lets go of what these answers push out before they
        # are copied, and the backend's flat array goes (with this frame)
        # before the result's is allocated: in this order the copies reuse
        # what eviction freed and the batch's large arrays keep finding
        # the room the last batch's left (docs/caching.md, "Who owns the
        # bytes").
        self._results.reserve(counts)
        cuts = answered.offsets.tolist()
        owned = (answered.flat_ids[a:b].copy() for a, b in zip(cuts, cuts[1:]))
        return counts, np.fromiter(owned, object, len(answered))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> CacheCounters:
        """Current hit/miss/eviction/invalidation/residency counters."""
        with self._lock:
            return CacheCounters(
                hits=self._hits,
                misses=self._misses,
                shared=self._shared,
                evictions=self._results.evictions,
                invalidated_entries=self._invalidated,
                invalidation_flushes=self._flushes,
                bytes_resident=self._results.bytes_resident,
                entries=len(self._results),
            )

    def clear(self) -> None:
        """Flush the store (counted as an invalidation flush)."""
        with self._lock:
            self._flush_all()

    def set_budget(
        self, max_bytes: Optional[int] = None, max_entries: Optional[int] = None
    ) -> None:
        """Adjust the store's budgets; shrinking evicts immediately."""
        with self._lock:
            self._results.set_budget(max_bytes, max_entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"CachingExecutor(kind={self._kind!r}, entries={s.entries}, "
            f"bytes={s.bytes_resident}, hit_rate={s.hit_rate:.2f})"
        )
