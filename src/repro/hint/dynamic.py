"""A dynamic wrapper over the static HINT index.

The paper's motivation is OLTP-style systems under query-heavy load;
those systems also *ingest*.  HINT itself is bulk-built and static, so
this wrapper follows the standard staging design for static main-memory
indexes:

* **inserts** land in a columnar staging buffer, scanned linearly at
  query time (it stays small) and merged into a rebuilt index once it
  exceeds ``rebuild_threshold`` — amortized O(n/k) rebuilds;
* **deletes** go into a tombstone id set, filtered out of every result
  and physically dropped at the next rebuild.

Queries therefore always see the current state:
``(index results ∪ buffer results) − tombstones``.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.hint.index import HintIndex
from repro.intervals.collection import IntervalCollection
from repro.intervals.relations import g_overlaps
from repro.verify.faults import SITE_REBUILD, FaultPlan

__all__ = ["DynamicHint"]

_EMPTY = np.empty(0, dtype=np.int64)


class DynamicHint:
    """Insert/delete support on top of :class:`~repro.hint.index.HintIndex`.

    Parameters
    ----------
    collection:
        Initial contents (may be empty).
    m:
        HINT parameter; fixed for the lifetime of the wrapper, so all
        inserted intervals must fit ``[0, 2**m - 1]``.
    rebuild_threshold:
        Staging-buffer size that triggers a merge-and-rebuild.
    debug_checks:
        Run the structural invariant validators
        (:func:`repro.verify.invariants.verify_index`) after every
        rebuild — roughly doubles rebuild cost, intended for tests.
    fault_plan:
        Optional :class:`repro.verify.faults.FaultPlan`; the rebuild
        fires the :data:`~repro.verify.faults.SITE_REBUILD` injection
        site before any state is touched.
    """

    def __init__(
        self,
        collection: Optional[IntervalCollection] = None,
        m: int = 16,
        *,
        rebuild_threshold: int = 4096,
        debug_checks: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if rebuild_threshold < 1:
            raise ValueError("rebuild_threshold must be positive")
        if collection is None:
            collection = IntervalCollection.empty()
        self.m = int(m)
        self.rebuild_threshold = int(rebuild_threshold)
        self.debug_checks = bool(debug_checks)
        self._fault_plan = fault_plan
        self._base = collection
        self._index = HintIndex(collection, m=m, debug_checks=debug_checks)
        self._base_ids_sorted, self._base_rows = self._rows_by_id(collection)
        self._buf_ids: List[int] = []
        self._buf_st: List[int] = []
        self._buf_end: List[int] = []
        self._buf_pos: Dict[int, int] = {}  # staged id -> its row in the buffer
        self._tombstones: set = set()
        # query()'s array forms of the buffer and the tombstone set, built
        # on first use after a mutation.
        self._buf_arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._dead_sorted: Optional[np.ndarray] = None
        self._live: set = set(collection.ids.tolist())
        self._next_id = int(collection.ids.max()) + 1 if len(collection) else 0
        self.rebuilds = 0
        # Content-version bookkeeping for caches (see cache_version):
        # every content mutation bumps the version and logs the mutated
        # interval; rebuilds do NOT (they change layout, not answers).
        self._cache_version = 0
        self._mutations: deque = deque(maxlen=1024)

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._live)

    @property
    def buffered(self) -> int:
        """Number of staged (not yet merged) inserts."""
        return len(self._buf_ids)

    def insert(self, st: int, end: int, id: Optional[int] = None) -> int:
        """Insert ``[st, end]``; returns the assigned (or given) id.

        Ids identify live objects.  Passing an id that is currently live
        raises (it would produce duplicate results), and re-using a
        *deleted* id before :meth:`compact` raises too — the tombstone
        would silently suppress the fresh insert from every query.  Omit
        the id to always get a fresh one.

        If the insert trips the rebuild threshold and the rebuild fails
        (out of memory, an injected fault), the interval is already
        staged and survives: the exception propagates, no state is torn
        down, and the next insert or :meth:`compact` retries the merge.
        """
        if st > end:
            raise ValueError("interval must have st <= end")
        top = (1 << self.m) - 1
        if st < 0 or end > top:
            raise ValueError(f"interval must lie inside [0, {top}]")
        if id is None:
            id = self._next_id
        id = int(id)
        if id in self._live:
            raise ValueError(f"id {id} is already live")
        if id in self._tombstones:
            raise ValueError(
                f"id {id} is tombstoned; compact() before re-using it"
            )
        self._next_id = max(self._next_id, id + 1)
        self._buf_pos[id] = len(self._buf_ids)
        self._buf_ids.append(id)
        self._buf_st.append(int(st))
        self._buf_end.append(int(end))
        self._buf_arrays = None
        self._live.add(id)
        self._record_mutation(int(st), int(end))
        if len(self._buf_ids) >= self.rebuild_threshold:
            self._rebuild()
        return id

    def delete(self, id: int) -> None:
        """Mark object *id* deleted (dropped physically at next rebuild).

        Works equally for ids already merged into the index and ids
        still in the staging buffer.  Raises :class:`KeyError` when *id*
        is not live (never inserted, or already deleted) — silently
        accepting it would corrupt :func:`len` and resurrect nothing.
        """
        id = int(id)
        if id not in self._live:
            raise KeyError(f"id {id} is not live")
        span = self._coords_of(id)
        self._live.discard(id)
        self._tombstones.add(id)
        self._dead_sorted = None
        if span is not None:
            self._record_mutation(span[0], span[1])
        else:  # untrackable: force full invalidation downstream
            self._record_mutation(None, None)

    # ------------------------------------------------------------------ #
    # cache-invalidation bookkeeping
    # ------------------------------------------------------------------ #

    def _coords_of(self, id: int) -> Optional[Tuple[int, int]]:
        """``(st, end)`` of a live object, buffer or base; None if lost."""
        pos = self._buf_pos.get(id)
        if pos is not None:
            return (self._buf_st[pos], self._buf_end[pos])
        at = int(np.searchsorted(self._base_ids_sorted, id))
        if at < self._base_ids_sorted.size and self._base_ids_sorted[at] == id:
            pos = int(self._base_rows[at])
            return (int(self._base.st[pos]), int(self._base.end[pos]))
        return None

    @staticmethod
    def _rows_by_id(base: IntervalCollection) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted ids, their rows in base)``: delete()'s id -> row lookup."""
        rows = np.argsort(base.ids, kind="stable")
        return base.ids[rows], rows

    def _dead(self) -> np.ndarray:
        """The tombstoned ids, sorted."""
        if self._dead_sorted is None:
            dead = np.fromiter(
                self._tombstones, dtype=np.int64, count=len(self._tombstones)
            )
            dead.sort()
            self._dead_sorted = dead
        return self._dead_sorted

    def _record_mutation(self, lo: Optional[int], hi: Optional[int]) -> None:
        self._cache_version += 1
        self._mutations.append((self._cache_version, lo, hi))

    @property
    def cache_version(self) -> int:
        """Monotonic content version; bumps on insert/delete, not rebuild.

        Caches compare this against the version they last observed and
        call :meth:`dirty_since` to learn what changed.  Rebuilds leave
        it untouched on purpose: a merge-and-rebuild changes the
        physical layout but not a single query answer.
        """
        return self._cache_version

    def dirty_since(self, version: int) -> Optional[List[Tuple[int, int]]]:
        """Mutated ``(lo, hi)`` intervals since *version*, or ``None``.

        ``None`` means the history is unavailable — the requested
        version predates the bounded mutation log, or a mutation could
        not be attributed to an interval — and the caller must treat
        *everything* as dirty (full flush).  An empty list means nothing
        changed.
        """
        version = int(version)
        if version > self._cache_version:
            raise ValueError(
                f"version {version} is ahead of cache_version "
                f"{self._cache_version}"
            )
        if version == self._cache_version:
            return []
        if not self._mutations or self._mutations[0][0] > version + 1:
            return None  # log truncated: can't prove what changed
        regions: List[Tuple[int, int]] = []
        for ver, lo, hi in self._mutations:
            if ver <= version:
                continue
            if lo is None:
                return None
            regions.append((lo, hi))
        return regions

    def _rebuild(self) -> None:
        """Merge buffer + base, drop tombstones, rebuild the index.

        The rebuild is atomic: all new state is computed first and
        committed together, so a failure (e.g. an injected
        :data:`~repro.verify.faults.SITE_REBUILD` fault) leaves the
        wrapper exactly as it was.
        """
        ob = obs.active()
        if ob is None:
            return self._rebuild_inner()
        with ob.span(
            "dynamic.rebuild",
            buffered=len(self._buf_ids),
            tombstones=len(self._tombstones),
        ) as sp:
            t0 = perf_counter()
            self._rebuild_inner()
            duration = perf_counter() - t0
            sp.attrs["size"] = len(self._live)
            reg = ob.registry
            reg.counter(
                "repro_dynamic_rebuilds_total",
                help="Merge-and-rebuild passes of DynamicHint.",
            ).inc()
            reg.histogram(
                "repro_dynamic_rebuild_seconds",
                help="DynamicHint rebuild duration.",
            ).observe(duration)
            reg.gauge(
                "repro_dynamic_live",
                help="Live intervals in DynamicHint after the last rebuild.",
            ).set(len(self._live))

    def _rebuild_inner(self) -> None:
        if self._fault_plan is not None:
            self._fault_plan.fire(SITE_REBUILD)
        merged_ids = np.concatenate(
            [self._base.ids, np.asarray(self._buf_ids, dtype=np.int64)]
        )
        merged_st = np.concatenate(
            [self._base.st, np.asarray(self._buf_st, dtype=np.int64)]
        )
        merged_end = np.concatenate(
            [self._base.end, np.asarray(self._buf_end, dtype=np.int64)]
        )
        if self._tombstones:
            keep = ~np.isin(merged_ids, self._dead())
            merged_ids = merged_ids[keep]
            merged_st = merged_st[keep]
            merged_end = merged_end[keep]
        base = IntervalCollection(merged_st, merged_end, merged_ids, copy=False)
        index = HintIndex(base, m=self.m, debug_checks=self.debug_checks)
        rows_by_id = self._rows_by_id(base)
        # ---- commit point: nothing above mutated self ----
        self._base = base
        self._index = index
        self._base_ids_sorted, self._base_rows = rows_by_id
        self._tombstones.clear()
        self._buf_ids.clear()
        self._buf_st.clear()
        self._buf_end.clear()
        self._buf_pos.clear()
        self._buf_arrays = self._dead_sorted = None
        self.rebuilds += 1
        if self.debug_checks:
            from repro.verify.invariants import verify_index

            verify_index(self)

    def compact(self) -> None:
        """Force a merge-and-rebuild now."""
        self._rebuild()

    # ------------------------------------------------------------------ #

    def query(self, q_st: int, q_end: int) -> np.ndarray:
        """Ids G-overlapping ``[q_st, q_end]`` in the current state."""
        parts = [self._index.query(q_st, q_end)]
        if self._buf_ids:
            if self._buf_arrays is None:
                self._buf_arrays = tuple(
                    np.asarray(column, dtype=np.int64)
                    for column in (self._buf_ids, self._buf_st, self._buf_end)
                )
            buf_ids, st, end = self._buf_arrays
            parts.append(buf_ids[g_overlaps(st, end, q_st, q_end)])
        ids = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if self._tombstones and ids.size:
            dead = self._dead()
            at = np.minimum(np.searchsorted(dead, ids), dead.size - 1)
            ids = ids[dead[at] != ids]
        return ids

    def query_count(self, q_st: int, q_end: int) -> int:
        """Number of current intervals G-overlapping the query."""
        return int(self.query(q_st, q_end).size)

    def snapshot(self) -> IntervalCollection:
        """The current contents as an immutable collection (compacts)."""
        if self._buf_ids or self._tombstones:
            self._rebuild()
        return self._base

    @property
    def index(self) -> HintIndex:
        """The underlying static index (valid until the next rebuild)."""
        return self._index
