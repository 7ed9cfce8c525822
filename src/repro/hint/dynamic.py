"""A dynamic wrapper over the static HINT index.

The paper's motivation is OLTP-style systems under query-heavy load;
those systems also *ingest*.  HINT itself is bulk-built and static, so
this wrapper stages writes beside an immutable index, as HINT's delta
buffer plus tombstones:

* **inserts** append to columnar staging buffers (``array('q')``
  columns, one per field);
* **deletes** tombstone the id; a base row's coordinates are appended to
  tombstone columns, a staged row's buffer position is recorded;
* at ``rebuild_threshold`` staged rows, or on :meth:`compact`, both are
  **merged** into a new index (:meth:`~repro.hint.index.HintIndex.merged`:
  dead rows masked out of each table, staged rows inserted at their
  ``searchsorted`` positions), equal table for table to a fresh build at
  a pass of copying and no sort longer than the buffer.  The base
  collection and its id -> row lookup are rebuilt the same way, one pass
  per column and one validation.

A query reads one immutable view — the index, plus one pair of
coordinate columns holding the index's tombstoned rows (sorted by id)
followed by the live staged rows — exactly once, so a merge committing
mid-query cannot pair the old index with the emptied buffer: it answers
``(index ∪ buffer) − tombstones`` of one moment.  A miss clips once,
walks the index (:meth:`~repro.hint.index.HintIndex._run_single`),
makes one overlap scan of the view's rows and concatenates once; a
tombstoned id is filtered out only when its row overlaps the query, and
then it is in the index's answer exactly once — so a count needs no ids
at all (:meth:`DynamicHint.query_count`).  Writers serialise on one
lock; the first query after a write builds the next view from the
columns, sorting nothing longer than the tombstones.

Why not a geometric ladder of delta indexes?  Each delta adds a probe to
every cache miss, and misses are answered one query at a time; with a
merge this cheap, one index and one buffer suffice at this scale.
"""

from __future__ import annotations

import threading
from array import array
from collections import deque
from itertools import islice
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.hint.index import HintIndex
from repro.intervals.collection import IntervalCollection
from repro.intervals.relations import g_overlaps
from repro.verify.faults import SITE_REBUILD, FaultPlan

__all__ = ["DynamicHint"]

#: Up to this many tombstoned ids in one answer are dropped by comparing
#: the answer with each (a pass apiece); more are looked up in one pass.
#: A pass costs ~1 µs plus the answer's length, a lookup ~8 ns per id, so
#: the crossover grows with the answer: ~2 ids at 200, ~8 at 2000, above
#: 48 at 20000 (2 cores).  Passes alone would be quadratic when deletes
#: pile up between merges (50000 ids with 5000 tombstoned: 91 ms against
#: 7 ms looked up).
_FEW_DEAD = 16


class _View(NamedTuple):
    """What one query reads: immutable, taken once."""

    index: HintIndex
    ids: np.ndarray  # the index's tombstoned rows, by id, then the live staged rows
    st: np.ndarray
    end: np.ndarray
    dead: int  # how many of the rows are tombstoned


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
        Staging-buffer size that triggers a merge.
    debug_checks:
        Run the structural invariant validators
        (:func:`repro.verify.invariants.verify_index`) after every
        merge — roughly doubles merge cost, intended for tests.
    fault_plan:
        Optional :class:`repro.verify.faults.FaultPlan`; the merge fires
        the :data:`~repro.verify.faults.SITE_REBUILD` injection site
        before any state is touched.
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
        # delete()'s id -> row lookup: the base ids sorted, and their rows.
        self._base_rows = np.argsort(collection.ids, kind="stable")
        self._base_ids_sorted = collection.ids[self._base_rows]
        # The staged rows, and the positions among them of the deleted ones.
        self._buf_ids, self._buf_st, self._buf_end = array("q"), array("q"), array("q")
        self._buf_pos: Dict[int, int] = {}  # staged id -> its row in the buffer
        self._buf_gone = array("q")
        # The tombstoned rows of the base, in delete order.
        self._dead_ids, self._dead_st, self._dead_end = array("q"), array("q"), array("q")
        self._lock = threading.Lock()  # held by every write
        self._view: Optional[_View] = None  # built by the first query after a write
        self._live: set = set(collection.ids.tolist())
        self._next_id = int(collection.ids.max()) + 1 if len(collection) else 0
        self.rebuilds = 0
        # Content-version bookkeeping for caches (see cache_version):
        # every content mutation bumps the version and logs the mutated
        # interval; merges do NOT (they change layout, not answers).
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

        If the insert trips the rebuild threshold and the merge fails
        (out of memory, an injected fault), the interval is already
        staged and survives: the exception propagates, no state is torn
        down, and the next insert or :meth:`compact` retries the merge.
        """
        if st > end:
            raise ValueError("interval must have st <= end")
        top = (1 << self.m) - 1
        if st < 0 or end > top:
            raise ValueError(f"interval must lie inside [0, {top}]")
        st, end = int(st), int(end)
        with self._lock:
            if id is None:
                id = self._next_id
            id = int(id)
            if id in self._live:
                raise ValueError(f"id {id} is already live")
            if self._is_tombstoned(id):
                raise ValueError(
                    f"id {id} is tombstoned; compact() before re-using it"
                )
            self._buf_ids.append(id)  # an id outside int64 raises here, first
            self._buf_st.append(st)
            self._buf_end.append(end)
            self._buf_pos[id] = len(self._buf_ids) - 1
            self._view = None
            self._next_id = max(self._next_id, id + 1)
            self._live.add(id)
            self._record_mutation(st, end)
            if len(self._buf_ids) >= self.rebuild_threshold:
                self._rebuild()
        return id

    def delete(self, id: int) -> None:
        """Mark object *id* deleted (dropped physically at the next merge).

        Works equally for ids already merged into the index and ids
        still in the staging buffer.  Raises :class:`KeyError` when *id*
        is not live (never inserted, or already deleted) — silently
        accepting it would corrupt :func:`len` and resurrect nothing.
        """
        id = int(id)
        with self._lock:
            if id not in self._live:
                raise KeyError(f"id {id} is not live")
            pos = self._buf_pos.get(id)
            if pos is not None:
                span = (self._buf_st[pos], self._buf_end[pos])
                self._buf_gone.append(pos)
            else:
                span = self._coords_of(id)
                if span is not None:
                    self._dead_ids.append(id)
                    self._dead_st.append(span[0])
                    self._dead_end.append(span[1])
            self._view = None
            self._live.discard(id)
            if span is not None:
                self._record_mutation(*span)
            else:  # untrackable: force full invalidation downstream
                self._record_mutation(None, None)

    # ------------------------------------------------------------------ #
    # cache-invalidation bookkeeping
    # ------------------------------------------------------------------ #

    def _is_tombstoned(self, id: int) -> bool:
        """Whether *id* was deleted since the last merge.  A stored id
        that is not live is a tombstone: a staged one deleted, or a base
        row deleted.  An id from ``_next_id`` up was never stored."""
        if id in self._live or id >= self._next_id:
            return False
        return id in self._buf_pos or self._coords_of(id) is not None

    def _coords_of(self, id: int) -> Optional[Tuple[int, int]]:
        """``(st, end)`` of a base row by its id; None if it is not there."""
        ids = self._base_ids_sorted
        at = int(ids.searchsorted(id))
        if at < ids.size and ids.item(at) == id:
            row = self._base_rows.item(at)
            return (self._base.st.item(row), self._base.end.item(row))
        return None

    def _record_mutation(self, lo: Optional[int], hi: Optional[int]) -> None:
        self._cache_version += 1
        self._mutations.append((self._cache_version, lo, hi))

    @property
    def cache_version(self) -> int:
        """Monotonic content version; bumps on insert/delete, not merge.

        Caches compare this against the version they last observed and
        call :meth:`dirty_since` to learn what changed.  Merges leave it
        untouched on purpose: a merge changes the physical layout but
        not a single query answer.
        """
        return self._cache_version

    def dirty_since(self, version: int) -> Optional[List[Tuple[int, int]]]:
        """Mutated ``(lo, hi)`` intervals since *version*, or ``None``.

        ``None`` means the history is unavailable — the requested
        version predates the bounded mutation log, or a mutation could
        not be attributed to an interval — and the caller must treat
        *everything* as dirty (full flush).  An empty list means nothing
        changed.  Versions are consecutive, so the records after
        *version* are the log's last ``cache_version - version``: only
        they are read.
        """
        version = int(version)
        with self._lock:
            if version > self._cache_version:
                raise ValueError(
                    f"version {version} is ahead of cache_version "
                    f"{self._cache_version}"
                )
            newer = self._cache_version - version
            if newer > len(self._mutations):
                return None  # log truncated: can't prove what changed
            tail = list(islice(reversed(self._mutations), newer))
        regions: List[Tuple[int, int]] = []
        for _, lo, hi in reversed(tail):
            if lo is None:
                return None
            regions.append((lo, hi))
        return regions

    def _rebuild(self) -> None:
        """Merge the buffer into the index and drop the tombstoned rows.

        Called with the lock held.  The merge is atomic: all new state is
        computed first and committed together, so a failure (e.g. an
        injected :data:`~repro.verify.faults.SITE_REBUILD` fault) leaves
        the wrapper exactly as it was.
        """
        ob = obs.active()
        if ob is None:
            return self._rebuild_inner()
        with ob.span(
            "dynamic.rebuild",
            buffered=len(self._buf_ids),
            tombstones=len(self._dead_ids) + len(self._buf_gone),
        ) as sp:
            t0 = perf_counter()
            self._rebuild_inner()
            duration = perf_counter() - t0
            sp.attrs["size"] = len(self._live)
            reg = ob.registry
            reg.counter(
                "repro_dynamic_rebuilds_total",
                help="Merges of DynamicHint's buffer and tombstones.",
            ).inc()
            reg.histogram(
                "repro_dynamic_rebuild_seconds",
                help="DynamicHint merge duration.",
            ).observe(duration)
            reg.gauge(
                "repro_dynamic_live",
                help="Live intervals in DynamicHint after the last merge.",
            ).set(len(self._live))

    def _rebuild_inner(self) -> None:
        if self._fault_plan is not None:
            self._fault_plan.fire(SITE_REBUILD)
        view = self._view if self._view is not None else self._make_view()
        d = view.dead
        gone = IntervalCollection(
            view.st[:d], view.end[:d], view.ids[:d], copy=False
        )
        staged = IntervalCollection(
            view.st[d:], view.end[d:], view.ids[d:], copy=False
        )
        index = self._index.merged(gone, staged)
        base, ids_sorted, base_rows = self._merged_base(gone, staged)
        # ---- commit point: nothing above mutated self ----
        self._base, self._index = base, index
        self._base_ids_sorted, self._base_rows = ids_sorted, base_rows
        for column in (
            self._buf_ids, self._buf_st, self._buf_end, self._buf_gone,
            self._dead_ids, self._dead_st, self._dead_end,
        ):
            del column[:]
        self._buf_pos.clear()
        self._view = None
        self.rebuilds += 1
        if self.debug_checks:
            from repro.verify.invariants import verify_index

            verify_index(self)

    def _merged_base(self, gone: IntervalCollection, staged: IntervalCollection):
        """The base collection and its id lookup after a merge: the rows
        *gone* dropped, the survivors renumbered, the rows
        *staged* appended.  One masked copy per column, one validation,
        no sort longer than *staged*."""
        base = self._base
        at = self._base_ids_sorted.searchsorted(gone.ids)
        keep = np.ones(len(base), dtype=bool)
        keep[self._base_rows[at]] = False
        kept = len(base) - len(gone)
        merged = IntervalCollection(
            *(
                np.concatenate((old[keep], new))
                for old, new in (
                    (base.st, staged.st), (base.end, staged.end), (base.ids, staged.ids)
                )
            ),
            copy=False,
        )
        rank = np.empty(keep.size, dtype=np.int64)  # an old row's new row
        rank[keep] = np.arange(kept)
        order = np.argsort(staged.ids, kind="stable")
        ids_sorted = np.delete(self._base_ids_sorted, at)
        slot = ids_sorted.searchsorted(staged.ids[order])
        ids_sorted = np.insert(ids_sorted, slot, staged.ids[order])
        base_rows = np.insert(
            rank[np.delete(self._base_rows, at)], slot, kept + order
        )
        return merged, ids_sorted, base_rows

    def compact(self) -> None:
        """Merge the buffer and the tombstones into the index now."""
        with self._lock:
            self._rebuild()

    # ------------------------------------------------------------------ #

    def _make_view(self) -> _View:
        """The current state as one view (called with the lock held)."""
        staged = [np.array(c) for c in (self._buf_ids, self._buf_st, self._buf_end)]
        if self._buf_gone:
            live = np.ones(len(self._buf_ids), dtype=bool)
            live[np.array(self._buf_gone)] = False
            staged = [column[live] for column in staged]
        dead = [np.array(c) for c in (self._dead_ids, self._dead_st, self._dead_end)]
        by_id = dead[0].argsort()
        return _View(
            self._index,
            *(np.concatenate((d[by_id], s)) for d, s in zip(dead, staged)),
            len(self._dead_ids),
        )

    def _current_view(self) -> _View:
        view = self._view
        if view is None:
            with self._lock:
                view = self._view
                if view is None:
                    view = self._view = self._make_view()
        return view

    def query(self, q_st: int, q_end: int) -> np.ndarray:
        """Ids G-overlapping ``[q_st, q_end]`` in the current state."""
        view = self._current_view()
        index = view.index
        q_st, q_end = index._clip(q_st, q_end)
        pieces = index._run_single(q_st, q_end, False)
        hit = g_overlaps(view.st, view.end, q_st, q_end).nonzero()[0]
        cut = hit.searchsorted(view.dead)
        pieces.append(view.ids[hit[cut:]])
        ids = np.concatenate(pieces)
        if cut:
            # The tombstoned rows overlapping the query, by id: each is
            # in the index's answer exactly once.
            gone = view.ids[hit[:cut]]
            if cut <= _FEW_DEAD:
                keep = ids != gone.item(0)
                for id in gone[1:].tolist():
                    keep &= ids != id
            else:
                keep = gone.take(gone.searchsorted(ids), mode="clip") != ids
            ids = ids[keep]
        return ids

    def query_count(self, q_st: int, q_end: int) -> int:
        """Number of current intervals G-overlapping the query.

        :meth:`query`'s walk, counted: the index's pieces, minus the
        tombstoned rows overlapping the query, plus the staged ones.
        """
        view = self._current_view()
        index = view.index
        q_st, q_end = index._clip(q_st, q_end)
        count = sum(piece.size for piece in index._run_single(q_st, q_end, False))
        hit = g_overlaps(view.st, view.end, q_st, q_end)
        dead = np.count_nonzero(hit[: view.dead])
        return count + int(np.count_nonzero(hit)) - 2 * int(dead)

    def snapshot(self) -> IntervalCollection:
        """The current contents as an immutable collection (compacts)."""
        with self._lock:
            if self._buf_ids or self._dead_ids:
                self._rebuild()
            return self._base

    @property
    def index(self) -> HintIndex:
        """The underlying static index (valid until the next merge)."""
        return self._index
