"""The production (columnar) HINT index and Algorithm 1.

:class:`HintIndex` builds the full hierarchy in one vectorized pass and
answers single selection queries bottom-up as Algorithm 1 of the paper,
with its duplicate-avoidance rules (replicas only at the first relevant
partition; only originals at the others).

One consequence of the merged per-level layout is worth calling out: the
partitions ``f .. l`` a query touches on a level are stored back to back,
so each table answers with one row run (see :mod:`repro.hint.tables`),
and only occupied levels are visited.  The index's domain is
``[0, 2**m - 1]`` and every interval is tiled exactly, so every row
covers its partition whole and the ``compfirst``/``complast``
comparisons can never drop one: a query's answer is four row runs per
level, read off the tables' offsets.  A batch reads them for all its
queries at once: two entries per level of the index's prefix folds for
a count or checksum (:meth:`HintIndex.fold`), four runs per level of its
id runs for ids (:meth:`HintIndex.id_runs`).  Only the top-down
traversal, the ablation of the bottom-up pruning, still compares.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.hint.assignment import assign_collection
from repro.hint.bits import validate_domain
from repro.hint.model import choose_m
from repro.hint.tables import LevelData, build_level_data, merge_level_data
from repro.intervals.collection import IntervalCollection

__all__ = ["HintIndex"]

_EMPTY = np.empty(0, dtype=np.int64)

# Serializes the lazy fold and id-runs builds (each index builds each
# once).  Not the tables' lock: a checksum fold reads ``xor_prefix``,
# which takes that.
_FOLD_LOCK = threading.Lock()


class HintIndex:
    """Hierarchical index for intervals over the domain ``[0, 2**m - 1]``.

    Parameters
    ----------
    collection:
        The input interval collection ``S``.  All endpoints must already
        lie inside the domain (use
        :meth:`~repro.intervals.IntervalCollection.normalized` first if
        they do not).
    m:
        Number of bits of the domain; the index has ``m + 1`` levels.
        When omitted, a value is chosen with
        :func:`repro.hint.model.choose_m`.  Memory note: the per-level
        offsets arrays are dense (``2**level + 1`` entries each, about
        ``2**(m+6)`` bytes across all classes and levels), so ``m`` above
        ~24 costs gigabytes before any data is stored — normalize into a
        coarser domain instead, or pick ``m`` with
        :func:`repro.hint.cost.choose_m_model`.
    storage_optimized:
        Drop endpoint columns that query processing never reads.
    precompute_aux:
        Eagerly build the lazy auxiliary arrays (each table's
        :attr:`~repro.hint.tables.SubdivisionTable.xor_prefix` and the
        index's two :meth:`fold` arrays) at the end of the build.  Off
        by default — an ids-only index never reads them — but build
        paths feeding count or checksum serving should turn it on so no
        query thread pays the lazy build.
    debug_checks:
        Run the structural invariant validators
        (:func:`repro.verify.invariants.verify_index`) against the
        freshly built hierarchy, including the deep re-assignment check
        against *collection*.  Roughly doubles build cost; intended for
        tests and debugging, off in production.

    Examples
    --------
    >>> from repro import IntervalCollection, HintIndex
    >>> coll = IntervalCollection.from_pairs([(2, 5), (4, 4), (0, 15)])
    >>> index = HintIndex(coll, m=4)
    >>> sorted(index.query(4, 6))
    [0, 1, 2]
    """

    def __init__(
        self,
        collection: IntervalCollection,
        m: Optional[int] = None,
        *,
        storage_optimized: bool = True,
        precompute_aux: bool = False,
        debug_checks: bool = False,
    ):
        if m is None:
            m = choose_m(collection)
        if m < 0:
            raise ValueError("m must be non-negative")
        if m > 30:
            # 2**m offset entries per level table and packed
            # (partition, key) probe keys of 2m bits: beyond 30 bits the
            # index stops being a main-memory structure and the packing
            # approaches int64 limits.  Normalize the collection into a
            # coarser domain instead.
            raise ValueError(
                f"m={m} is not supported (maximum 30); normalize the "
                "collection into a coarser domain"
            )
        validate_domain(m, collection.st, collection.end)
        self.m = int(m)
        self.num_intervals = len(collection)
        self.storage_optimized = bool(storage_optimized)
        self.debug_checks = bool(debug_checks)
        self._domain_top = (1 << self.m) - 1
        self._install_levels(self._build(collection))
        if precompute_aux:
            self.precompute_aux()
        if self.debug_checks:
            # Imported here: repro.verify depends on this module.
            from repro.verify.invariants import verify_index

            verify_index(self, collection=collection)

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    @classmethod
    def from_levels(
        cls,
        m: int,
        num_intervals: int,
        storage_optimized: bool,
        levels: List[LevelData],
    ) -> "HintIndex":
        """Assemble an index around prebuilt level tables without a
        collection pass (persistence load)."""
        index = cls.__new__(cls)
        index.m = int(m)
        index.num_intervals = int(num_intervals)
        index.storage_optimized = bool(storage_optimized)
        index.debug_checks = False
        index._domain_top = (1 << index.m) - 1
        index._install_levels(levels)
        return index

    def _install_levels(self, levels: List[LevelData]) -> None:
        self.levels: List[LevelData] = levels
        #: Levels holding at least one placement, bottom-up (the order the
        #: strategies visit them): recorded once, so no batch re-counts the
        #: tables or sets up a pass over an empty level.
        self.occupied_levels = tuple(
            data.level for data in reversed(levels) if data.total()
        )
        # Per occupied level, as columns: its shift and where O[1] and D[0]
        # sit in a fold (2**level + 1 entries of O, then 2**level of D).
        occupied = np.array(self.occupied_levels, dtype=np.int64)
        size = (2 << occupied) + 1
        o_1 = np.cumsum(size) - size + 1
        self.fold_layout = tuple(
            column[:, None]
            for column in (self.m - occupied, o_1, o_1 + (1 << occupied))
        )
        # Per occupied level, as rows: where O_in's, O_aft's, R_in's and
        # R_aft's offsets start in id_runs()'s run starts (each table of a
        # level has 2**level + 1 entries, the four back to back).
        width = (1 << occupied) + 1
        self.runs_layout = (
            4 * (np.cumsum(width) - width) + np.arange(4)[:, None] * width
        )
        self._folds: Dict[str, np.ndarray] = {}
        self._id_runs: Optional[tuple] = None

    def _build(self, collection: IntervalCollection) -> List[LevelData]:
        placements = assign_collection(self.m, collection.st, collection.end)
        levels = []
        for level in range(self.m + 1):
            rows, parts, classes = placements.get(
                level, (_EMPTY, _EMPTY, _EMPTY.astype(np.int8))
            )
            levels.append(
                build_level_data(
                    level,
                    rows,
                    parts,
                    classes,
                    collection.ids,
                    collection.st,
                    collection.end,
                    storage_optimized=self.storage_optimized,
                    key_bits=max(self.m, 1),
                )
            )
        return levels

    def merged(
        self, dead: IntervalCollection, staged: IntervalCollection
    ) -> "HintIndex":
        """A new index equal, table for table, to ``HintIndex(base', m)``.

        ``base'`` is the collection this index was built from without the
        rows *dead* (which must be among them) and with *staged* appended.
        The tables are merged (:func:`~repro.hint.tables.merge_level_data`),
        not rebuilt; this index is left as it was.
        """
        gone, new = (
            {
                level: (parts, classes, coll.ids[rows], coll.st[rows], coll.end[rows])
                for level, (rows, parts, classes) in assign_collection(
                    self.m, coll.st, coll.end
                ).items()
            }
            for coll in (dead, staged)
        )
        nothing = (_EMPTY,) * 5
        levels = [
            merge_level_data(
                data,
                gone.get(data.level, nothing),
                new.get(data.level, nothing),
                storage_optimized=self.storage_optimized,
                key_bits=max(self.m, 1),
            )
            for data in self.levels
        ]
        return HintIndex.from_levels(
            self.m,
            self.num_intervals - len(dead) + len(staged),
            self.storage_optimized,
            levels,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def domain(self) -> tuple:
        """The closed index domain ``(0, 2**m - 1)``."""
        return (0, self._domain_top)

    def __len__(self) -> int:
        return self.num_intervals

    def __repr__(self) -> str:
        return (
            f"HintIndex(m={self.m}, n={self.num_intervals}, "
            f"placements={self.num_placements()})"
        )

    def num_placements(self) -> int:
        """Total interval placements across all levels (replication incl.)."""
        return sum(level.total() for level in self.levels)

    def replication_factor(self) -> float:
        """Average number of partitions an interval is stored in."""
        if self.num_intervals == 0:
            return 0.0
        return self.num_placements() / self.num_intervals

    def nbytes(self) -> int:
        """Approximate memory footprint of the level tables."""
        return sum(level.nbytes() for level in self.levels)

    def precompute_aux(self) -> None:
        """Eagerly build the lazy auxiliary arrays count and checksum read.

        Build/attach paths call this when count or checksum traffic is
        expected (the service warm-up), so the per-table ``xor_prefix``
        arrays and both folds are materialized once, up front, instead of
        lazily on the first flush.  The :meth:`id_runs` an ids batch
        reads are not built here: an index that serves no ids never
        needs them, and the first ids batch builds them.  Idempotent and
        thread-safe.
        """
        for level in self.levels:
            level.precompute_aux()
        self.fold("count")
        self.fold("checksum")

    def fold(self, mode: str) -> np.ndarray:
        """The prefix folds a ``"count"`` or ``"checksum"`` batch reads.

        Every row covers its partition whole (the domain is
        ``[0, 2**m - 1]``, each interval tiled exactly), so on a level a
        query takes the originals of partitions ``f..l`` and the replicas
        of ``f``, no comparison owed.  Per occupied level the count fold
        holds ``O[p]``, the originals before partition ``p``, then
        ``D[p] = R[p + 1] - R[p] - O[p]`` (``R``: the same over the
        replicas), so the level's count is ``O[l + 1] + D[f]``
        (:attr:`fold_layout`); the checksum fold reads each table's
        ``xor_prefix`` at its offsets, XOR for both signs.  Built once,
        on first use, under a lock.
        """
        fold = self._folds.get(mode)
        if fold is None:
            with _FOLD_LOCK:
                fold = self._folds.get(mode)
                if fold is None:
                    fold = self._folds[mode] = self._build_fold(mode)
        return fold

    def _build_fold(self, mode: str) -> np.ndarray:
        pieces = [_EMPTY]
        for level in self.occupied_levels:
            o_in, o_aft, r_in, r_aft = self.levels[level].tables()
            if mode == "checksum":
                orig, rep = (
                    a.xor_prefix[a.offsets] ^ b.xor_prefix[b.offsets]
                    for a, b in ((o_in, o_aft), (r_in, r_aft))
                )
                pieces += [orig, rep[1:] ^ rep[:-1] ^ orig[:-1]]
            else:
                orig = o_in.offsets + o_aft.offsets
                rep = r_in.offsets + r_aft.offsets
                pieces += [orig, rep[1:] - rep[:-1] - orig[:-1]]
        return np.concatenate(pieces)

    def id_runs(self) -> tuple:
        """``(ids, starts)``: the row runs an ids batch gathers from.

        ``ids`` holds every occupied level's ``O_in``, ``O_aft``,
        ``R_in`` and ``R_aft`` ids back to back; ``starts`` holds each
        of those tables' offsets shifted by where its ids begin in
        ``ids``, at :attr:`runs_layout`.  As for :meth:`fold`, no
        comparison is owed, so on a level a query's ids are four runs:
        ``[start[f], start[l + 1])`` of the originals' tables and
        ``[start[f], start[f + 1])`` of the replicas'.  Built once, on
        first use, under the folds' lock: two concatenates, no sort.
        """
        runs = self._id_runs
        if runs is None:
            with _FOLD_LOCK:
                runs = self._id_runs
                if runs is None:
                    runs = self._id_runs = self._build_id_runs()
        return runs

    def _build_id_runs(self) -> tuple:
        tables = [
            table
            for level in self.occupied_levels
            for table in self.levels[level].tables()
        ]
        sizes = np.array([table.ids.size for table in tables], dtype=np.int64)
        bases = (np.cumsum(sizes) - sizes).tolist()
        ids = np.concatenate([_EMPTY] + [table.ids for table in tables])
        starts = np.concatenate(
            [_EMPTY] + [table.offsets + base for table, base in zip(tables, bases)]
        )
        return ids, starts

    def level_histogram(self) -> Dict[int, int]:
        """Placements per level — shows where durations put intervals."""
        return {level.level: level.total() for level in self.levels}

    def as_collection(self) -> IntervalCollection:
        """Reconstruct the indexed collection from the level tables.

        Every interval has exactly one *original* placement (O_in or
        O_aft — stores ``st``) and exactly one *ends-inside* placement
        (O_in or R_in — stores ``end``), and the storage-optimized
        layout keeps precisely those columns, so the full ``<id, st,
        end>`` collection is always recoverable.  Consumers that need
        the raw data — the join-based strategy, re-sharding — get it
        without the caller having to retain the build input.  The
        result is cached on the index (both are immutable).
        """
        cached = getattr(self, "_collection_cache", None)
        if cached is not None:
            return cached
        orig_ids, orig_st, in_ids, in_end = [], [], [], []
        for data in self.levels:
            o_in, o_aft, r_in, _ = data.tables()
            for table in (o_in, o_aft):
                if table.ids.size:  # empty tables carry st=None
                    orig_ids.append(table.ids)
                    orig_st.append(table.st)
            for table in (o_in, r_in):
                if table.ids.size:
                    in_ids.append(table.ids)
                    in_end.append(table.end)
        ids = np.concatenate(orig_ids) if orig_ids else _EMPTY
        st = np.concatenate(orig_st) if orig_st else _EMPTY
        order = np.argsort(ids, kind="stable")
        end_ids = np.concatenate(in_ids) if in_ids else _EMPTY
        end = np.concatenate(in_end) if in_end else _EMPTY
        coll = IntervalCollection(
            st[order],
            end[np.argsort(end_ids, kind="stable")],
            ids[order],
            copy=False,
        )
        self._collection_cache = coll
        return coll

    # ------------------------------------------------------------------ #
    # single-query processing (Algorithm 1)
    # ------------------------------------------------------------------ #

    def _clip(self, q_st: int, q_end: int) -> tuple:
        if q_st > q_end:
            raise ValueError("query must have st <= end")
        return (
            min(max(int(q_st), 0), self._domain_top),
            min(max(int(q_end), 0), self._domain_top),
        )

    def query(self, q_st: int, q_end: int, *, top_down: bool = False) -> np.ndarray:
        """Ids of all intervals G-overlapping ``[q_st, q_end]``.

        The result order is an implementation detail; no id appears
        twice.  Queries are clipped into the index domain.

        ``top_down=True`` runs the conventional top-down traversal the
        paper's Section 2 contrasts against: without the bottom-up
        ``compfirst``/``complast`` pruning, endpoint comparisons are
        performed at the first and last relevant partition of *every*
        level instead of an expected four partitions overall.  Results
        are identical; the flag exists to measure the optimization
        (``bench_ablation_topdown``).
        """
        pieces = self._run_single(*self._clip(q_st, q_end), top_down)
        return np.concatenate(pieces) if pieces else _EMPTY

    def query_count(self, q_st: int, q_end: int, *, top_down: bool = False) -> int:
        """Number of intervals G-overlapping ``[q_st, q_end]``.

        The same traversal as :meth:`query`, summed instead of joined: a
        comparison-free range is a view of the id array, so it costs its
        length, not a copy.
        """
        pieces = self._run_single(*self._clip(q_st, q_end), top_down)
        return sum(piece.size for piece in pieces)

    def _run_single(self, q_st: int, q_end: int, top_down: bool) -> List[np.ndarray]:
        """Algorithm 1's level traversal: the answer as pieces of id arrays.

        Bottom-up, only occupied levels are visited, and each gives four
        slices of the tables' ids: partitions ``f..l`` of ``O_in`` and
        ``O_aft`` and partition ``f`` of ``R_in`` and ``R_aft``.  Every
        row covers its partition whole (see :meth:`fold`), so the
        ``compfirst``/``complast`` comparisons could not drop one and are
        not made.  Top-down visits every level from the root and makes
        them at the first and last relevant partition of each: the
        pre-optimization behaviour, kept as the ablation of the
        bottom-up pruning.
        """
        pieces: List[np.ndarray] = []
        m = self.m
        if not top_down:
            for level in self.occupied_levels:
                f = q_st >> (m - level)
                l = q_end >> (m - level)
                o_in, o_aft, r_in, r_aft = self.levels[level].tables()
                for table, last in ((o_in, l), (o_aft, l), (r_in, f), (r_aft, f)):
                    lo = table.offsets.item(f)
                    hi = table.offsets.item(last + 1)
                    if hi > lo:
                        pieces.append(table.ids[lo:hi])
            return pieces
        for level in range(m + 1):
            shift = m - level
            f = q_st >> shift
            l = q_end >> shift
            o_in, o_aft, r_in, r_aft = self.levels[level].tables()
            # Originals: one run over partitions f..l, cut where s.st <=
            # q.end fails; on O_in the part inside partition f is
            # filtered by s.end >= q.st.
            for table in (o_in, o_aft):
                ids = table.ids
                if not ids.size:
                    continue
                lo = table.offsets.item(f)
                key = (l << table.key_bits) | q_end
                hi = int(table.comp.searchsorted(key, "right"))
                if table is o_in:
                    cut = min(hi, table.offsets.item(f + 1))
                    if cut > lo:
                        pieces.append(ids[lo:cut][table.end[lo:cut] >= q_st])
                        lo = cut
                if hi > lo:
                    pieces.append(ids[lo:hi])
            # Replicas: partition f only, R_in from the s.end >= q.st cut on.
            for table in (r_in, r_aft):
                if not table.ids.size:
                    continue
                if table is r_in:
                    key = (f << table.key_bits) | q_st
                    lo = int(table.comp.searchsorted(key, "left"))
                else:
                    lo = table.offsets.item(f)
                hi = table.offsets.item(f + 1)
                if hi > lo:
                    pieces.append(table.ids[lo:hi])
        return pieces
