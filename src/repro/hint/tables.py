"""Columnar per-level storage of HINT.

Each level ``l`` keeps one :class:`SubdivisionTable` per subdivision
class.  A table flattens the contents of all ``2**l`` partitions of its
class into partition-ordered parallel arrays plus an ``offsets`` array of
length ``2**l + 1`` — partition ``i`` owns rows
``offsets[i]:offsets[i+1]``.

This layout implements two of the paper's optimizations at once:

* **skewness & sparsity** — empty partitions cost one repeated offset,
  nothing more, and the merged per-level table is exactly the ``T_l``
  table with its auxiliary index described in Section 2;
* **cache misses** — ids and endpoints live in separate arrays, so
  comparison-free partitions are answered from the id array alone.

It also makes a query's share of a level one row run per table: the
partitions ``f..l`` it touches are stored back to back, so a query takes
rows ``[offsets[f], offsets[l + 1])`` of ``O_in``/``O_aft`` and
``[offsets[f], offsets[f + 1])`` of ``R_in``/``R_aft``.  Every row covers
its partition whole (the domain is ``[0, 2**m - 1]``, each interval tiled
exactly), so no comparison can drop one: a count or checksum is read off
prefix folds of the offsets (:meth:`repro.hint.index.HintIndex.fold`),
and a batch's ids are those four runs per level gathered at once
(:meth:`repro.hint.index.HintIndex.id_runs`).  The sort orders below
serve the comparisons that remain: the paper's query-based and
level-based baselines and the top-down ablation.

Beneficial sort orders (the *sorting* optimization):

====== ============== =================================================
class  sorted by      reason
====== ============== =================================================
O_in   ``st``         ``s.st <= q.end`` becomes a ``searchsorted`` prefix
O_aft  ``st``         same test; the other test is implied
R_in   ``end``        ``q.st <= s.end`` becomes a ``searchsorted`` suffix
R_aft  (unsorted)     never compared, ids only
====== ============== =================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hint.assignment import (
    CLASS_NAMES,
    CLASS_O_AFT,
    CLASS_O_IN,
    CLASS_R_AFT,
    CLASS_R_IN,
)

__all__ = ["SubdivisionTable", "LevelData", "build_level_data", "merge_level_data"]

_EMPTY = np.empty(0, dtype=np.int64)

# One process-wide lock for lazy auxiliary-array builds.  Coarse on
# purpose: each table builds its prefix exactly once, so contention is a
# few microseconds per table over the whole process lifetime, and a
# shared lock keeps SubdivisionTable a plain picklable dataclass (a
# per-instance Lock field would not survive pickling).
_AUX_LOCK = threading.Lock()


@dataclass
class SubdivisionTable:
    """Flattened, partition-ordered contents of one subdivision class.

    ``comp`` packs each row's ``(partition, sort_key)`` into a single
    int64 (``partition << key_bits | key``).  Because rows are ordered
    by partition and then by the key, ``comp`` is globally sorted — a
    whole batch of per-partition prefix/suffix probes collapses into
    *one* vectorized ``searchsorted`` against it.  This is the columnar
    expression of the partition-based strategy's computation sharing.
    """

    offsets: np.ndarray  # int64[num_partitions + 1]
    ids: np.ndarray  # int64[n]
    st: Optional[np.ndarray]  # int64[n] or None (storage optimization)
    end: Optional[np.ndarray]  # int64[n] or None
    comp: Optional[np.ndarray] = None  # int64[n], None for unsorted class
    key_bits: int = 0
    _xor_prefix: Optional[np.ndarray] = None  # lazy, see xor_prefix

    @property
    def xor_prefix(self) -> np.ndarray:
        """Prefix-XOR over ``ids`` (length ``n + 1``), built lazily.

        ``xor_prefix[hi] ^ xor_prefix[lo]`` is the XOR of
        ``ids[lo:hi]`` — it turns any row-range checksum into O(1),
        which keeps the checksum result mode as cheap as count mode for
        every comparison-free range.

        Thread-safe via double-checked locking: concurrent first reads
        (e.g. two pool workers hitting the same table in a checksum
        flush) build the array exactly once and every caller observes
        the same fully initialized object.  Callers that know they will
        need it (index build, persistence load) should call
        :meth:`precompute_aux` up front instead of racing here.
        """
        xp = self._xor_prefix
        if xp is None:
            with _AUX_LOCK:
                xp = self._xor_prefix
                if xp is None:
                    xp = np.zeros(self.ids.size + 1, dtype=np.int64)
                    if self.ids.size:
                        np.bitwise_xor.accumulate(self.ids, out=xp[1:])
                    self._xor_prefix = xp
        return xp

    def precompute_aux(self) -> None:
        """Eagerly build the lazy auxiliary arrays (:attr:`xor_prefix`).

        Hook for build/attach paths that know checksum-mode traffic is
        coming — pre-building under the shared lock means no query
        thread ever pays the construction cost (or contends for the
        build) on the hot path.  Idempotent and thread-safe.
        """
        self.xor_prefix  # noqa: B018 — double-checked lazy build

    @classmethod
    def empty(cls, num_partitions: int, key_bits: int = 0) -> "SubdivisionTable":
        return cls(
            offsets=np.zeros(num_partitions + 1, dtype=np.int64),
            ids=_EMPTY,
            st=None,
            end=None,
            comp=_EMPTY if key_bits else None,
            key_bits=key_bits,
        )

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def num_partitions(self) -> int:
        return int(self.offsets.size - 1)

    def bounds(self, partition: int) -> Tuple[int, int]:
        """Row range ``[lo, hi)`` of *partition*."""
        return int(self.offsets[partition]), int(self.offsets[partition + 1])

    def count(self, partition: int) -> int:
        """Number of intervals stored in *partition*."""
        return int(self.offsets[partition + 1] - self.offsets[partition])

    def partition_ids(self, partition: int) -> np.ndarray:
        """Ids stored in *partition* (a view, not a copy)."""
        lo, hi = self.bounds(partition)
        return self.ids[lo:hi]

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes."""
        total = self.offsets.nbytes + self.ids.nbytes
        if self.st is not None:
            total += self.st.nbytes
        if self.end is not None:
            total += self.end.nbytes
        return total


@dataclass
class LevelData:
    """The four subdivision tables of one index level."""

    level: int
    o_in: SubdivisionTable
    o_aft: SubdivisionTable
    r_in: SubdivisionTable
    r_aft: SubdivisionTable

    def table(self, cls: int) -> SubdivisionTable:
        return (self.o_in, self.o_aft, self.r_in, self.r_aft)[cls]

    def tables(self) -> Tuple[SubdivisionTable, ...]:
        return (self.o_in, self.o_aft, self.r_in, self.r_aft)

    def total(self) -> int:
        return sum(len(t) for t in self.tables())

    def nbytes(self) -> int:
        return sum(t.nbytes() for t in self.tables())

    def precompute_aux(self) -> None:
        """Eagerly build every table's auxiliary arrays."""
        for table in self.tables():
            table.precompute_aux()

    def describe(self) -> Dict[str, int]:
        return {name: len(t) for name, t in zip(CLASS_NAMES, self.tables())}


# Sort key per class: which endpoint orders the rows inside a partition.
_SORT_KEY = {CLASS_O_IN: "st", CLASS_O_AFT: "st", CLASS_R_IN: "end", CLASS_R_AFT: None}

# Columns retained per class under the storage optimization.
_KEEP_ST = {CLASS_O_IN: True, CLASS_O_AFT: True, CLASS_R_IN: False, CLASS_R_AFT: False}
_KEEP_END = {CLASS_O_IN: True, CLASS_O_AFT: False, CLASS_R_IN: True, CLASS_R_AFT: False}


def _build_table(
    num_partitions: int,
    parts: np.ndarray,
    ids: np.ndarray,
    st: np.ndarray,
    end: np.ndarray,
    cls: int,
    storage_optimized: bool,
    key_bits: int,
) -> SubdivisionTable:
    key_name = _SORT_KEY[cls]
    if parts.size == 0:
        return SubdivisionTable.empty(
            num_partitions, key_bits if key_name else 0
        )
    if key_name == "st":
        key = st
        order = np.lexsort((st, parts))
    elif key_name == "end":
        key = end
        order = np.lexsort((end, parts))
    else:
        key = None
        order = np.argsort(parts, kind="stable")
    parts = parts[order]
    counts = np.bincount(parts, minlength=num_partitions)
    offsets = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    keep_st = not storage_optimized or _KEEP_ST[cls]
    keep_end = not storage_optimized or _KEEP_END[cls]
    comp = None
    if key is not None:
        comp = (parts << key_bits) | key[order]
    return SubdivisionTable(
        offsets=offsets,
        ids=np.ascontiguousarray(ids[order]),
        st=np.ascontiguousarray(st[order]) if keep_st else None,
        end=np.ascontiguousarray(end[order]) if keep_end else None,
        comp=comp,
        key_bits=key_bits if key is not None else 0,
    )


def build_level_data(
    level: int,
    rows: np.ndarray,
    parts: np.ndarray,
    classes: np.ndarray,
    ids: np.ndarray,
    st: np.ndarray,
    end: np.ndarray,
    *,
    storage_optimized: bool = True,
    key_bits: int = 32,
) -> LevelData:
    """Materialize the four subdivision tables of one level.

    Parameters
    ----------
    level:
        Index level (defines the number of partitions ``2**level``).
    rows, parts, classes:
        Parallel placement arrays for this level as produced by
        :func:`repro.hint.assignment.assign_collection`.
    ids, st, end:
        The full collection columns; ``rows`` indexes into them.
    storage_optimized:
        Drop endpoint columns that the query algorithms never read
        (the paper's *storage* optimization).
    key_bits:
        Bits reserved for the sort key in the packed ``comp`` column;
        must cover the bit width of any endpoint (``m`` suffices for an
        index over ``[0, 2**m - 1]``) while keeping
        ``level + key_bits < 64``.
    """
    num_partitions = 1 << level
    tables: List[SubdivisionTable] = []
    for cls in (CLASS_O_IN, CLASS_O_AFT, CLASS_R_IN, CLASS_R_AFT):
        mask = classes == cls
        sel = rows[mask]
        tables.append(
            _build_table(
                num_partitions,
                parts[mask],
                ids[sel],
                st[sel],
                end[sel],
                cls,
                storage_optimized,
                key_bits,
            )
        )
    return LevelData(level, *tables)


def merge_level_data(
    data: LevelData,
    dead: Tuple[np.ndarray, ...],
    staged: Tuple[np.ndarray, ...],
    *,
    storage_optimized: bool = True,
    key_bits: int = 32,
) -> LevelData:
    """*data* without the placements in *dead* and with those in *staged*.

    Both are ``(parts, classes, ids, st, end)`` columns with one row per
    placement at this level (:func:`~repro.hint.assignment.assign_collection`
    gathered from the intervals).  When *data* was built from a
    collection, the result equals :func:`build_level_data` over that
    collection minus the dead rows with the staged ones appended, table
    for table: a build breaks key ties in row order (at one level all of
    a partition's placements come from one parity of cursor), so appended
    rows go behind their equal keys, at the end of their partition for
    ``R_aft``.  A touched table costs one pass of copying and no sort
    longer than the placements given; an untouched one is shared.
    """
    if not dead[0].size and not staged[0].size:
        return data
    tables = []
    for cls, table in enumerate(data.tables()):
        out, into = dead[1] == cls, staged[1] == cls
        if out.any() or into.any():
            table = _merge_table(
                table, cls, [c[out] for c in dead], [c[into] for c in staged],
                storage_optimized, key_bits,
            )
        tables.append(table)
    return LevelData(data.level, *tables)


def _merge_table(table, cls, dead, staged, storage_optimized, key_bits):
    num_partitions = table.num_partitions
    d_parts, _, d_ids, d_st, d_end = dead
    s_parts, _, s_ids, s_st, s_end = staged
    if not len(table):
        return _build_table(
            num_partitions, s_parts, s_ids, s_st, s_end, cls,
            storage_optimized, key_bits,
        )
    # A dead row sits in the run of rows sharing its packed key (its
    # partition, for R_aft); a staged row goes behind that run.
    key_name = _SORT_KEY[cls]
    if key_name is None:
        order = np.argsort(s_parts, kind="stable")
        lo, hi = table.offsets[d_parts], table.offsets[d_parts + 1]
        s_comp = None
        at = table.offsets[s_parts[order] + 1]
    else:
        d_key, s_key = (d_st, s_st) if key_name == "st" else (d_end, s_end)
        order = np.lexsort((s_key, s_parts))
        packed = (d_parts << key_bits) | d_key
        lo = np.searchsorted(table.comp, packed, side="left")
        hi = np.searchsorted(table.comp, packed, side="right")
        s_comp = (s_parts[order] << key_bits) | s_key[order]
        at = np.searchsorted(table.comp, s_comp, side="right")
    s_ids, s_st, s_end = s_ids[order], s_st[order], s_end[order]
    gone = _rows_holding(table.ids, lo, hi, d_ids)
    size = len(table) - gone.size + order.size
    if not size:
        return SubdivisionTable.empty(num_partitions, key_bits if key_name else 0)
    offsets = np.zeros(num_partitions + 1, dtype=np.int64)
    np.add.at(offsets, s_parts + 1, 1)
    np.subtract.at(offsets, d_parts + 1, 1)
    np.cumsum(offsets, out=offsets)
    offsets += table.offsets
    # One plan for every column: the rows kept, and where the staged rows
    # land among them (``at`` ascends, so the i-th lands i rows later).
    keep = np.ones(len(table), dtype=bool)
    keep[gone] = False
    dest = at - np.searchsorted(gone, at) + np.arange(at.size)
    kept = np.ones(size, dtype=bool)
    kept[dest] = False

    def splice(column, new):
        if column is None:
            return None
        out = np.empty(size, dtype=column.dtype)
        out[kept] = column[keep]
        out[dest] = new
        return out

    return SubdivisionTable(
        offsets=offsets,
        ids=splice(table.ids, s_ids),
        st=splice(table.st, s_st),
        end=splice(table.end, s_end),
        comp=splice(table.comp, s_comp),
        key_bits=table.key_bits,
    )


def _rows_holding(ids, lo, hi, dead_ids) -> np.ndarray:
    """Rows of the runs ``[lo, hi)`` whose id is in *dead_ids*, ascending.

    Two runs are equal or disjoint, so each is scanned once however many
    dead rows share it.
    """
    if not dead_ids.size:
        return _EMPTY
    run = lo < hi
    lo, first = np.unique(lo[run], return_index=True)
    size = hi[run][first] - lo
    rows = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
    found = ids[rows]
    dead = np.sort(dead_ids)
    at = np.minimum(np.searchsorted(dead, found), dead.size - 1)
    return rows[dead[at] == found]
