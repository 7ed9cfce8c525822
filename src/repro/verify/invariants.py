"""Structural invariant validators for the interval indexes.

The HINT papers state structural guarantees that the rest of this code
base silently relies on: every interval lands in at most two partitions
per level, exactly one placement is an original, exactly one placement
ends inside its partition, the four subdivision classes are mutually
exclusive and exhaustive, per-partition arrays are sorted by the class
sort key, and the chosen partitions exactly tile the interval.
:func:`verify_index` checks all of them mechanically against a built
:class:`~repro.hint.index.HintIndex`,
:class:`~repro.hint.dynamic.DynamicHint` or
:class:`~repro.grid.index.GridIndex`.

The deep check exploits a property of the layout itself: because every
interval has exactly one *original* placement (which stores ``st``) and
exactly one *ends-inside* placement (which stores ``end``), the whole
collection can be reconstructed from a storage-optimized index.  The
reconstruction is re-assigned from scratch and the resulting placement
sets must match the stored tables exactly — an index is valid iff it
equals the index rebuilt from its own contents.  When the original
collection is available it is compared against the reconstruction too,
which additionally pins the index to the data it claims to hold.

Violations are collected (not fail-fast) and raised together as an
:class:`InvariantViolation`, so one broken build reports every broken
table at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hint.assignment import CLASS_NAMES, assign_collection
from repro.hint.index import HintIndex
from repro.hint.tables import SubdivisionTable
from repro.intervals.collection import IntervalCollection

__all__ = [
    "InvariantViolation",
    "VerificationReport",
    "verify_index",
    "verify_same_tables",
]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_I8 = np.empty(0, dtype=np.int8)

#: Sort key column per subdivision class (None: class is never compared).
_CLASS_KEY = ("st", "st", "end", None)


class InvariantViolation(AssertionError):
    """One or more structural invariants of an index do not hold."""

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        head = f"{len(self.violations)} invariant violation(s):"
        super().__init__("\n  - ".join([head] + self.violations))


@dataclass
class VerificationReport:
    """Summary of a successful :func:`verify_index` run."""

    index_type: str
    num_intervals: int
    num_placements: int
    checks: int
    notes: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        extra = f" ({'; '.join(self.notes)})" if self.notes else ""
        return (
            f"{self.index_type}: {self.num_intervals} intervals, "
            f"{self.num_placements} placements, {self.checks} checks{extra}"
        )


class _Checker:
    """Accumulates check results; raises them together at the end."""

    def __init__(self):
        self.violations: List[str] = []
        self.checks = 0

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.violations.append(message)
        return bool(ok)

    def finish(self, report: VerificationReport) -> VerificationReport:
        if self.violations:
            raise InvariantViolation(self.violations)
        report.checks = self.checks
        return report


def verify_index(
    index,
    *,
    deep: bool = True,
    collection: Optional[IntervalCollection] = None,
) -> VerificationReport:
    """Validate the structural invariants of a built index.

    Parameters
    ----------
    index:
        A :class:`~repro.hint.index.HintIndex`,
        :class:`~repro.hint.dynamic.DynamicHint` or
        :class:`~repro.grid.index.GridIndex`.
    deep:
        Also run the semantic checks: reconstruct the collection from
        the index's own placements, re-assign it from scratch and demand
        the placement sets match exactly (subsumes the partition-count
        bound, subdivision partitioning, original/replica disjointness
        and domain-tiling coverage).  Costs roughly one index build.
    collection:
        When given, the reconstruction must also equal this collection
        — catches an internally consistent index built over the wrong
        data.  Ignored for :class:`DynamicHint` (its base collection is
        used automatically).

    Returns
    -------
    VerificationReport
        Summary statistics of the checks that ran.

    Raises
    ------
    InvariantViolation
        Listing every violated invariant.
    TypeError
        For unsupported index types.
    """
    # Local imports: dynamic.py, grid/index.py and shard/sharded.py
    # import (parts of) this package, so importing them at module scope
    # would cycle.
    from repro.grid.index import GridIndex
    from repro.hint.dynamic import DynamicHint
    from repro.shard.sharded import ShardedHint

    chk = _Checker()
    if isinstance(index, DynamicHint):
        return _verify_dynamic(index, chk, deep)
    if isinstance(index, HintIndex):
        return _verify_hint(index, chk, deep, collection)
    if isinstance(index, GridIndex):
        return _verify_grid(index, chk, deep, collection)
    if isinstance(index, ShardedHint):
        return _verify_sharded(index, chk, deep, collection)
    raise TypeError(
        f"verify_index supports HintIndex, DynamicHint, GridIndex and "
        f"ShardedHint, not {type(index).__name__}"
    )


def verify_same_tables(index: HintIndex, reference: HintIndex) -> VerificationReport:
    """Check that *index* equals *reference* table for table.

    Compares ``m``, ``num_intervals``, ``occupied_levels`` and every
    table's ``offsets``, ``ids``, ``st``, ``end``, ``comp`` and
    ``key_bits``; a column present on one side only is a difference.
    This pins a merged index (:meth:`HintIndex.merged`) to a fresh build
    of the same contents, which answers-only checks cannot: a merge can
    drift from a fresh build's layout and still answer correctly.
    """
    chk = _Checker()
    for attr in ("m", "num_intervals", "occupied_levels"):
        mine, theirs = getattr(index, attr), getattr(reference, attr)
        chk.check(mine == theirs, f"{attr}: {mine} against {theirs} in the reference")
    for data, ref in zip(index.levels, reference.levels):
        for name, table, want in zip(CLASS_NAMES, data.tables(), ref.tables()):
            label = f"L{data.level}/{name}"
            for column in ("offsets", "ids", "st", "end", "comp"):
                got, expected = getattr(table, column), getattr(want, column)
                chk.check(
                    (got is None) == (expected is None)
                    and (got is None or np.array_equal(got, expected)),
                    f"{label}: column {column!r} differs from the reference",
                )
            chk.check(
                table.key_bits == want.key_bits,
                f"{label}: key_bits {table.key_bits} against {want.key_bits}",
            )
    return chk.finish(
        VerificationReport(
            "HintIndex", index.num_intervals, index.num_placements(), checks=0,
            notes=["same tables as the reference"],
        )
    )


# --------------------------------------------------------------------- #
# shared table helpers
# --------------------------------------------------------------------- #


def _row_partitions(offsets: np.ndarray) -> np.ndarray:
    """Partition number of every row of a flattened table."""
    counts = np.diff(offsets)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def _check_flat_table(
    chk: _Checker,
    label: str,
    num_partitions: int,
    offsets: np.ndarray,
    columns: dict,
) -> None:
    """Offsets structure + column length checks for one flattened table."""
    if not chk.check(
        offsets.size == num_partitions + 1,
        f"{label}: offsets has {offsets.size} entries, "
        f"expected {num_partitions + 1}",
    ):
        return
    chk.check(int(offsets[0]) == 0, f"{label}: offsets[0] != 0")
    chk.check(
        bool(np.all(np.diff(offsets) >= 0)),
        f"{label}: offsets not non-decreasing",
    )
    n = int(offsets[-1])
    for name, col in columns.items():
        if col is not None:
            chk.check(
                col.size == n,
                f"{label}: column {name!r} has {col.size} rows, "
                f"offsets imply {n}",
            )


def _check_partition_sorted(
    chk: _Checker, label: str, offsets: np.ndarray, key: np.ndarray
) -> None:
    """The key column must be non-decreasing inside every partition."""
    if key.size <= 1:
        chk.check(True, f"{label}: sorted")
        return
    parts = _row_partitions(offsets)
    ok = bool(np.all((np.diff(key) >= 0) | (parts[1:] != parts[:-1])))
    chk.check(ok, f"{label}: rows not sorted by the class sort key")


# --------------------------------------------------------------------- #
# HintIndex
# --------------------------------------------------------------------- #


def _table_placements(table: SubdivisionTable):
    """(partitions, ids) of every row of a subdivision table."""
    return _row_partitions(table.offsets), table.ids


def _verify_hint(
    index: HintIndex,
    chk: _Checker,
    deep: bool,
    collection: Optional[IntervalCollection],
) -> VerificationReport:
    m = index.m
    chk.check(m >= 0, f"m = {m} is negative")
    chk.check(
        len(index.levels) == m + 1,
        f"index has {len(index.levels)} levels, expected {m + 1}",
    )
    occupied = tuple(
        data.level for data in reversed(index.levels) if data.total()
    )
    chk.check(
        index.occupied_levels == occupied,
        f"recorded occupied levels {index.occupied_levels} disagree with "
        f"the level tables, which occupy {occupied}",
    )

    # --- per-table structural checks ---------------------------------- #
    for pos, data in enumerate(index.levels):
        chk.check(
            data.level == pos,
            f"levels[{pos}] claims to be level {data.level}",
        )
        nparts = 1 << data.level
        for name, table in zip(CLASS_NAMES, data.tables()):
            label = f"L{data.level}/{name}"
            before = len(chk.violations)
            _check_flat_table(
                chk,
                label,
                nparts,
                table.offsets,
                {
                    "ids": table.ids,
                    "st": table.st,
                    "end": table.end,
                    "comp": table.comp,
                },
            )
            if len(chk.violations) > before:
                # Broken offsets/columns make the row→partition map
                # meaningless; skip the dependent checks for this table.
                continue
            key_name = _CLASS_KEY[CLASS_NAMES.index(name)]
            key = getattr(table, key_name) if key_name else None
            if key is not None:
                _check_partition_sorted(chk, label, table.offsets, key)
            if table.comp is not None and table.ids.size:
                chk.check(
                    data.level + table.key_bits < 64,
                    f"{label}: key_bits {table.key_bits} overflows int64 "
                    f"packing at level {data.level}",
                )
                chk.check(
                    bool(np.all(np.diff(table.comp) >= 0)),
                    f"{label}: packed comp column not globally sorted",
                )
                if key is not None and key.size == table.comp.size:
                    parts = _row_partitions(table.offsets)
                    expected = (parts << table.key_bits) | key
                    chk.check(
                        bool(np.array_equal(table.comp, expected)),
                        f"{label}: comp disagrees with "
                        f"(partition << key_bits) | key",
                    )

    report = VerificationReport(
        index_type="HintIndex",
        num_intervals=index.num_intervals,
        num_placements=index.num_placements(),
        checks=0,
    )
    if not deep:
        report.notes.append("shallow")
        return chk.finish(report)
    if chk.violations:
        # Broken offsets make the semantic pass unreliable; report what
        # is known rather than crashing inside it.
        return chk.finish(report)

    # --- semantic checks: classes partition the placements ------------ #
    orig_ids, orig_st = [], []
    in_ids, in_end = [], []
    for data in index.levels:
        level_parts, level_ids = [], []
        for cls, table in enumerate(data.tables()):
            parts, ids = _table_placements(table)
            level_parts.append(parts)
            level_ids.append(ids)
            if cls in (0, 1):  # O_in, O_aft: the original placements
                orig_ids.append(ids)
                orig_st.append(table.st if table.st is not None else _EMPTY)
            if cls in (0, 2):  # O_in, R_in: the ends-inside placements
                in_ids.append(ids)
                in_end.append(table.end if table.end is not None else _EMPTY)
        lv_parts = np.concatenate(level_parts) if level_parts else _EMPTY
        lv_ids = np.concatenate(level_ids) if level_ids else _EMPTY
        if lv_ids.size:
            # ≤ 2 partitions per level per interval (paper, Lemma 1).
            _, per_id = np.unique(lv_ids, return_counts=True)
            chk.check(
                int(per_id.max()) <= 2,
                f"L{data.level}: an interval is stored in "
                f"{int(per_id.max())} partitions (bound is 2)",
            )
            # Classes are mutually exclusive: no (partition, id) twice.
            pairs = np.stack([lv_parts, lv_ids])
            chk.check(
                np.unique(pairs, axis=1).shape[1] == lv_ids.size,
                f"L{data.level}: an interval is stored twice in the "
                "same partition (classes not mutually exclusive)",
            )

    orig_ids = np.concatenate(orig_ids) if orig_ids else _EMPTY
    orig_st = np.concatenate(orig_st) if orig_st else _EMPTY
    in_ids = np.concatenate(in_ids) if in_ids else _EMPTY
    in_end = np.concatenate(in_end) if in_end else _EMPTY

    ok_orig = chk.check(
        orig_ids.size == index.num_intervals
        and np.unique(orig_ids).size == orig_ids.size,
        f"expected exactly one original placement per interval, found "
        f"{orig_ids.size} originals over {index.num_intervals} intervals",
    )
    ok_in = chk.check(
        in_ids.size == index.num_intervals
        and np.unique(in_ids).size == in_ids.size,
        f"expected exactly one ends-inside placement per interval, found "
        f"{in_ids.size} over {index.num_intervals} intervals",
    )
    ok_cols = chk.check(
        orig_st.size == orig_ids.size and in_end.size == in_ids.size,
        "endpoint columns missing from original/ends-inside tables",
    )
    if not (ok_orig and ok_in and ok_cols):
        return chk.finish(report)

    # --- reconstruction: the index must equal its own rebuild --------- #
    order = np.argsort(orig_ids, kind="stable")
    rec_ids, rec_st = orig_ids[order], orig_st[order]
    rec_end = in_end[np.argsort(in_ids, kind="stable")]
    chk.check(
        bool(np.all(rec_st <= rec_end)),
        "reconstructed intervals have st > end",
    )
    top = (1 << m) - 1
    chk.check(
        bool(rec_ids.size == 0 or (rec_st.min() >= 0 and rec_end.max() <= top)),
        f"reconstructed endpoints fall outside the domain [0, {top}]",
    )
    if collection is not None:
        corder = np.argsort(collection.ids, kind="stable")
        chk.check(
            bool(
                np.array_equal(collection.ids[corder], rec_ids)
                and np.array_equal(collection.st[corder], rec_st)
                and np.array_equal(collection.end[corder], rec_end)
            ),
            "index contents disagree with the provided collection",
        )
    if chk.violations:
        return chk.finish(report)

    expected = assign_collection(m, rec_st, rec_end)
    for data in index.levels:
        exp_rows, exp_parts, exp_classes = expected.get(
            data.level, (_EMPTY, _EMPTY, _EMPTY_I8)
        )
        for cls, table in enumerate(data.tables()):
            sel = exp_classes == cls
            want_parts = exp_parts[sel]
            want_ids = rec_ids[exp_rows[sel]]
            got_parts, got_ids = _table_placements(table)
            label = f"L{data.level}/{CLASS_NAMES[cls]}"
            if not chk.check(
                got_ids.size == want_ids.size,
                f"{label}: {got_ids.size} placements stored, "
                f"re-assignment expects {want_ids.size}",
            ):
                continue
            w = np.lexsort((want_ids, want_parts))
            g = np.lexsort((got_ids, got_parts))
            chk.check(
                bool(
                    np.array_equal(want_parts[w], got_parts[g])
                    and np.array_equal(want_ids[w], got_ids[g])
                ),
                f"{label}: stored placements differ from the "
                "re-assignment of the reconstructed collection",
            )
    report.notes.append("deep: reconstruction re-assigned and matched")
    return chk.finish(report)


# --------------------------------------------------------------------- #
# ShardedHint
# --------------------------------------------------------------------- #


def _verify_sharded(
    sharded,
    chk: _Checker,
    deep: bool,
    collection: Optional[IntervalCollection],
) -> VerificationReport:
    """Routing invariants of a :class:`~repro.shard.sharded.ShardedHint`.

    Beyond verifying every per-shard HINT index, the sharded layout
    promises: the cut points tile ``[0, 2**m]``; every interval's
    original lives in exactly the shard containing its start (endpoints
    clipped/translated into the shard's local domain); every shard the
    interval reaches after that holds exactly one replica, sorted by
    global end; and the merged result over any batch equals a linear
    scan of the reconstructed collection (global result == union of the
    shard results).
    """
    k = sharded.k
    cuts = sharded.cuts
    chk.check(k >= 1, f"k = {k} is not positive")
    chk.check(
        cuts.size == k + 1,
        f"{cuts.size} cut points for k = {k} shards (expected {k + 1})",
    )
    chk.check(
        int(cuts[0]) == 0 and int(cuts[-1]) == 1 << sharded.m,
        f"cuts [{cuts[0]}, ..., {cuts[-1]}] do not tile "
        f"[0, {1 << sharded.m}]",
    )
    chk.check(
        bool(np.all(np.diff(cuts) >= 1)),
        "cut points are not strictly increasing",
    )
    chk.check(
        len(sharded.shards) == k,
        f"{len(sharded.shards)} shard objects for k = {k}",
    )
    if chk.violations:
        return chk.finish(
            VerificationReport(
                "ShardedHint", sharded.num_intervals, 0, checks=0
            )
        )

    # --- per-shard checks, with global reconstruction ------------------ #
    placements = 0
    rec_parts: List[np.ndarray] = []
    for j, shard in enumerate(sharded.shards):
        lo, hi = int(cuts[j]), int(cuts[j + 1]) - 1
        chk.check(
            shard.lo == lo and shard.hi == hi,
            f"shard {j} claims [{shard.lo}, {shard.hi}], cuts say "
            f"[{lo}, {hi}]",
        )
        local = shard.index.as_collection()
        max_end = int(local.end.max()) if len(local) else -1
        # Occupied-range normalization allows the local domain to be
        # narrower than the shard width; that is exact only while the
        # probe-time clip cannot engage (top covers the width) or
        # cannot bite (top strictly above every end).
        top_local = (1 << shard.index.m) - 1
        chk.check(
            top_local >= hi - lo or top_local > max_end,
            f"shard {j}: local domain 2**{shard.index.m} neither covers "
            f"width {hi - lo + 1} nor clears the occupied range "
            f"(max end {max_end})",
        )
        try:
            inner = _verify_hint(shard.index, chk, deep, None)
        except InvariantViolation as exc:
            raise InvariantViolation(
                [f"shard {j}: {v}" for v in exc.violations]
            ) from None
        placements += inner.num_placements + int(shard.rep_ids.size)
        chk.check(
            shard.rep_end.size == shard.rep_ids.size,
            f"shard {j}: replica columns disagree "
            f"({shard.rep_end.size} ends, {shard.rep_ids.size} ids)",
        )
        chk.check(
            bool(np.all(np.diff(shard.rep_end) >= 0)),
            f"shard {j}: replica table not sorted by end",
        )
        sx = shard.rep_xor_suffix
        ok_sx = sx.size == shard.rep_ids.size + 1 and int(sx[-1]) == 0
        if ok_sx and shard.rep_ids.size:
            ok_sx = bool(
                np.array_equal(
                    sx[:-1] ^ sx[1:], shard.rep_ids
                )
            )
        chk.check(
            ok_sx, f"shard {j}: replica suffix-XOR array inconsistent"
        )
        px = shard.orig_xor_prefix
        ok_sp = (
            shard.orig_st.size == shard.orig_ids.size
            and px.size == shard.orig_ids.size + 1
            and int(px[0]) == 0
            and bool(np.all(np.diff(shard.orig_st) >= 0))
        )
        if ok_sp and shard.orig_ids.size:
            ok_sp = bool(
                np.array_equal(px[:-1] ^ px[1:], shard.orig_ids)
            ) and bool(
                np.array_equal(np.sort(shard.orig_ids), np.sort(local.ids))
            )
        chk.check(
            ok_sp,
            f"shard {j}: start-sorted spill table inconsistent with the "
            f"shard's originals",
        )
        rec_parts.append(
            np.stack(
                [
                    local.ids,
                    local.st + lo,
                    local.end + lo,
                ]
            )
        )
    if chk.violations:
        return chk.finish(
            VerificationReport(
                "ShardedHint", sharded.num_intervals, placements, checks=0
            )
        )

    # --- global reconstruction: originals give <id, st, clipped end>;
    # --- an interval's true end is its last replica's stored end ------- #
    rec = np.concatenate(rec_parts, axis=1)
    order = np.argsort(rec[0], kind="stable")
    rec_ids, rec_st, rec_end = rec[0][order], rec[1][order], rec[2][order]
    ok_ids = chk.check(
        rec_ids.size == sharded.num_intervals
        and np.unique(rec_ids).size == rec_ids.size,
        f"expected exactly one original placement per interval across "
        f"all shards, found {rec_ids.size} over {sharded.num_intervals}",
    )
    if not ok_ids:
        return chk.finish(
            VerificationReport(
                "ShardedHint", sharded.num_intervals, placements, checks=0
            )
        )
    rec_end = rec_end.copy()
    for shard in sharded.shards:
        if shard.rep_ids.size:
            pos = np.searchsorted(rec_ids, shard.rep_ids)
            valid = (pos < rec_ids.size) & (rec_ids[np.minimum(pos, rec_ids.size - 1)] == shard.rep_ids)
            chk.check(
                bool(np.all(valid)),
                "replica table references ids with no original placement",
            )
            # Replicas store the *global* end; later shards overwrite
            # earlier clips, so after the loop rec_end is the true end.
            np.maximum.at(rec_end, pos[valid], shard.rep_end[valid])

    first = sharded.shard_of(rec_st)
    last = sharded.shard_of(rec_end)
    # Every interval's original is in exactly the shard of its start —
    # walk the pre-sort stack, whose rows are grouped shard by shard.
    unsorted_first = sharded.shard_of(rec[1])
    boundaries_ok = True
    offset = 0
    for j, shard in enumerate(sharded.shards):
        n_orig = len(shard.index)
        if not np.all(unsorted_first[offset : offset + n_orig] == j):
            boundaries_ok = False
        offset += n_orig
    chk.check(
        boundaries_ok,
        "an original placement lives in a shard other than the one "
        "containing its start point",
    )
    # Every shard j the interval reaches beyond its first holds exactly
    # one replica: replicas of shard j == intervals with first < j <= last.
    for j, shard in enumerate(sharded.shards):
        want = np.sort(rec_ids[(first < j) & (last >= j)])
        got = np.sort(shard.rep_ids)
        chk.check(
            bool(np.array_equal(want, got)),
            f"shard {j}: replica set differs from the intervals whose "
            f"extent dictates a replica there "
            f"({got.size} stored, {want.size} expected)",
        )
    if collection is not None:
        corder = np.argsort(collection.ids, kind="stable")
        chk.check(
            bool(
                np.array_equal(collection.ids[corder], rec_ids)
                and np.array_equal(collection.st[corder], rec_st)
                and np.array_equal(collection.end[corder], rec_end)
            ),
            "sharded contents disagree with the provided collection",
        )

    report = VerificationReport(
        index_type="ShardedHint",
        num_intervals=sharded.num_intervals,
        num_placements=placements,
        checks=0,
        notes=[f"k={k}", f"replicas={sharded.num_replicas()}"],
    )
    if not deep or chk.violations:
        if not deep:
            report.notes.append("shallow")
        return chk.finish(report)

    # --- differential: merged result == linear scan (union of shards) - #
    from repro.baselines.naive import NaiveScan
    from repro.intervals.batch import QueryBatch

    top = (1 << sharded.m) - 1
    probe_st, probe_end = [0], [top]
    for c in cuts[1:-1]:
        c = int(c)
        # Queries hugging, touching and straddling every boundary —
        # the exact cases the spill fan-out and replica probe must get
        # right.
        for a, b in ((c - 2, c - 1), (c - 1, c), (c, c), (c - 1, c + 1), (c, c + 1)):
            probe_st.append(max(a, 0))
            probe_end.append(min(max(b, 0), top))
    probe = QueryBatch(probe_st, probe_end)
    reconstructed = IntervalCollection(rec_st, rec_end, rec_ids, copy=False)
    want = NaiveScan(reconstructed).batch(probe, mode="ids")
    got = sharded.execute(probe, mode="ids")
    chk.check(
        got == want,
        "merged shard results differ from a linear scan on the "
        "boundary-probe batch",
    )
    report.notes.append("deep: boundary probes matched the linear scan")
    return chk.finish(report)


# --------------------------------------------------------------------- #
# DynamicHint
# --------------------------------------------------------------------- #


def _verify_dynamic(dyn, chk: _Checker, deep: bool) -> VerificationReport:
    inner = _verify_hint(dyn._index, chk, deep, dyn._base)

    nbuf = len(dyn._buf_ids)
    chk.check(
        len(dyn._buf_st) == nbuf and len(dyn._buf_end) == nbuf,
        f"staging buffer columns disagree: {nbuf} ids, "
        f"{len(dyn._buf_st)} starts, {len(dyn._buf_end)} ends",
    )
    top = (1 << dyn.m) - 1
    for st, end in zip(dyn._buf_st, dyn._buf_end):
        if not (0 <= st <= end <= top):
            chk.check(
                False,
                f"buffered interval [{st}, {end}] is malformed or outside "
                f"the domain [0, {top}]",
            )
            break
    else:
        chk.check(True, "buffered intervals well-formed")

    base_ids = set(dyn._base.ids.tolist())
    buf_ids = set(dyn._buf_ids)
    stored = base_ids | buf_ids
    chk.check(
        len(base_ids) + len(buf_ids) == len(dyn._base) + nbuf,
        "duplicate ids across the base collection and the staging buffer",
    )
    chk.check(
        dyn._buf_pos == {i: pos for pos, i in enumerate(dyn._buf_ids)},
        "staged id -> buffer row map disagrees with the staging buffer",
    )
    lookup = dyn._base_ids_sorted
    chk.check(
        lookup.size == len(dyn._base)
        and bool(np.all(lookup[1:] > lookup[:-1]))
        and np.array_equal(dyn._base.ids[dyn._base_rows], lookup),
        "id -> row lookup disagrees with the base collection",
    )
    # The tombstone columns: the base's dead rows with its coordinates,
    # and the buffer rows of the deleted staged ids.
    dead = [np.array(c) for c in (dyn._dead_ids, dyn._dead_st, dyn._dead_end)]
    if chk.check(
        len({c.size for c in dead}) == 1,
        f"tombstone columns disagree: {dead[0].size} ids, "
        f"{dead[1].size} starts, {dead[2].size} ends",
    ):
        at = lookup.searchsorted(dead[0])
        found = bool(np.all(at < lookup.size))
        rows = dyn._base_rows[at] if found else at
        chk.check(
            found
            and np.array_equal(lookup[at], dead[0])
            and np.array_equal(dyn._base.st[rows], dead[1])
            and np.array_equal(dyn._base.end[rows], dead[2]),
            "tombstone rows disagree with the base collection",
        )
    gone = [dyn._buf_ids[pos] for pos in dyn._buf_gone if 0 <= pos < nbuf]
    tombstones = set(dead[0].tolist()) | set(gone)
    chk.check(
        tombstones <= stored,
        f"tombstones reference ids never stored: "
        f"{sorted(tombstones - stored)[:5]}",
    )
    chk.check(
        len(gone) == len(dyn._buf_gone)
        and len(tombstones) == dead[0].size + len(gone),
        "tombstone columns hold a buffer row out of range or an id twice",
    )
    live = stored - tombstones
    chk.check(
        dyn._live == live,
        "live-id set disagrees with base ∪ buffer − tombstones",
    )
    chk.check(
        len(dyn) == len(live),
        f"len() reports {len(dyn)}, {len(live)} ids are live",
    )
    chk.check(
        all(dyn._next_id > i for i in stored) if stored else dyn._next_id >= 0,
        "next auto-id collides with a stored id",
    )

    report = VerificationReport(
        index_type="DynamicHint",
        num_intervals=len(dyn),
        num_placements=inner.num_placements,
        checks=0,
        notes=[f"buffered={nbuf}", f"tombstones={len(tombstones)}"]
        + inner.notes,
    )
    return chk.finish(report)


# --------------------------------------------------------------------- #
# GridIndex
# --------------------------------------------------------------------- #


def _verify_grid(
    grid,
    chk: _Checker,
    deep: bool,
    collection: Optional[IntervalCollection],
) -> VerificationReport:
    k = grid.k
    chk.check(k >= 1, f"k = {k} is not positive")
    chk.check(
        grid.domain_hi >= grid.domain_lo,
        f"empty domain [{grid.domain_lo}, {grid.domain_hi}]",
    )
    _check_flat_table(
        chk,
        "grid/originals",
        k,
        grid.o_offsets,
        {"ids": grid.o_ids, "st": grid.o_st, "end": grid.o_end},
    )
    _check_flat_table(
        chk,
        "grid/replicas",
        k,
        grid.r_offsets,
        {"ids": grid.r_ids, "st": grid.r_st, "end": grid.r_end},
    )
    report = VerificationReport(
        index_type="GridIndex",
        num_intervals=grid.num_intervals,
        num_placements=grid.num_placements(),
        checks=0,
    )
    if chk.violations:
        return chk.finish(report)

    _check_partition_sorted(chk, "grid/originals", grid.o_offsets, grid.o_st)
    _check_partition_sorted(chk, "grid/replicas", grid.r_offsets, grid.r_end)

    o_parts = _row_partitions(grid.o_offsets)
    r_parts = _row_partitions(grid.r_offsets)
    chk.check(
        bool(np.array_equal(grid.partition_of(grid.o_st), o_parts)),
        "grid/originals: an interval does not start in its partition",
    )
    if grid.r_ids.size:
        chk.check(
            bool(np.all(grid.partition_of(grid.r_st) < r_parts)),
            "grid/replicas: an interval starts at or after its partition",
        )
        chk.check(
            bool(np.all(grid.partition_of(grid.r_end) >= r_parts)),
            "grid/replicas: an interval ends before its partition",
        )
    chk.check(
        grid.o_ids.size == grid.num_intervals
        and np.unique(grid.o_ids).size == grid.o_ids.size,
        f"expected exactly one original placement per interval, found "
        f"{grid.o_ids.size} over {grid.num_intervals} intervals",
    )
    if not deep or chk.violations:
        if not deep:
            report.notes.append("shallow")
        return chk.finish(report)

    # --- coverage: placements are exactly the overlapped partitions --- #
    order = np.argsort(grid.o_ids, kind="stable")
    rec_ids = grid.o_ids[order]
    rec_st = grid.o_st[order]
    rec_end = grid.o_end[order]
    chk.check(
        bool(np.all(rec_st <= rec_end)),
        "grid/originals: reconstructed intervals have st > end",
    )
    chk.check(
        bool(
            rec_ids.size == 0
            or (
                int(rec_st.min()) >= grid.domain_lo
                and int(rec_end.max()) <= grid.domain_hi
            )
        ),
        "grid: endpoints fall outside the declared domain",
    )
    if collection is not None:
        corder = np.argsort(collection.ids, kind="stable")
        chk.check(
            bool(
                np.array_equal(collection.ids[corder], rec_ids)
                and np.array_equal(collection.st[corder], rec_st)
                and np.array_equal(collection.end[corder], rec_end)
            ),
            "grid contents disagree with the provided collection",
        )
    if chk.violations:
        return chk.finish(report)

    first = grid.partition_of(rec_st)
    last = grid.partition_of(rec_end)
    # Expected replica placements: every partition after the first.
    want_pairs = []
    span = last - first + 1
    for j in range(1, int(span.max()) if span.size else 0):
        sel = span > j
        want_pairs.append(
            np.stack([first[sel] + j, rec_ids[sel]])
        )
    if want_pairs:
        want = np.concatenate(want_pairs, axis=1)
    else:
        want = np.empty((2, 0), dtype=np.int64)
    got = np.stack([r_parts, grid.r_ids]) if grid.r_ids.size else np.empty(
        (2, 0), dtype=np.int64
    )
    if chk.check(
        got.shape == want.shape,
        f"grid/replicas: {got.shape[1]} placements stored, coverage "
        f"expects {want.shape[1]}",
    ) and want.shape[1]:
        w = np.lexsort((want[1], want[0]))
        g = np.lexsort((got[1], got[0]))
        chk.check(
            bool(np.array_equal(want[:, w], got[:, g])),
            "grid/replicas: stored placements differ from the partitions "
            "the intervals overlap",
        )
    # Replica endpoint columns must agree with the originals' values.
    if grid.r_ids.size:
        pos = np.searchsorted(rec_ids, grid.r_ids)
        chk.check(
            bool(
                np.all(pos < rec_ids.size)
                and np.array_equal(rec_ids[pos], grid.r_ids)
                and np.array_equal(rec_st[pos], grid.r_st)
                and np.array_equal(rec_end[pos], grid.r_end)
            ),
            "grid/replicas: endpoint columns disagree with the originals",
        )
    report.notes.append("deep: coverage matched")
    return chk.finish(report)
