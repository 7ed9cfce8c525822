"""Production implementations of the batch strategies (Algorithms 2-4).

All three strategies operate on the columnar
:class:`~repro.hint.index.HintIndex` and a
:class:`~repro.intervals.QueryBatch`, and return a
:class:`~repro.core.result.BatchResult` in the caller's batch order.

The cache-locality effects that motivate the paper cannot be observed
from CPython directly (see ``analysis/`` for the trace-driven cache
simulator that makes them observable).  What *does* transfer to this
build is the computation sharing the strategies enable:

* **query-based** pays full per-query Python and bit-arithmetic overhead
  for every query (Algorithm 2);
* **level-based** amortizes the per-level prefix/flag arithmetic across
  the whole batch with one vectorized pass per level (Algorithm 3);
* **partition-based** additionally shares index probes across the
  batch (Algorithm 4).  Its count and checksum modes need none: the
  index's domain is ``[0, 2**m - 1]`` and every interval is tiled
  exactly, so each stored row covers its partition whole and the
  ``compfirst``/``complast`` comparisons can never drop a row (the
  comparison-free case of HINT).  A level's answer is the originals of
  partitions ``f..l`` plus the replicas of ``f``, which is two gathers
  per level from the index's prefix folds for the whole batch
  (:func:`fold_batch`).  Its ids mode takes one row run per table per
  query, cut where the flags still owe a comparison
  (:func:`partition_level_sweep`, the compiled backend's driver); the
  serial backend's ids mode instead groups queries per partition:
  first-anchor partitions in ascending order, then middle ranges, then
  last-anchor partitions — a reordering of the paper's single ascending
  sweep that produces identical results.

Query-based and level-based keep Algorithm 1's and Algorithm 3's
comparisons on purpose: they are the paper's baselines, which is why
partition-based pulls away from them by more here than in the paper.

The pseudocode-faithful sweep, used for access-pattern traces, lives in
:meth:`repro.hint.reference.ReferenceHint.batch_partition_based`.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Dict

import numpy as np

import repro.obs as obs
from repro.core.collector import make_collector
from repro.core.result import BatchResult
from repro.hint.index import HintIndex
from repro.hint.tables import LevelData
from repro.intervals.batch import QueryBatch

__all__ = [
    "query_based",
    "level_based",
    "partition_based",
    "partition_level_sweep",
    "fold_batch",
    "run_strategy",
    "STRATEGIES",
]

_EMPTY = np.empty(0, dtype=np.int64)
_FOLD_BLOCK = 131072  # (level, query) pairs per block of fold_batch


# --------------------------------------------------------------------- #
# shared per-(query, level) processing — Lines 6-21 of Algorithm 1
# --------------------------------------------------------------------- #


def _o_in_both(table, part, q_st, q_end, collector, pos):
    """Both overlap tests on O_in (first == last partition, both flags)."""
    lo, hi = table.bounds(part)
    if hi <= lo:
        return
    k = int(np.searchsorted(table.st[lo:hi], q_end, side="right"))
    if k == 0:
        return
    mask = table.end[lo : lo + k] >= q_st
    if collector.mode == "count":
        collector.add_count(pos, int(np.count_nonzero(mask)))
    else:
        collector.add_ids(pos, table.ids[lo : lo + k][mask])


def _o_in_end_geq(table, part, q_st, collector, pos):
    """``s.end >= q.st`` on O_in, which is sorted by st (linear mask)."""
    lo, hi = table.bounds(part)
    if hi <= lo:
        return
    mask = table.end[lo:hi] >= q_st
    if collector.mode == "count":
        collector.add_count(pos, int(np.count_nonzero(mask)))
    else:
        collector.add_ids(pos, table.ids[lo:hi][mask])


def _st_leq(table, part, q_end, collector, pos):
    """``s.st <= q.end`` prefix of a partition sorted by st."""
    lo, hi = table.bounds(part)
    if hi <= lo:
        return
    k = int(np.searchsorted(table.st[lo:hi], q_end, side="right"))
    collector.add_slice(pos, table, lo, lo + k)


def _end_geq(table, part, q_st, collector, pos):
    """``s.end >= q.st`` suffix of a partition sorted by end."""
    lo, hi = table.bounds(part)
    if hi <= lo:
        return
    k = int(np.searchsorted(table.end[lo:hi], q_st, side="left"))
    collector.add_slice(pos, table, lo + k, hi)


def _full(table, part, collector, pos):
    lo, hi = table.bounds(part)
    collector.add_slice(pos, table, lo, hi)


def _process_level(
    data: LevelData,
    q_st: int,
    q_end: int,
    f: int,
    l: int,
    compfirst: bool,
    complast: bool,
    collector,
    pos: int,
) -> None:
    """Process all relevant partitions of one level for one query."""
    o_in, o_aft, r_in, r_aft = data.tables()

    # first relevant partition
    if f == l and compfirst and complast:
        _o_in_both(o_in, f, q_st, q_end, collector, pos)
        _st_leq(o_aft, f, q_end, collector, pos)
        _end_geq(r_in, f, q_st, collector, pos)
        _full(r_aft, f, collector, pos)
    elif compfirst:
        _o_in_end_geq(o_in, f, q_st, collector, pos)
        _full(o_aft, f, collector, pos)
        _end_geq(r_in, f, q_st, collector, pos)
        _full(r_aft, f, collector, pos)
    elif f == l and complast:
        _st_leq(o_in, f, q_end, collector, pos)
        _st_leq(o_aft, f, q_end, collector, pos)
        _full(r_in, f, collector, pos)
        _full(r_aft, f, collector, pos)
    else:
        _full(o_in, f, collector, pos)
        _full(o_aft, f, collector, pos)
        _full(r_in, f, collector, pos)
        _full(r_aft, f, collector, pos)

    if l > f:
        # in-between partitions: contiguous row ranges, no comparisons
        if l > f + 1:
            collector.add_slice(
                pos, o_in, int(o_in.offsets[f + 1]), int(o_in.offsets[l])
            )
            collector.add_slice(
                pos, o_aft, int(o_aft.offsets[f + 1]), int(o_aft.offsets[l])
            )
        # last relevant partition: originals only
        if complast:
            _st_leq(o_in, l, q_end, collector, pos)
            _st_leq(o_aft, l, q_end, collector, pos)
        else:
            _full(o_in, l, collector, pos)
            _full(o_aft, l, collector, pos)


def _prepare(index: HintIndex, batch: QueryBatch, sort: bool):
    work = batch.sorted_by_start() if sort else batch
    top = (1 << index.m) - 1
    q_st = np.clip(work.st, 0, top)
    q_end = np.clip(work.end, 0, top)
    return work, q_st, q_end


# --------------------------------------------------------------------- #
# Algorithm 2 — query-based
# --------------------------------------------------------------------- #


def query_based(
    index: HintIndex,
    batch: QueryBatch,
    *,
    sort: bool = False,
    mode: str = "count",
) -> BatchResult:
    """Execute each query of the batch independently (Algorithm 2).

    With ``sort=True`` this is the paper's "query-based with sorting"
    variant: queries are examined in increasing start order, which in the
    original C++ setting reduces horizontal cache jumps.
    """
    ob = obs.active()
    if ob is None:
        return _query_based_impl(index, batch, sort, mode, None)
    name = "query-based-sorted" if sort else "query-based"
    with ob.strategy_span(name, len(batch), mode):
        return _query_based_impl(index, batch, sort, mode, ob)


def _query_based_impl(
    index: HintIndex, batch: QueryBatch, sort: bool, mode: str, ob
) -> BatchResult:
    work, q_st, q_end = _prepare(index, batch, sort)
    collector = make_collector(mode, len(work))
    m = index.m
    levels = index.levels
    # Empty levels carry no data for any query; skipping them is an
    # index property (the skewness & sparsity optimization), available
    # to the serial baseline just as to the batch strategies.
    occupied = [level in index.occupied_levels for level in range(m + 1)]
    touches = [0] * (m + 1) if ob is not None else None
    for pos in range(len(work)):
        s, e = int(q_st[pos]), int(q_end[pos])
        compfirst = True
        complast = True
        for level in range(m, -1, -1):
            shift = m - level
            f = s >> shift
            l = e >> shift
            if touches is not None:
                touches[level] += l - f + 1
            if occupied[level]:
                _process_level(
                    levels[level], s, e, f, l, compfirst, complast, collector, pos
                )
            if not f & 1:
                compfirst = False
            if l & 1:
                complast = False
    if ob is not None:
        name = "query-based-sorted" if sort else "query-based"
        for level in range(m, -1, -1):
            if ob.config.trace_partitions:
                shift = m - level
                ob.record_level(
                    name, level, f=q_st >> shift, l=q_end >> shift
                )
            else:
                ob.record_level(name, level, touches=touches[level])
    return collector.finalize(work.order)


# --------------------------------------------------------------------- #
# Algorithm 3 — level-based
# --------------------------------------------------------------------- #


def level_based(
    index: HintIndex,
    batch: QueryBatch,
    *,
    sort: bool = True,
    mode: str = "count",
) -> BatchResult:
    """Evaluate all queries of the batch level by level (Algorithm 3).

    The per-level prefix (``f``, ``l``) and flag bookkeeping is computed
    for the entire batch with vectorized bit arithmetic.
    """
    ob = obs.active()
    if ob is None:
        return _level_based_impl(index, batch, sort, mode, None)
    with ob.strategy_span("level-based", len(batch), mode):
        return _level_based_impl(index, batch, sort, mode, ob)


def _level_based_impl(
    index: HintIndex, batch: QueryBatch, sort: bool, mode: str, ob
) -> BatchResult:
    work, q_st, q_end = _prepare(index, batch, sort)
    n = len(work)
    collector = make_collector(mode, n)
    compfirst = np.ones(n, dtype=bool)
    complast = np.ones(n, dtype=bool)
    st_list = q_st.tolist()
    end_list = q_end.tolist()
    m = index.m
    for level in range(m, -1, -1):
        if ob is not None:
            t_level = perf_counter()
        shift = m - level
        f = q_st >> shift
        l = q_end >> shift
        data = index.levels[level]
        if level in index.occupied_levels:
            # Level-wide shared computation: the per-level prefix, flag
            # and occupancy state is materialized for the whole batch at
            # once (plain lists: cheaper to consume in the per-query
            # loop than numpy scalar indexing).  On sparse levels, a
            # vectorized occupancy pass additionally lets queries whose
            # partition range is empty skip the level entirely.
            f_list = f.tolist()
            l_list = l.tolist()
            cf_list = compfirst.tolist()
            cl_list = complast.tolist()
            if data.total() < 4 * n:
                touched = np.zeros(n, dtype=np.int64)
                for table in data.tables():
                    if len(table):
                        touched += table.offsets[l + 1] - table.offsets[f]
                active = np.flatnonzero(touched).tolist()
            else:
                active = range(n)
            for pos in active:
                _process_level(
                    data,
                    st_list[pos],
                    end_list[pos],
                    f_list[pos],
                    l_list[pos],
                    cf_list[pos],
                    cl_list[pos],
                    collector,
                    pos,
                )
        if ob is not None:
            ob.record_level(
                "level-based", level, f=f, l=l,
                duration=perf_counter() - t_level,
            )
        compfirst &= (f & 1) == 1
        complast &= (l & 1) == 0
    return collector.finalize(work.order)


# --------------------------------------------------------------------- #
# Algorithm 4 — partition-based
# --------------------------------------------------------------------- #


def _first_partition_groups(
    data: LevelData,
    q_st: np.ndarray,
    q_end: np.ndarray,
    f: np.ndarray,
    l: np.ndarray,
    compfirst: np.ndarray,
    complast: np.ndarray,
    collector,
) -> None:
    """Process every query's *first* relevant partition, grouped by
    partition; queries sharing a partition share one probe per table."""
    o_in, o_aft, r_in, r_aft = data.tables()
    parts, starts = np.unique(f, return_index=True)
    bounds = np.append(starts, f.size)
    for gi in range(parts.size):
        p = int(parts[gi])
        j0, j1 = int(bounds[gi]), int(bounds[gi + 1])
        idx = np.arange(j0, j1)
        anchored_last = l[idx] == p
        cf = compfirst[idx]
        cl = complast[idx]
        case_both = cf & cl & anchored_last
        case_first = cf & ~case_both
        case_st = ~cf & cl & anchored_last
        case_none = ~cf & ~(cl & anchored_last)

        # --- O_in -----------------------------------------------------
        lo, hi = o_in.bounds(p)
        if hi > lo:
            if case_both.any():
                st_slice = o_in.st[lo:hi]
                end_slice = o_in.end[lo:hi]
                sel = idx[case_both]
                ks = np.searchsorted(st_slice, q_end[sel], side="right")
                for j, k in zip(sel, ks):
                    if k:
                        mask = end_slice[:k] >= q_st[j]
                        if collector.mode == "count":
                            collector.add_count(int(j), int(np.count_nonzero(mask)))
                        else:
                            collector.add_ids(int(j), o_in.ids[lo : lo + int(k)][mask])
            if case_first.any():
                end_slice = o_in.end[lo:hi]
                for j in idx[case_first]:
                    mask = end_slice >= q_st[j]
                    if collector.mode == "count":
                        collector.add_count(int(j), int(np.count_nonzero(mask)))
                    else:
                        collector.add_ids(int(j), o_in.ids[lo:hi][mask])
            if case_st.any():
                _grouped_st_leq(o_in, p, lo, hi, idx[case_st], q_end, collector)
            if case_none.any():
                _grouped_full(o_in, p, lo, hi, idx[case_none], collector)

        # --- O_aft: the q.st side is implied; test s.st <= q.end only
        # when this partition is also the query's last and complast holds.
        lo, hi = o_aft.bounds(p)
        if hi > lo:
            needs_st = (case_both | case_st)
            if needs_st.any():
                _grouped_st_leq(o_aft, p, lo, hi, idx[needs_st], q_end, collector)
            rest = ~needs_st
            if rest.any():
                _grouped_full(o_aft, p, lo, hi, idx[rest], collector)

        # --- R_in: test q.st <= s.end while compfirst holds ------------
        lo, hi = r_in.bounds(p)
        if hi > lo:
            if cf.any():
                sel = idx[cf]
                ks = np.searchsorted(r_in.end[lo:hi], q_st[sel], side="left")
                if collector.mode == "count":
                    collector.add_counts_vec(sel, (hi - lo) - ks)
                else:
                    for j, k in zip(sel, ks):
                        collector.add_slice(int(j), r_in, lo + int(k), hi)
            if (~cf).any():
                _grouped_full(r_in, p, lo, hi, idx[~cf], collector)

        # --- R_aft: never compared -------------------------------------
        lo, hi = r_aft.bounds(p)
        if hi > lo:
            _grouped_full(r_aft, p, lo, hi, idx, collector)


def _grouped_st_leq(table, p, lo, hi, sel, q_end, collector) -> None:
    ks = np.searchsorted(table.st[lo:hi], q_end[sel], side="right")
    if collector.mode == "count":
        collector.add_counts_vec(sel, ks)
    else:
        for j, k in zip(sel, ks):
            collector.add_slice(int(j), table, lo, lo + int(k))


def _grouped_full(table, p, lo, hi, sel, collector) -> None:
    if collector.mode == "count":
        collector.add_counts_vec(sel, np.full(sel.size, hi - lo, dtype=np.int64))
    else:
        for j in sel:
            collector.add_slice(int(j), table, lo, hi)


def _middle_ranges(
    data: LevelData, f: np.ndarray, l: np.ndarray, positions: np.ndarray, collector
) -> None:
    """Comparison-free middles ``f+1 .. l-1``: contiguous row ranges."""
    sel = l > f + 1
    if not sel.any():
        return
    f_sel = f[sel] + 1
    l_sel = l[sel]
    pos_sel = positions[sel]
    for table in (data.o_in, data.o_aft):
        if not len(table):
            continue
        lows = table.offsets[f_sel]
        highs = table.offsets[l_sel]
        if collector.mode == "count":
            collector.add_counts_vec(pos_sel, highs - lows)
        else:
            for j, lo, hi in zip(pos_sel, lows, highs):
                collector.add_slice(int(j), table, int(lo), int(hi))


def _last_partition_groups(
    data: LevelData,
    q_end: np.ndarray,
    f: np.ndarray,
    l: np.ndarray,
    complast: np.ndarray,
    collector,
) -> None:
    """Process every query's *last* relevant partition (originals only),
    grouped by partition."""
    sel = np.flatnonzero(l > f)
    if sel.size == 0:
        return
    order = sel[np.argsort(l[sel], kind="stable")]
    l_sorted = l[order]
    group_starts = np.flatnonzero(np.r_[True, l_sorted[1:] != l_sorted[:-1]])
    group_bounds = np.append(group_starts, order.size)
    for gi in range(group_starts.size):
        g0, g1 = int(group_bounds[gi]), int(group_bounds[gi + 1])
        idx = order[g0:g1]
        p = int(l_sorted[g0])
        cl = complast[idx]
        for table in (data.o_in, data.o_aft):
            lo, hi = table.bounds(p)
            if hi <= lo:
                continue
            if cl.any():
                _grouped_st_leq(table, p, lo, hi, idx[cl], q_end, collector)
            if (~cl).any():
                _grouped_full(table, p, lo, hi, idx[~cl], collector)


def _level_flags(index: HintIndex, q_st: np.ndarray, q_end: np.ndarray):
    """Per query, the lowest zero bit of ``q.st`` and the lowest set bit of
    ``q.end`` (bit ``m`` when it has none), as powers of two.

    ``compfirst`` survives to a level exactly while every bit of ``q.st``
    below the level's prefix is one, ``complast`` while every such bit of
    ``q.end`` is zero (Lines 22-25 of Algorithm 1, unrolled), so at shift
    ``s`` the flags are ``first_zero >> s != 0`` and ``last_one >> s != 0``
    — no flag state carried from level to level, none kept for the empty
    levels nobody visits.
    """
    guarded = q_end | (1 << index.m)
    return ~q_st & (q_st + 1), guarded & -guarded


def _sweep_level(data: LevelData, f, l, q_st, q_end, first, last, acc) -> None:
    """One level of Algorithm 4 as one row run per table per query.

    *first*/*last* are the positions whose ``compfirst``/``complast``
    still holds.  Partitions ``f..l`` of a query lie back to back in a
    table, so the originals are one run ``[offsets[f], offsets[l + 1])``
    whose upper end the ``s.st <= q.end`` cut replaces for *last*; on
    ``O_in`` the part of that run inside partition ``f`` is filtered by
    ``s.end >= q.st`` for *first*.  Replicas count at partition ``f``
    only, ``R_in`` from the ``s.end >= q.st`` cut on for *first*.
    """
    everyone = slice(None)
    after_f = f + 1
    after_l = l + 1
    if last.size:
        l_last, end_last = l[last], q_end[last]
    if first.size:
        f_first, st_first = f[first], q_st[first]
    for table in (data.o_in, data.o_aft):
        if not len(table):
            continue
        lo = table.offsets[f]
        hi = table.offsets[after_l]
        if last.size:
            hi[last] = acc.prefix_range(table, l_last, end_last)[1]
        if table is data.o_in and first.size:
            cut = np.minimum(hi[first], table.offsets[f_first + 1])
            acc.add_masked_ranges(first, table, lo[first], cut, st_first)
            lo[first] = cut
        acc.add_ranges(everyone, table, lo, hi)
    r_in, r_aft = data.r_in, data.r_aft
    if len(r_in):
        lo = r_in.offsets[f]
        if first.size:
            lo[first] = acc.suffix_range(r_in, f_first, st_first)[0]
        acc.add_ranges(everyone, r_in, lo, r_in.offsets[after_f])
    if len(r_aft):
        acc.add_ranges(everyone, r_aft, r_aft.offsets[f], r_aft.offsets[after_f])


def partition_level_sweep(
    index: HintIndex,
    q_st: np.ndarray,
    q_end: np.ndarray,
    acc,
    ob=None,
) -> None:
    """Drive Algorithm 4's per-level relevant-range sweep through an
    accumulator.

    *q_st*/*q_end* are the clipped, **start-sorted** query bounds (see
    :func:`_prepare`).  Only occupied levels are visited; on each, every
    table contributes one row run per query (:func:`_sweep_level`): at
    most three packed-column cuts (``prefix_range``/``suffix_range``)
    and five registrations (``add_ranges``, and ``add_masked_ranges``
    for the first partition of ``O_in``) — no comparison
    :func:`_process_level` does not make, and none at the bottom level.
    The accumulator decides what a registered range *means*; the one in
    production is the compiled ids path's gather plan
    (:mod:`repro.kernels.compiled`), as count and checksum need no runs
    (:func:`fold_batch`).  With *ob* set every level is reported
    (``record_level``), empty ones included, as the access traces expect.
    """
    m = index.m
    first_zero, last_one = _level_flags(index, q_st, q_end)
    occupied = index.occupied_levels
    for level in occupied if ob is None else range(m, -1, -1):
        if ob is not None:
            t_level = perf_counter()
        shift = m - level
        f = q_st >> shift
        l = q_end >> shift
        if level in occupied:
            # A bottom-level partition is one cell, so every row it stores
            # passes both tests: nothing is compared at shift 0.
            first = (first_zero >> shift).nonzero()[0] if shift else _EMPTY
            last = (last_one >> shift).nonzero()[0] if shift else _EMPTY
            _sweep_level(
                index.levels[level], f, l, q_st, q_end, first, last, acc
            )
        if ob is not None:
            ob.record_level(
                "partition-based", level, f=f, l=l,
                duration=perf_counter() - t_level,
            )


def fold_batch(
    index: HintIndex, batch: QueryBatch, mode: str, ob=None
) -> BatchResult:
    """Count or checksum *batch* from the index's prefix folds.

    On every occupied level a query reads two fold entries,
    ``O[l + 1]`` and ``D[f]`` (:meth:`HintIndex.fold`, which says why no
    comparison is owed on this index): one ``(levels x queries)`` gather
    each, summed (XORed) over the levels.  No cut, no masked range and
    no start order, so the batch is answered in its own order.  With
    *ob* set the same computation runs and every level is reported
    (``record_level``), empty ones included, as the access traces expect.
    """
    _, q_st, q_end = _prepare(index, batch, sort=False)
    shift, o_1, d_0 = index.fold_layout
    fold = index.fold("count")
    xfold = index.fold("checksum") if mode == "checksum" else None
    counts = np.empty(len(batch), dtype=np.int64)
    sums = None if xfold is None else np.empty_like(counts)
    # In blocks whose (levels x queries) temporaries stay near 1 MiB: a
    # 16384-query batch on 17 levels took twice as long in one block.
    step = max(_FOLD_BLOCK // max(len(shift), 1), 1)
    for i in range(0, len(batch), step):
        hi = (q_end[i : i + step] >> shift) + o_1
        lo = (q_st[i : i + step] >> shift) + d_0
        counts[i : i + step] = (fold.take(hi) + fold.take(lo)).sum(axis=0)
        if xfold is not None:
            sums[i : i + step] = np.bitwise_xor.reduce(
                xfold.take(hi) ^ xfold.take(lo), axis=0
            )
    if ob is not None:
        shifts = np.arange(index.m + 1)[:, None]
        f, l = q_st >> shifts, q_end >> shifts
        touches = ((l - f).sum(axis=1) + len(batch)).tolist()
        for k, level_touches in enumerate(touches):  # k: the level's shift
            ob.record_level(
                "partition-based", index.m - k,
                f=f[k], l=l[k], touches=level_touches,
            )
    part = (np.arange(len(batch)), counts, sums, None)
    return BatchResult.merge(len(batch), mode, [part], batch.order)


def partition_based(
    index: HintIndex,
    batch: QueryBatch,
    *,
    sort: bool = True,
    mode: str = "count",
) -> BatchResult:
    """Per level, deplete all queries relevant to a partition before
    moving to the next partition (Algorithm 4).

    Queries anchored at the same partition share probes against that
    partition's sorted arrays.  In count and checksum mode the sharing is
    total: every row of this index covers its partition whole, so no
    probe is owed at all, and a level costs the whole batch two gathers
    from the index's prefix folds (:func:`fold_batch`).  In ids mode,
    queries grouped per partition share a vectorized prefix probe and
    then materialize their id slices.

    The ``sort`` flag is accepted for registry symmetry but Algorithm
    4's relevant-query ranges require start order, so an unsorted ids
    batch is always sorted internally (results are returned in caller
    order either way); passing ``sort=False`` with an unsorted batch
    warns that the request cannot be honored.
    """
    ob = obs.active()
    if ob is None:
        return _partition_based_run(index, batch, sort, mode, None)
    with ob.strategy_span("partition-based", len(batch), mode):
        return _partition_based_run(index, batch, sort, mode, ob)


def _partition_based_run(
    index: HintIndex, batch: QueryBatch, sort: bool, mode: str, ob
) -> BatchResult:
    if not sort and not batch.is_sorted:
        warnings.warn(
            "partition_based(sort=False) received an unsorted batch; "
            "Algorithm 4 requires start order, so the request cannot be "
            "honored (results come back in caller order either way)",
            UserWarning,
            stacklevel=3,
        )
    if mode in ("count", "checksum"):
        return fold_batch(index, batch, mode, ob)
    if mode != "ids":
        raise ValueError(
            f"unknown result mode {mode!r}; expected 'count', 'ids' or 'checksum'"
        )
    work, q_st, q_end = _prepare(index, batch.sorted_by_start(), sort=False)
    n = len(work)
    collector = make_collector(mode, n)
    compfirst = np.ones(n, dtype=bool)
    complast = np.ones(n, dtype=bool)
    positions = np.arange(n, dtype=np.int64)
    m = index.m
    for level in range(m, -1, -1):
        if ob is not None:
            t_level = perf_counter()
        shift = m - level
        f = q_st >> shift
        l = q_end >> shift
        data = index.levels[level]
        if level in index.occupied_levels:
            _first_partition_groups(
                data, q_st, q_end, f, l, compfirst, complast, collector
            )
            _middle_ranges(data, f, l, positions, collector)
            _last_partition_groups(data, q_end, f, l, complast, collector)
        if ob is not None:
            ob.record_level(
                "partition-based", level, f=f, l=l,
                duration=perf_counter() - t_level,
            )
        compfirst &= (f & 1) == 1
        complast &= (l & 1) == 0
    return collector.finalize(work.order)


# --------------------------------------------------------------------- #
# join-based adapter
# --------------------------------------------------------------------- #


def join_based_on_index(
    index: HintIndex,
    batch: QueryBatch,
    *,
    sort: bool = False,
    mode: str = "count",
) -> BatchResult:
    """:func:`~repro.core.join_based.join_based` behind the index surface.

    The join-based strategy wants the raw collection ``S``, not an
    index — but :func:`recommend_strategy` can return ``"join-based"``
    and every recommendation must be executable through
    :func:`run_strategy`.  This adapter recovers the collection from the
    index (:meth:`HintIndex.as_collection`, cached after the first
    call), clips the batch into the index domain exactly like the other
    strategies, and reports results in the caller's order.  *sort* is
    accepted for registry uniformity; the plane sweep sorts internally.
    """
    # Imported here: repro.joins pulls hint_join, which imports this
    # module — a cycle at import time, none at call time.
    from repro.core.join_based import join_based

    del sort
    work = batch.clipped(0, index._domain_top)
    ob = obs.active()
    if ob is None:
        result = join_based(index.as_collection(), work, mode=mode)
    else:
        with ob.strategy_span("join-based", len(work), mode):
            result = join_based(index.as_collection(), work, mode=mode)
    # The join reports by position in *work*, which may arrive permuted
    # (e.g. via sorted_by_start).
    n = len(work)
    return BatchResult.merge(n, mode, [result.as_part(np.arange(n))], work.order)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

STRATEGIES: Dict[str, dict] = {
    "query-based": {"fn": query_based, "sort": False},
    "query-based-sorted": {"fn": query_based, "sort": True},
    "level-based": {"fn": level_based, "sort": True},
    "partition-based": {"fn": partition_based, "sort": True},
    "join-based": {"fn": join_based_on_index, "sort": False},
}


def run_strategy(
    name: str,
    index: HintIndex,
    batch: QueryBatch,
    *,
    mode: str = "count",
) -> BatchResult:
    """Run a strategy by registry name (see :data:`STRATEGIES`)."""
    try:
        spec = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None
    return spec["fn"](index, batch, sort=spec["sort"], mode=mode)
