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
  batch (Algorithm 4), and on this index the sharing is total: the
  domain is ``[0, 2**m - 1]`` and every interval is tiled exactly, so
  each stored row covers its partition whole and the
  ``compfirst``/``complast`` comparisons can never drop a row (the
  comparison-free case of HINT).  A level's answer is the originals of
  partitions ``f..l`` plus the replicas of ``f``: two gathers per level
  from the index's prefix folds for a count or checksum, four row runs
  per level gathered into the flat result at once for ids
  (:func:`fold_batch`, in every mode and on every backend).

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
    "fold_batch",
    "run_strategy",
    "STRATEGIES",
]

_FOLD_BLOCK = 131072  # (level, query) pairs per block of fold_batch
_IDS_BLOCK = 65536  # ids per gather block of fold_batch


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


def _record_levels(index: HintIndex, q_st, q_end, ob) -> None:
    """Report every level, empty ones included, as the access traces
    expect: its ``f``/``l`` and partition touches for the whole batch
    at once (no per-level duration: no level runs on its own)."""
    shifts = np.arange(index.m + 1)[:, None]
    f, l = q_st >> shifts, q_end >> shifts
    touches = ((l - f).sum(axis=1) + q_st.size).tolist()
    for k, level_touches in enumerate(touches):  # k: the level's shift
        ob.record_level(
            "partition-based", index.m - k,
            f=f[k], l=l[k], touches=level_touches,
        )


def _gather_ids(index: HintIndex, q_st, q_end) -> BatchResult:
    """The ids of queries *q_st*/*q_end*, in their order, as four row
    runs per occupied level (:meth:`HintIndex.id_runs`).

    A query's runs are ``[start[f], start[l + 1])`` of ``O_in`` and
    ``O_aft`` and ``[start[f], start[f + 1])`` of ``R_in`` and
    ``R_aft``; its count is the sum of their lengths.  The ids of a
    block of queries are then one gather,
    ``ids[repeat(lo - at, len) + arange(total)]`` with ``at`` where each
    run lands, written straight into the flat result.
    """
    ids, starts = index.id_runs()
    layout = index.runs_layout[None]  # (1, tables, levels)
    shift = index.fold_layout[0][:, 0]
    n = q_st.size
    lo = np.empty((n,) + layout.shape[1:], dtype=np.int64)
    lens = np.empty_like(lo)
    step = max(_FOLD_BLOCK // max(layout.size, 1), 1)
    for i in range(0, n, step):
        f = q_st[i : i + step, None] >> shift
        l = q_end[i : i + step, None] >> shift
        starts.take(layout + f[:, None], out=lo[i : i + step])
        hi = starts.take(layout + np.stack((l, l, f, f), axis=1) + 1)
        np.subtract(hi, lo[i : i + step], out=lens[i : i + step])
    counts = lens.sum(axis=(1, 2))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    lo, lens = lo.reshape(n, layout.size), lens.reshape(n, layout.size)
    # Queries in blocks of about _IDS_BLOCK ids, so the gather's index
    # temporaries stay in cache: 540 queries of ~1000 ids each (BOOKS-15k,
    # m = 16, 2 cores) took 1.7 ms so and 6.2 ms in one block.
    block = offsets[1:] // _IDS_BLOCK
    cuts = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
    for i, j in zip([0] + cuts, cuts + [n]):
        first, total = int(offsets[i]), int(offsets[j] - offsets[i])
        run_lens = lens[i:j].ravel()
        at = np.cumsum(run_lens) - run_lens
        rows = np.repeat(lo[i:j].ravel() - at, run_lens)
        rows += np.arange(total)
        ids.take(rows, out=flat[first : first + total])
    return BatchResult(counts, flat, offsets)


def fold_batch(
    index: HintIndex, batch: QueryBatch, mode: str, ob=None
) -> BatchResult:
    """Answer *batch* from the index's prefix folds and id runs.

    Every row of this index covers its partition whole
    (:meth:`HintIndex.fold` says why), so no comparison is owed.  A
    count reads two fold entries per occupied level, ``O[l + 1]`` and
    ``D[f]``: one ``(levels x queries)`` gather each, summed (XORed for
    a checksum) over the levels.  Ids are four row runs per occupied
    level gathered in one go (:func:`_gather_ids`).  No cut, no masked
    range and no start order: the batch is answered in caller order.
    With *ob* set the same computation runs and every level is reported
    (``record_level``), empty ones included, as the access traces expect.
    """
    _, q_st, q_end = _prepare(index, batch, sort=False)
    if ob is not None:
        _record_levels(index, q_st, q_end, ob)
    if mode == "ids":
        # Into caller order first, so the flat ids are written in it.
        caller = np.empty((2, len(batch)), dtype=np.int64)
        caller[:, batch.order] = q_st, q_end
        return _gather_ids(index, *caller)
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
    partition's sorted arrays.  On this index the sharing is total:
    every row covers its partition whole, so no probe is owed at all,
    and a level costs the whole batch two gathers from the index's
    prefix folds (count, checksum) or four row runs per query gathered
    at once (ids) — :func:`fold_batch`.

    The ``sort`` flag is accepted for registry symmetry; without a
    probe there is nothing start order could share, so the batch is
    answered in its own order either way.  Passing ``sort=False`` with
    an unsorted batch still warns, as Algorithm 4 asks for start order.
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
    if mode not in ("count", "checksum", "ids"):
        raise ValueError(
            f"unknown result mode {mode!r}; expected 'count', 'ids' or 'checksum'"
        )
    return fold_batch(index, batch, mode, ob)


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
