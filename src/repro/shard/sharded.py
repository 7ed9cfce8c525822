"""Domain-range sharded HINT execution.

:class:`ShardedHint` splits the domain ``[0, 2**m - 1]`` into ``k``
contiguous sub-domains at high-order prefix cuts and backs each with its
own :class:`~repro.hint.index.HintIndex`, built over a **locally
re-normalized** domain (a shard of width ``w`` only needs
``ceil(log2(w))`` levels, so ``k = 4`` shaves two levels off every
query's traversal before any thread runs).

Exactness of the merge
----------------------

Fanning a query out to several shards and merging with plain sums /
concatenations / XORs is only correct if every matching interval is
reported by **exactly one** shard.  The layout guarantees it with the
originals/replicas split the grid index already uses, lifted to shards:

* an interval's **original** placement lives in the shard containing its
  start point (endpoints clipped into the shard range, so the shard's
  local HINT domain covers it);
* every later shard the interval reaches holds a **replica** — not in
  the shard's HINT index, but in a side structure of ``(end, id)``
  pairs sorted by global end.

A query spanning shards ``f .. l`` probes shard ``f``'s HINT index
*and* its replica table; in shards ``f+1 .. l`` it enters from the left
boundary, so locally it is the *prefix* query ``[0, e]`` — which
matches exactly the originals with ``st <= e`` (their ends cannot be
below their starts, so the other overlap test is vacuous).  Those
fan-out probes therefore never touch a HINT index either: each shard
keeps its originals sorted by start (with a prefix-XOR of the ids), and
a whole sub-batch of spills resolves with one ``searchsorted`` plus one
gather — mirroring the suffix trick on the end-sorted replica table
(``end >= q.st`` selects a suffix) used at shard ``f``.  No interval
can match in two places, so counts sum, id arrays concatenate and
checksums XOR.

Routing costs two ``searchsorted`` calls against the cut points for the
whole sorted batch; each shard's *primary* queries (those starting in
it) form one contiguous slice of the sorted batch, so the only HINT
traversals are one clipped sub-batch per shard over its shallower,
re-normalized local domain.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence, Union

import numpy as np

import repro.obs as obs
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES, run_strategy
from repro.hint.index import HintIndex
from repro.hint.model import choose_m
from repro.intervals.batch import QueryBatch
from repro.intervals.collection import IntervalCollection

__all__ = ["ShardedHint"]

#: Boundary policies accepted by :class:`ShardedHint`.
BOUNDARY_POLICIES = ("equal", "balanced")


def equal_cuts(m: int, k: int) -> np.ndarray:
    """``k + 1`` equally spaced cut points over ``[0, 2**m]``.

    For power-of-two ``k`` these are exact high-order prefix cuts of the
    HINT domain (shard ``j`` is the set of keys whose top ``log2(k)``
    bits equal ``j``).
    """
    if k < 1:
        raise ValueError("k must be positive")
    span = 1 << m
    if k > span:
        raise ValueError(f"cannot cut a domain of {span} keys into {k} shards")
    return np.round(np.linspace(0, span, k + 1)).astype(np.int64)


def balanced_cuts(collection: IntervalCollection, m: int, k: int) -> np.ndarray:
    """Cut points putting ~equal numbers of interval *starts* per shard.

    Skewed collections concentrate placements in a few equal-width
    shards; quantile cuts of the start endpoints re-balance the build
    (and the primary-query load of data-following workloads).  Falls
    back toward :func:`equal_cuts` where quantiles collide.
    """
    base = equal_cuts(m, k)
    if len(collection) == 0 or k == 1:
        return base
    starts = np.sort(collection.st)
    positions = (np.arange(1, k) * starts.size) // k
    interior = np.clip(starts[positions], 1, (1 << m) - 1)
    cuts = np.unique(np.concatenate(([0], interior, [1 << m])))
    if cuts.size < k + 1:
        # Quantiles collided (heavily duplicated starts); top up with
        # unused equal cuts so exactly k shards come out.
        spare = np.setdiff1d(base, cuts)
        cuts = np.sort(np.concatenate([cuts, spare[: k + 1 - cuts.size]]))
    if cuts.size != k + 1:
        return base
    return cuts.astype(np.int64)


class _Shard:
    """One sub-domain: its HINT index plus the replica side table."""

    __slots__ = (
        "lo",
        "hi",
        "index",
        "rep_end",
        "rep_ids",
        "rep_xor_suffix",
        "orig_st",
        "orig_ids",
        "orig_xor_prefix",
    )

    @classmethod
    def from_arrays(
        cls,
        lo: int,
        hi: int,
        index: HintIndex,
        rep_end: np.ndarray,
        rep_ids: np.ndarray,
        rep_xor_suffix: np.ndarray,
        orig_st: np.ndarray,
        orig_ids: np.ndarray,
        orig_xor_prefix: np.ndarray,
    ) -> "_Shard":
        """Assemble a shard from prebuilt side tables without copying.

        Reconstruction path (shared-memory attach, future re-sharding):
        the caller supplies the derived arrays instead of having
        ``__init__`` recompute them from ``index.as_collection()``,
        which would allocate fresh copies and defeat zero-copy sharing.
        """
        shard = cls.__new__(cls)
        shard.lo = int(lo)
        shard.hi = int(hi)
        shard.index = index
        shard.rep_end = rep_end
        shard.rep_ids = rep_ids
        shard.rep_xor_suffix = rep_xor_suffix
        shard.orig_st = orig_st
        shard.orig_ids = orig_ids
        shard.orig_xor_prefix = orig_xor_prefix
        return shard

    def __init__(
        self,
        lo: int,
        hi: int,
        index: HintIndex,
        rep_end: np.ndarray,
        rep_ids: np.ndarray,
    ):
        self.lo = int(lo)
        self.hi = int(hi)
        self.index = index
        self.rep_end = rep_end
        self.rep_ids = rep_ids
        # rep_xor_suffix[t] == XOR of rep_ids[t:] — turns the checksum
        # of any replica suffix into one gather.
        sx = np.zeros(rep_ids.size + 1, dtype=np.int64)
        if rep_ids.size:
            sx[:-1] = np.bitwise_xor.accumulate(rep_ids[::-1])[::-1]
        self.rep_xor_suffix = sx
        # A fanned-out (spill) query reaches this shard from the left,
        # so in local coordinates it is the prefix query ``[0, e]`` —
        # which matches exactly the originals with ``st <= e``.  Keeping
        # the originals sorted by start (ids plus a prefix-XOR) turns
        # every spill probe into one ``searchsorted`` and one gather;
        # the HINT index is only ever traversed for primary queries.
        local = index.as_collection()
        order = np.argsort(local.st, kind="stable")
        self.orig_st = np.ascontiguousarray(local.st[order])
        self.orig_ids = np.ascontiguousarray(local.ids[order])
        px = np.zeros(self.orig_ids.size + 1, dtype=np.int64)
        if self.orig_ids.size:
            np.bitwise_xor.accumulate(self.orig_ids, out=px[1:])
        self.orig_xor_prefix = px

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def nbytes(self) -> int:
        return (
            self.index.nbytes()
            + self.rep_end.nbytes
            + self.rep_ids.nbytes
            + self.rep_xor_suffix.nbytes
            + self.orig_st.nbytes
            + self.orig_ids.nbytes
            + self.orig_xor_prefix.nbytes
        )


class ShardedHint:
    """``k`` contiguous domain shards, each its own HINT index.

    Parameters
    ----------
    collection:
        The input interval collection ``S`` (endpoints must fit the
        domain, exactly as for :class:`~repro.hint.index.HintIndex`).
    k:
        Number of shards.
    m:
        Bits of the *global* domain; chosen with
        :func:`repro.hint.model.choose_m` when omitted.  Each shard
        re-normalizes its sub-range, so per-shard indexes use
        ``ceil(log2(width))`` bits — smaller, shallower, faster.
    boundaries:
        ``"equal"`` (default — equal-width prefix cuts),
        ``"balanced"`` (quantile cuts of the start endpoints), or an
        explicit sequence of ``k + 1`` strictly increasing cut points
        starting at 0 and ending at ``2**m``.
    storage_optimized, debug_checks:
        Forwarded to every per-shard :class:`HintIndex`; with
        ``debug_checks`` the sharded routing invariants
        (:func:`repro.verify.verify_index`) are validated after the
        build as well.

    Examples
    --------
    >>> from repro import IntervalCollection
    >>> from repro.shard import ShardedHint
    >>> coll = IntervalCollection.from_pairs([(2, 5), (4, 11), (12, 15)])
    >>> sharded = ShardedHint(coll, k=2, m=4)
    >>> sharded.execute_counts = sharded.execute  # doctest helper alias
    >>> list(sharded.execute(__import__("repro").QueryBatch([3], [13])).counts)
    [3]
    """

    def __init__(
        self,
        collection: IntervalCollection,
        k: int = 4,
        *,
        m: Optional[int] = None,
        boundaries: Union[str, Sequence[int]] = "equal",
        storage_optimized: bool = True,
        debug_checks: bool = False,
    ):
        if k < 1:
            raise ValueError("k must be positive")
        if m is None:
            m = choose_m(collection)
        self.m = int(m)
        self.k = int(k)
        self.num_intervals = len(collection)
        self.storage_optimized = bool(storage_optimized)
        self.debug_checks = bool(debug_checks)
        self._domain_top = (1 << self.m) - 1
        if isinstance(boundaries, str):
            if boundaries not in BOUNDARY_POLICIES:
                raise ValueError(
                    f"unknown boundary policy {boundaries!r}; expected one "
                    f"of {BOUNDARY_POLICIES} or an explicit cut sequence"
                )
            cuts = (
                balanced_cuts(collection, self.m, k)
                if boundaries == "balanced"
                else equal_cuts(self.m, k)
            )
        else:
            cuts = np.asarray(boundaries, dtype=np.int64)
        self._validate_cuts(cuts)
        self.cuts = cuts
        self.shards: List[_Shard] = self._build(collection)
        if self.debug_checks:
            from repro.verify.invariants import verify_index

            verify_index(self, collection=collection)

    def _validate_cuts(self, cuts: np.ndarray) -> None:
        if cuts.ndim != 1 or cuts.size != self.k + 1:
            raise ValueError(
                f"boundaries must provide {self.k + 1} cut points, "
                f"got {cuts.size}"
            )
        if int(cuts[0]) != 0 or int(cuts[-1]) != 1 << self.m:
            raise ValueError(
                f"boundaries must start at 0 and end at 2**m = {1 << self.m}"
            )
        if np.any(np.diff(cuts) < 1):
            raise ValueError("boundaries must be strictly increasing")

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #

    def _build(self, collection: IntervalCollection) -> List[_Shard]:
        st, end, ids = collection.st, collection.end, collection.ids
        if st.size and (int(st.min()) < 0 or int(end.max()) > self._domain_top):
            raise ValueError(
                f"collection endpoints fall outside the domain "
                f"[0, {self._domain_top}]; normalize first"
            )
        first = self.shard_of(st)
        last = self.shard_of(end)
        shards: List[_Shard] = []
        for j in range(self.k):
            lo = int(self.cuts[j])
            hi = int(self.cuts[j + 1]) - 1
            osel = first == j
            local = IntervalCollection(
                st[osel] - lo,
                np.minimum(end[osel], hi) - lo,
                ids[osel],
                copy=False,
            )
            local_m = max((hi - lo).bit_length(), 0)
            if len(local):
                # The local HINT only has to cover the *occupied* range,
                # not the shard width: primary probes are clipped to the
                # local top at query time, which is exact because
                # ``top > max(end)`` keeps both overlap tests unchanged
                # (see ``_run_shard``).  On skewed data this drops
                # several levels from wide-but-sparse shards.
                local_m = min(local_m, (int(local.end.max()) + 1).bit_length())
            else:
                local_m = 0
            index = HintIndex(
                local,
                m=local_m,
                storage_optimized=self.storage_optimized,
                debug_checks=self.debug_checks,
            )
            rsel = (first < j) & (last >= j)
            rep_end = end[rsel]
            rep_ids = ids[rsel]
            order = np.argsort(rep_end, kind="stable")
            shards.append(
                _Shard(lo, hi, index, rep_end[order], rep_ids[order])
            )
        return shards

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def shard_of(self, x) -> np.ndarray:
        """Shard number(s) owning domain key(s) *x* (vectorized)."""
        return np.searchsorted(self.cuts, x, side="right") - 1

    @property
    def domain(self) -> tuple:
        """The closed global domain ``(0, 2**m - 1)``."""
        return (0, self._domain_top)

    @property
    def boundaries(self) -> np.ndarray:
        """The ``k + 1`` cut points (``boundaries[j]`` starts shard j)."""
        return self.cuts

    def __len__(self) -> int:
        return self.num_intervals

    def __repr__(self) -> str:
        return (
            f"ShardedHint(k={self.k}, m={self.m}, n={self.num_intervals}, "
            f"replicas={self.num_replicas()})"
        )

    def num_replicas(self) -> int:
        """Replica placements across all shards (boundary crossers)."""
        return sum(s.rep_ids.size for s in self.shards)

    def num_placements(self) -> int:
        """HINT placements plus replica entries across all shards."""
        return (
            sum(s.index.num_placements() for s in self.shards)
            + self.num_replicas()
        )

    def replication_factor(self) -> float:
        if self.num_intervals == 0:
            return 0.0
        return self.num_placements() / self.num_intervals

    def nbytes(self) -> int:
        return sum(s.nbytes() for s in self.shards)

    def precompute_aux(self) -> None:
        """Eagerly build every per-shard index's lazy auxiliary arrays.

        The shard side tables (replica/original XOR prefixes) are always
        materialized at build; this extends the same eagerness to the
        per-shard HINT tables' ``xor_prefix`` — called by checksum-heavy
        warm-up paths.
        """
        for shard in self.shards:
            shard.index.precompute_aux()

    @classmethod
    def from_shards(
        cls,
        shards: List[_Shard],
        *,
        m: int,
        cuts: np.ndarray,
        num_intervals: int,
        storage_optimized: bool = True,
    ) -> "ShardedHint":
        """Assemble an instance from prebuilt shards without rebuilding.

        Reconstruction path of persistence
        (:func:`~repro.shard.persist.load_sharded`) — no collection
        pass, no copies, cuts validated.
        """
        sharded = cls.__new__(cls)
        sharded.m = int(m)
        sharded.k = len(shards)
        sharded.num_intervals = int(num_intervals)
        sharded.storage_optimized = bool(storage_optimized)
        sharded.debug_checks = False
        sharded._domain_top = (1 << sharded.m) - 1
        sharded.cuts = np.asarray(cuts, dtype=np.int64)
        sharded._validate_cuts(sharded.cuts)
        sharded.shards = list(shards)
        return sharded

    def shard_histogram(self) -> dict:
        """Per shard: (originals, replicas) — where the data landed."""
        return {
            j: (len(s.index), int(s.rep_ids.size))
            for j, s in enumerate(self.shards)
        }

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        batch: QueryBatch,
        *,
        strategy: str = "partition-based",
        mode: str = "count",
        executor=None,
    ) -> BatchResult:
        """Evaluate *batch* across the shards; results in caller order.

        The surface mirrors :func:`~repro.core.strategies.run_strategy`
        — same strategy names, same result modes, same ordering contract
        — so a :class:`~repro.service.BatchingQueryService` can install
        a sharded backend through ``swap_index`` with zero call-site
        changes.  The shard jobs run on the calling thread unless the
        caller passes an *executor* (anything with ``map``; the engine
        passes its pool for the ``threads`` backend).
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
        ob = obs.active()
        if ob is None:
            return self._execute_inner(batch, strategy, mode, executor, None)
        with ob.span(
            "shard.execute", strategy=strategy, queries=n, mode=mode, k=self.k
        ):
            return self._execute_inner(batch, strategy, mode, executor, ob)

    def _route(self, batch: QueryBatch):
        """Sort and route *batch*: ``(work, q_st, q_end, jobs)``.

        ``jobs`` is one ``(j, j0, j1, spill)`` tuple per shard with any
        work: primary queries occupy the contiguous slice ``j0:j1`` of
        the sorted batch, ``spill`` indexes its boundary-spanning
        fan-ins.
        """
        work = batch.sorted_by_start()
        q_st = np.clip(work.st, 0, self._domain_top)
        q_end = np.clip(work.end, 0, self._domain_top)
        f_sh = self.shard_of(q_st)
        l_sh = self.shard_of(q_end)

        jobs = []
        for j in range(self.k):
            # The batch is sorted by start, so shard j's primary queries
            # are one contiguous slice — two searchsorted calls route
            # the entire batch.
            j0 = int(np.searchsorted(f_sh, j, side="left"))
            j1 = int(np.searchsorted(f_sh, j, side="right"))
            # Boundary-spanning queries fan out to every later shard
            # they reach (their first shard f < j <= their last shard l).
            spill = np.flatnonzero((f_sh[:j0] < j) & (l_sh[:j0] >= j))
            if j1 > j0 or spill.size:
                jobs.append((j, j0, j1, spill))
        return work, q_st, q_end, jobs

    def _primary_local_batch(self, j, j0, j1, q_st, q_end) -> QueryBatch:
        """Shard *j*'s primary slice clipped into its local domain.

        With local top > max(end) the clip is exact: an ``st <= q.end``
        test already true at the top stays true, and a clipped ``q.st``
        above every end still rejects everything.
        """
        shard = self.shards[j]
        ltop = (1 << shard.index.m) - 1
        return QueryBatch(
            np.minimum(q_st[j0:j1] - shard.lo, ltop),
            np.minimum(np.minimum(q_end[j0:j1], shard.hi) - shard.lo, ltop),
        )

    def _probe_replicas(self, j, j0, j1, q_st) -> Optional[np.ndarray]:
        """Replica-suffix cut per primary query of shard *j* (or None).

        Replicas cross the shard's lower boundary, so for a query
        starting here the only live test is ``s.end >= q.st`` — a
        suffix of the end-sorted table.
        """
        shard = self.shards[j]
        if not shard.rep_end.size:
            return None
        return np.searchsorted(shard.rep_end, q_st[j0:j1], side="left")

    def _probe_spills(self, j, spill, q_end) -> Optional[np.ndarray]:
        """Originals-prefix cut per fanned-in query of shard *j*.

        Fanned-out queries enter from the left boundary: locally they
        are prefix queries ``[0, e]``, matching exactly the originals
        with ``st <= e`` — one searchsorted against the start-sorted
        originals, no HINT traversal.
        """
        shard = self.shards[j]
        e_local = np.minimum(q_end[spill], shard.hi) - shard.lo
        return np.searchsorted(shard.orig_st, e_local, side="right")

    def _execute_inner(
        self, batch: QueryBatch, strategy: str, mode: str, executor, ob
    ) -> BatchResult:
        n = len(batch)
        work, q_st, q_end, jobs = self._route(batch)
        # Captured on the dispatching thread: shard sub-batches may run on
        # pool threads, outside this thread's trace scope and span
        # stack, so trace ids and the parent (the open `shard.execute`
        # span) ride into the closure explicitly.
        if ob is not None:
            trace_ids = ob.recorder.current_trace_ids()
            parent_id = ob.recorder.current_span_id()

        def run(job):
            j, j0, j1, spill = job
            if ob is None:
                return self._run_shard(
                    j, j0, j1, spill, q_st, q_end, strategy, mode
                )
            t0 = perf_counter()
            with ob.recorder.trace_scope(trace_ids, parent_id):
                out = self._run_shard(
                    j, j0, j1, spill, q_st, q_end, strategy, mode
                )
            ob.record_shard_batch(
                j, j1 - j0, int(spill.size), perf_counter() - t0,
                trace_ids=trace_ids, parent_id=parent_id,
            )
            return out

        if executor is None or len(jobs) <= 1:
            partials = [run(job) for job in jobs]
        else:
            partials = list(executor.map(run, jobs))

        return self._merge(partials, work, n, mode)

    def _run_shard(self, j, j0, j1, spill, q_st, q_end, strategy, mode):
        """Execute one shard's primary slice, replica probe and spills.

        May run on a worker thread; returns contributions only — all
        merging happens on the calling thread.
        """
        primary = rep_ks = sp_ks = None
        if j1 > j0:
            sub = self._primary_local_batch(j, j0, j1, q_st, q_end)
            primary = run_strategy(strategy, self.shards[j].index, sub, mode=mode)
            rep_ks = self._probe_replicas(j, j0, j1, q_st)
        if spill.size:
            sp_ks = self._probe_spills(j, spill, q_end)
        return (j, j0, j1, spill, primary, rep_ks, sp_ks)

    def _merge(self, partials, work, n, mode) -> BatchResult:
        """Per query: its primary answer, then the replica suffix of its
        first shard, then the originals prefix of every shard it spills
        into — all as :meth:`BatchResult.merge` contributions."""
        want_sums = mode == "checksum"
        want_ids = mode == "ids"
        parts = []
        for j, j0, j1, spill, primary, rep_ks, sp_ks in partials:
            shard = self.shards[j]
            positions = np.arange(j0, j1)
            if primary is not None:
                parts.append(primary.as_part(positions))
            if rep_ks is not None:
                size = shard.rep_ids.size
                parts.append((
                    positions,
                    size - rep_ks,
                    shard.rep_xor_suffix[rep_ks] if want_sums else None,
                    (shard.rep_ids, rep_ks, np.full(rep_ks.size, size))
                    if want_ids else None,
                ))
            if sp_ks is not None:
                parts.append((
                    spill,
                    sp_ks,
                    shard.orig_xor_prefix[sp_ks] if want_sums else None,
                    (shard.orig_ids, np.zeros_like(sp_ks), sp_ks)
                    if want_ids else None,
                ))
        return BatchResult.merge(n, mode, parts, work.order)

    # ------------------------------------------------------------------ #
    # single-query convenience (HintIndex-compatible surface)
    # ------------------------------------------------------------------ #

    def query(self, q_st: int, q_end: int) -> np.ndarray:
        """Ids of all intervals G-overlapping ``[q_st, q_end]``."""
        return self.execute(
            QueryBatch([q_st], [q_end]), mode="ids"
        ).ids(0)

    def query_count(self, q_st: int, q_end: int) -> int:
        """Number of intervals G-overlapping ``[q_st, q_end]``."""
        return int(self.execute(QueryBatch([q_st], [q_end])).counts[0])
