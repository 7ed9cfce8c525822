"""The result tier: a columnar store of per-query id answers, run a batch at a time.

Only ids batches are cached (count and checksum answers cost less to
recompute than to look up; see :class:`~repro.cache.executor.CachingExecutor`).
Entries are keyed by the *normalized* query — endpoints clipped into the
backend's domain, exactly the normalization every index applies before
probing.  The strategy name is deliberately **not** part of the key: the
repository-wide differential contract (``tests/test_differential.py``)
guarantees every strategy returns identical answers, so a result cached
under one strategy is valid for all of them.

Layout: entries are rows of parallel NumPy columns (key hash, key start,
key end, id count, payload bytes — zero in a free row —, last-used batch
stamp, and an object column holding each entry's id array), found
through a direct-mapped index of row numbers that a multiplicative hash
of the key addresses.  A whole batch is probed, read or filled by a
handful of array operations; the one per-entry step is the copy that
makes an entry own its bytes.
Two keys on one index slot do not chain:
the later one displaces the earlier (counted as an eviction), which is
kept rare by giving the index :data:`INDEX_SLOTS_PER_ROW` slots per row.
Rows and index double together as the entries need them.

Residency is bounded in **bytes** (the id payloads dominate, so an entry
count alone would under-control memory) with an optional entry bound on
top, enforced once per :meth:`ResultCache.fill` by dropping the entries
whose stamps are oldest — LRU at batch granularity.  The cache itself is a
dumb store — all invalidation logic lives in
:class:`~repro.cache.executor.CachingExecutor`, which knows when its
backend mutated.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Tuple

import numpy as np

__all__ = ["ResultCache"]

#: Fixed per-entry residency estimate (a row of every column plus its
#: share of the index); the id payload's bytes are added on top.
ENTRY_OVERHEAD_BYTES = 96
#: Index slots per row: a new key finds its slot taken about one time in
#: twenty, at four bytes a slot.
INDEX_SLOTS_PER_ROW = 16

#: column -> (dtype, value in a free row); a live row's ``_nbytes`` is
#: at least ENTRY_OVERHEAD_BYTES, so ``_nbytes > 0`` marks the live rows.
_COLUMNS = {
    "_hash": (np.uint64, 0), "_st": (np.int64, 0), "_end": (np.int64, 0),
    "_count": (np.int64, 0), "_nbytes": (np.int64, 0), "_stamp": (np.int64, 0),
    "_ids": (object, None),
}
_MIN_ROWS = 64
_MIX_ST = np.uint64(0x9E3779B97F4A7C15)
_MIX_END = np.uint64(0xC2B2AE3D27D4EB4F)
_HALF = np.uint64(32)


def _key_hash(st: np.ndarray, end: np.ndarray) -> np.ndarray:
    h = st.view(np.uint64) * _MIX_ST + end.view(np.uint64) * _MIX_END
    h ^= h >> _HALF
    h *= _MIX_ST
    return h


class ResultCache:
    """Hashed map ``(st, end) -> ids`` with a byte budget.

    One batch is one :meth:`lookup` (which starts a new stamp), one
    :meth:`payloads` for the hits and one :meth:`fill` for the answers of
    the misses.  Rows returned by :meth:`lookup` are valid until the next
    :meth:`fill`, budget change or invalidation.

    Parameters
    ----------
    max_bytes:
        Residency budget; the least recently used entries are evicted
        while the accounted total exceeds it.
    max_entries:
        Optional additional bound on the entry count.
    """

    def __init__(self, max_bytes: int = 64 << 20, max_entries: Optional[int] = None):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.max_bytes = int(max_bytes)
        self.max_entries = None if max_entries is None else int(max_entries)
        self.evictions = 0
        self._clock = 0
        self._reset()

    def _reset(self) -> None:
        """The empty store at its smallest size."""
        for name, (dtype, _) in _COLUMNS.items():
            setattr(self, name, np.empty(0, dtype=dtype))
        self._free = np.empty(0, dtype=np.intp)
        self._nfree = 0
        self._entries = 0
        self._bytes = 0
        # (stamp, rows) per lookup and fill, oldest first: where to find
        # the least recently used entries without scanning the columns.
        self._log: deque = deque()
        self._logged = 0
        self._resize(_MIN_ROWS)

    def _resize(self, rows: int) -> None:
        """Extend every column to *rows* (a power of two) and re-index."""
        old = self._nbytes.size
        for name, (dtype, free) in _COLUMNS.items():
            column = np.full(rows, free, dtype=dtype)
            column[:old] = getattr(self, name)
            setattr(self, name, column)
        self._owner = np.zeros(rows, dtype=np.intp)  # scratch of lookup()
        free = np.empty(rows, dtype=np.intp)  # a stack of the free rows
        free[: self._nfree] = self._free[: self._nfree]
        free[self._nfree : self._nfree + rows - old] = np.arange(old, rows)
        self._free = free
        self._nfree += rows - old
        slots = rows * INDEX_SLOTS_PER_ROW
        self._shift = np.uint64(65 - slots.bit_length())
        self._index = np.full(slots, -1, dtype=np.int32)
        live = np.flatnonzero(self._nbytes)
        # The slot is the hash's top bits, so doubling the index splits a
        # slot's keys and never puts two entries on one.
        self._index[self._slots(self._hash[live])] = live

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._entries

    @property
    def bytes_resident(self) -> int:
        return self._bytes

    def _slots(self, h: np.ndarray) -> np.ndarray:
        return (h >> self._shift).astype(np.intp)

    def lookup(self, st: np.ndarray, end: np.ndarray) -> np.ndarray:
        """The row holding each key of a batch, ``-1`` where absent.

        Starts the batch's stamp and marks every hit as used in it.
        """
        self._clock += 1
        rows = self._index[self._slots(_key_hash(st, end))]
        hit = (rows >= 0) & (self._st[rows] == st) & (self._end[rows] == end)
        found = rows[hit]
        if found.size:
            # A batch can hit one entry twice; log its last use once.
            rank = np.arange(found.size)
            self._owner[found] = rank
            self._used(found[self._owner[found] == rank])
        return np.where(hit, rows, -1)

    def payloads(self, rows: np.ndarray):
        """``(counts, None, ids)`` of occupied *rows*, shaped like an ids
        :meth:`BatchResult.merge <repro.core.result.BatchResult.merge>`
        part: ids are ``(the entries' own arrays, None, None)``, to be
        copied from, not kept."""
        return self._count[rows], None, (self._ids[rows], None, None)

    def fill(self, st, end, counts, ids) -> None:
        """Store one answer per key, then enforce the budgets.

        The keys are those :meth:`lookup` reported absent, each once;
        *ids* is an object array of one ``int64`` array per key.  An entry
        keeps an array that owns its bytes and copies one that is a view,
        so no entry keeps a batch's flat array alive and
        ``bytes_resident`` bounds what the store really holds.
        """
        n = len(st)
        if not n:
            return
        if self._nfree < n:
            self._resize(1 << (self._nbytes.size - self._nfree + n - 1).bit_length())
        h = _key_hash(st, end)
        slots = self._slots(h)
        held = self._index[slots]
        rank = np.arange(n, dtype=np.int32)
        self._index[slots] = rank  # of two keys on one slot the later stays
        won = self._index[slots] == rank
        if not won.all():
            slots, held, h, st, end, counts, ids = (
                a[won] for a in (slots, held, h, st, end, counts, ids)
            )
        self._nfree -= slots.size
        # A copy: releasing the displaced rows below rewrites this stretch
        # of the stack.
        rows = self._free[self._nfree : self._nfree + slots.size].copy()
        self._index[slots] = rows
        displaced = held[held >= 0]
        self.evictions += n - rows.size + int(displaced.size)
        self._release(displaced)
        nbytes = ENTRY_OVERHEAD_BYTES + 8 * counts  # ids are int64 arrays
        owned = (a if a.base is None else a.copy() for a in ids)
        self._ids[rows] = np.fromiter(owned, dtype=object, count=rows.size)
        self._hash[rows] = h
        self._st[rows] = st
        self._end[rows] = end
        self._count[rows] = counts
        self._nbytes[rows] = nbytes
        self._entries += rows.size
        self._bytes += int(nbytes.sum())
        self._used(rows)
        self._enforce()

    def _release(self, rows: np.ndarray) -> None:
        """Free the *rows* of entries whose index slots the caller has dealt with."""
        self._bytes -= int(self._nbytes[rows].sum())
        self._entries -= int(rows.size)
        self._ids[rows] = None
        self._nbytes[rows] = 0
        self._stamp[rows] = 0  # no use-log record matches a free row
        self._free[self._nfree : self._nfree + rows.size] = rows
        self._nfree += int(rows.size)

    def _remove(self, rows: np.ndarray) -> None:
        self._index[self._slots(self._hash[rows])] = -1
        self._release(rows)

    def _used(self, rows: np.ndarray) -> None:
        """Log that *rows* were last used in the current batch."""
        self._stamp[rows] = self._clock
        self._log.append((self._clock, rows))
        self._logged += rows.size
        if self._logged > 4 * self._nbytes.size:
            # Mostly stale by now: rebuild from the stamps, one record per
            # stamp, oldest first.
            live = np.flatnonzero(self._nbytes)
            stamps = self._stamp[live]
            order = np.argsort(stamps, kind="stable")
            live, stamps = live[order], stamps[order]
            runs = np.split(live, np.flatnonzero(stamps[1:] != stamps[:-1]) + 1)
            self._log = deque((int(self._stamp[run[0]]), run) for run in runs if run.size)
            self._logged = int(live.size)

    def reserve(self, id_counts: np.ndarray) -> None:
        """Evict, least recently used first, until entries of
        *id_counts* ids each fit the byte budget (or nothing is left):
        what their :meth:`fill` would evict anyway, done before their
        payloads are allocated, so they reuse the memory this frees
        instead of splitting the holes the batch's large arrays leave
        behind."""
        self._enforce(8 * int(id_counts.sum()) + ENTRY_OVERHEAD_BYTES * id_counts.size)

    def _enforce(self, reserve: int = 0) -> None:
        """Drop the least recently used entries until both budgets hold
        with *reserve* bytes to spare.

        The log's oldest record names the candidates, so a batch pays for
        the entries it evicts, not for a scan of the columns.
        """
        limit = self._entries if self.max_entries is None else self.max_entries
        ceiling = self.max_bytes - reserve
        while self._entries and (self._bytes > ceiling or self._entries > limit):
            stamp, rows = self._log.popleft()
            self._logged -= rows.size
            rows = rows[self._stamp[rows] == stamp]  # not used, displaced or dropped since
            over = self._bytes - ceiling
            freed = np.cumsum(self._nbytes[rows])
            by_bytes = int(np.searchsorted(freed, over)) + 1 if over > 0 else 0
            drop = max(by_bytes, self._entries - limit)
            victims, rest = rows[:drop], rows[drop:]
            if rest.size:
                self._log.appendleft((stamp, rest))
                self._logged += rest.size
            self.evictions += int(victims.size)
            self._remove(victims)

    def set_budget(
        self, max_bytes: Optional[int] = None, max_entries: Optional[int] = None
    ) -> None:
        """Shrink/grow the budgets; shrinking evicts immediately."""
        if max_bytes is not None:
            if max_bytes < 1:
                raise ValueError("max_bytes must be positive")
            self.max_bytes = int(max_bytes)
        if max_entries is not None:
            if max_entries < 1:
                raise ValueError("max_entries must be positive")
            self.max_entries = int(max_entries)
        self._enforce()

    # ------------------------------------------------------------------ #
    # invalidation primitives (driven by the executor)
    # ------------------------------------------------------------------ #

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        dropped = self._entries
        self._reset()
        return dropped

    def drop_overlapping(self, regions: Iterable[Tuple[int, int]]) -> int:
        """Drop entries whose query range G-overlaps any ``(lo, hi)``.

        A mutated interval ``[lo, hi]`` can only change the answer of
        queries overlapping it, so everything else stays valid — the
        selective-invalidation rule :class:`CachingExecutor` applies for
        mutation deltas it can attribute.
        """
        spans = np.array(list(regions), dtype=np.int64).reshape(-1, 2)
        if not spans.size or not self._entries:
            return 0
        # With the regions in lo order, those starting at or before a key's
        # end are a prefix; one of them reaches the key's start iff the
        # furthest-reaching of that prefix does.
        spans = spans[np.argsort(spans[:, 0])]
        reach = np.maximum.accumulate(spans[:, 1])
        live = np.flatnonzero(self._nbytes)
        prefix = np.searchsorted(spans[:, 0], self._end[live], side="right")
        doomed = live[(prefix > 0) & (reach[prefix - 1] >= self._st[live])]
        self._remove(doomed)
        return int(doomed.size)
