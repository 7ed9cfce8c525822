"""Batch results.

A strategy's output for a batch ``Q`` is one result set per query.  Two
materialization modes are supported, mirroring how interval-index papers
report measurements:

* ``"count"`` — only the per-query result cardinalities.  The fastest
  mode: comparison-free ranges cost O(1), so timing reflects pure index
  traversal.
* ``"checksum"`` — cardinalities plus an XOR over each query's result
  ids.  Output-sensitive (every result id is touched) yet
  allocation-free — the consumption model of the HINT C++ evaluations,
  and the default of the experiment harness.
* ``"ids"`` — every query's result ids, stored the way the index stores
  a subdivision: one flat ``int64`` array plus ``n + 1`` offsets, query
  ``i`` owning ``flat_ids[offsets[i]:offsets[i + 1]]``.

Whatever a strategy does internally (sorting the batch, reordering
partition visits), a :class:`BatchResult` always presents results in the
caller's original batch order.  :meth:`BatchResult.merge` is the one
routine that gets them there: every collector, chunk stitch, shard merge,
split-plan merge and cache assembly hands it contributions at positions
and receives the caller-order result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import ops

__all__ = ["BatchResult", "MODES"]

MODES = ("count", "checksum", "ids")

_EMPTY = np.empty(0, dtype=np.int64)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(
            f"unknown result mode {mode!r}; expected one of {MODES}"
        )


def _flatten(arrays: Sequence[np.ndarray]):
    """``(counts, flat_ids, offsets)`` of one id array per query."""
    counts = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.concatenate(arrays) if len(arrays) else _EMPTY
    return counts, flat.astype(np.int64, copy=False), offsets


class BatchResult:
    """Per-query results of one strategy execution over a batch."""

    __slots__ = ("_counts", "_flat", "_offsets", "_checksums")

    def __init__(
        self,
        counts: np.ndarray,
        flat_ids: Optional[np.ndarray] = None,
        offsets: Optional[np.ndarray] = None,
        *,
        checksums: Optional[np.ndarray] = None,
    ):
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if checksums is not None:
            checksums = np.ascontiguousarray(checksums, dtype=np.int64)
            if checksums.size != counts.size:
                raise ValueError("checksums must have one entry per query")
        if offsets is None and isinstance(flat_ids, (list, tuple)):
            # One array per query, as callers outside this package still
            # build results: flattened here, validated like any other.
            _, flat_ids, offsets = _flatten(flat_ids)
        if (flat_ids is None) != (offsets is None):
            raise ValueError("ids results need flat_ids and offsets together")
        if flat_ids is not None:
            flat_ids = np.ascontiguousarray(flat_ids, dtype=np.int64)
            offsets = np.ascontiguousarray(offsets, dtype=np.int64)
            if (
                flat_ids.ndim != 1
                or offsets.shape != (counts.size + 1,)
                or offsets[0] != 0
                or offsets[-1] != flat_ids.size
                or not np.array_equal(np.diff(offsets), counts)
                or (counts < 0).any()
            ):
                raise ValueError(
                    "offsets must start at 0, end at flat_ids.size and step "
                    "by counts (one non-negative count per query)"
                )
        self._counts = counts
        self._flat = flat_ids
        self._offsets = offsets
        self._checksums = checksums

    # ------------------------------------------------------------------ #

    @property
    def mode(self) -> str:
        if self._flat is not None:
            return "ids"
        if self._checksums is not None:
            return "checksum"
        return "count"

    @property
    def counts(self) -> np.ndarray:
        """Result cardinality per query, in original batch order."""
        return self._counts

    @property
    def checksums(self) -> Optional[np.ndarray]:
        """Per-query XOR checksums (``None`` unless checksum mode)."""
        return self._checksums

    @property
    def flat_ids(self) -> Optional[np.ndarray]:
        """All result ids, query after query (``None`` unless ids mode)."""
        return self._flat

    @property
    def offsets(self) -> Optional[np.ndarray]:
        """``n + 1`` cuts of :attr:`flat_ids` (``None`` unless ids mode)."""
        return self._offsets

    def __len__(self) -> int:
        return int(self._counts.size)

    def total(self) -> int:
        """Total number of reported (query, interval) result pairs."""
        return int(self._counts.sum())

    def _require_ids(self) -> None:
        if self._flat is None:
            raise ValueError("results were collected in count-only mode")

    def ids(self, query: int) -> np.ndarray:
        """Result ids of one query, a view of :attr:`flat_ids` (requires
        ``mode == "ids"``)."""
        self._require_ids()
        return self._flat[self._offsets[query] : self._offsets[query + 1]]

    def query_checksum(self, query: int) -> int:
        """XOR of one query's result ids (checksum or ids mode)."""
        if self._checksums is not None:
            return int(self._checksums[query])
        arr = self.ids(query)
        return int(np.bitwise_xor.reduce(arr)) if arr.size else 0

    def id_sets(self) -> List[frozenset]:
        """Per-query results as frozensets (test/validation helper)."""
        self._require_ids()
        ids = self._flat.tolist()
        cuts = self._offsets.tolist()
        return [frozenset(ids[a:b]) for a, b in zip(cuts, cuts[1:])]

    def _query_of_id(self) -> np.ndarray:
        """The query number of every entry of :attr:`flat_ids`."""
        return np.repeat(np.arange(len(self)), self._counts)

    def checksum(self) -> int:
        """Order-independent checksum over all (query, id) result pairs.

        Useful for comparing strategies cheaply in benchmarks: equal
        result sets yield equal checksums regardless of reporting order.
        """
        if not len(self):
            return 0
        if self._flat is None:
            # Counts-only: fall back to a checksum of the counts vector.
            return int(np.bitwise_xor.reduce(
                (self._counts + 0x9E3779B9) * np.arange(1, len(self) + 1)
            ))
        if not self._flat.size:
            return 0
        weighted = (self._flat.astype(np.uint64) + np.uint64(1)) * (
            self._query_of_id().astype(np.uint64) + np.uint64(1)
        )
        nonempty = np.flatnonzero(self._counts)
        per_query = np.add.reduceat(weighted, self._offsets[nonempty])
        return int(np.bitwise_xor.reduce(per_query))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BatchResult):
            return NotImplemented
        if self.mode != other.mode:
            return False
        if not np.array_equal(self._counts, other._counts):
            return False
        if self._checksums is not None and not np.array_equal(
            self._checksums, other._checksums
        ):
            return False
        if self._flat is None:
            return True
        # Equal counts: both flats cut alike, so sorting each by (query,
        # id) compares every query's ids as a multiset.
        query = self._query_of_id()
        return np.array_equal(
            self._flat[np.lexsort((self._flat, query))],
            other._flat[np.lexsort((other._flat, query))],
        )

    def __repr__(self) -> str:
        return (
            f"BatchResult(queries={len(self)}, mode={self.mode!r}, "
            f"total={self.total()})"
        )

    def take(self, queries: np.ndarray) -> "BatchResult":
        """The sub-result of *queries* (an index array), in that order."""
        counts = self._counts[queries]
        if self._flat is None:
            if self._checksums is None:
                return BatchResult(counts)
            return BatchResult(counts, checksums=self._checksums[queries])
        cuts = self._offsets
        ids = (self._flat, cuts[queries], cuts[queries + 1])
        return BatchResult.merge(
            len(queries), "ids", [(np.arange(len(queries)), counts, None, ids)]
        )

    # ------------------------------------------------------------------ #
    # the one merge
    # ------------------------------------------------------------------ #

    def as_part(self, positions: np.ndarray) -> tuple:
        """This result as one :meth:`merge` contribution: query ``k`` of
        it answers position ``positions[k]``."""
        ids = None if self._flat is None else (self._flat, self._offsets, None)
        return positions, self._counts, self._checksums, ids

    @classmethod
    def merge(
        cls,
        n: int,
        mode: str,
        parts: Sequence[Tuple],
        order: Optional[np.ndarray] = None,
    ) -> "BatchResult":
        """Assemble the *n*-query result of *mode* from contributions.

        Each part is ``(positions, counts, checksums, ids)``: its ``k``-th
        entry contributes to the query at ``positions[k]`` (an ``int64``
        array without repeats).  Counts add and checksums XOR across
        parts.  In ids mode every id is written once, at its final offset,
        and ``ids`` says where entry ``k`` reads them from:
        ``(src, lo, hi)`` — ``src[lo[k]:hi[k]]``; ``(src, offsets, None)`` —
        the same when the entries tile ``src``; ``(arrays, None, None)`` —
        ``arrays[k]``, an array of its own (what a store of per-query
        answers holds).  The first two carry their lengths, so their
        ``counts`` is ignored, as are the fields *mode* does not
        materialize.

        Positions index the sequence the contributors worked in; *order*
        maps it to caller order (``order[pos]`` is the caller's index, as
        :attr:`QueryBatch.order`), ``None`` when they already agree.
        """
        _check_mode(mode)
        counts = np.zeros(n, dtype=np.int64)
        sums = np.zeros(n, dtype=np.int64) if mode == "checksum" else None
        for positions, part_counts, part_sums, ids in parts:
            if mode == "ids":
                _, lo, hi = ids
                if lo is not None:
                    part_counts = np.diff(lo) if hi is None else hi - lo
            counts[positions] += part_counts
            if sums is not None:
                sums[positions] ^= part_sums
        if order is not None:
            counts = _to_caller_order(counts, order)
        if mode == "count":
            return cls(counts)
        if mode == "checksum":
            if order is not None:
                sums = _to_caller_order(sums, order)
            return cls(counts, checksums=sums)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        # Where each position writes next; the scatters advance it.
        cursors = offsets[:-1].copy() if order is None else offsets[order]
        for positions, part_counts, _, (src, lo, hi) in parts:
            if lo is None:
                starts = cursors[positions]
                cursors[positions] = starts + part_counts
                for array, start in zip(src, starts.tolist()):
                    flat[start : start + array.size] = array
            elif hi is None:
                ops.scatter_segments(src, lo, positions, flat, cursors)
            else:
                ops.scatter_ranges(src, lo, hi, positions, flat, cursors)
        return cls(counts, flat, offsets)

    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, mode: str = "count") -> "BatchResult":
        """A zero-query result whose :attr:`mode` matches *mode*.

        Callers that short-circuit on an empty batch must still hand
        back a result of the requested mode — dispatchers downstream
        (the service accumulator, differential harnesses) branch on
        ``result.mode``.
        """
        return cls.merge(0, mode, ())

    @classmethod
    def from_id_lists(cls, lists: Sequence[Sequence[int]]) -> "BatchResult":
        """Build a full (ids-mode) result from plain Python lists."""
        return cls.from_id_arrays(
            [np.asarray(lst, dtype=np.int64) for lst in lists], "ids"
        )

    @classmethod
    def from_id_arrays(
        cls, ids: Sequence[np.ndarray], mode: str
    ) -> "BatchResult":
        """Build a result in any *mode* from per-query id arrays.

        Convenience for serial baselines that always materialize ids
        and only need to present them in the requested mode.
        """
        _check_mode(mode)
        counts, flat, offsets = _flatten(ids)
        if mode == "count":
            return cls(counts)
        if mode == "ids":
            return cls(counts, flat, offsets)
        return cls(counts, checksums=ops.xor_segments(flat, offsets))


def _to_caller_order(column: np.ndarray, order: np.ndarray) -> np.ndarray:
    out = np.empty_like(column)
    out[order] = column
    return out
