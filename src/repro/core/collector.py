"""Internal result sinks used by the production strategies.

A collector accumulates results at *sorted* batch positions while a
strategy runs, then restores the caller's original order when finalized.
Two concrete collectors match the two result modes; both expose the same
small API so strategy code is mode-agnostic:

``add_count(pos, n)``
    Register *n* results for the query at sorted position *pos*.
``add_slice(pos, table, lo, hi)``
    Register the id rows ``table.ids[lo:hi]``.
``add_ids(pos, ids)``
    Register an explicit id array (already filtered).
``add_counts_vec(positions, counts)``
    Vectorized bulk registration (partition-based fast path).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.result import BatchResult

__all__ = ["CountCollector", "IdCollector", "ChecksumCollector", "make_collector"]

_EMPTY = np.empty(0, dtype=np.int64)


class CountCollector:
    """Counts-only sink (benchmark mode)."""

    mode = "count"

    def __init__(self, n: int):
        self._counts = np.zeros(n, dtype=np.int64)

    def add_count(self, pos: int, n: int) -> None:
        self._counts[pos] += n

    def add_slice(self, pos: int, table, lo: int, hi: int) -> None:
        if hi > lo:
            self._counts[pos] += hi - lo

    def add_ids(self, pos: int, ids: np.ndarray) -> None:
        self._counts[pos] += ids.size

    def add_counts_vec(self, positions: np.ndarray, counts: np.ndarray) -> None:
        np.add.at(self._counts, positions, counts)

    def finalize(self, order: np.ndarray) -> BatchResult:
        part = (np.arange(order.size), self._counts, None, None)
        return BatchResult.merge(order.size, "count", [part], order)


class IdCollector:
    """Full-result sink: per-query id array fragments."""

    mode = "ids"

    def __init__(self, n: int):
        self._fragments: List[List[np.ndarray]] = [[] for _ in range(n)]

    def add_count(self, pos: int, n: int) -> None:  # pragma: no cover
        raise TypeError("IdCollector cannot accept bare counts")

    def add_slice(self, pos: int, table, lo: int, hi: int) -> None:
        if hi > lo:
            self._fragments[pos].append(table.ids[lo:hi])

    def add_ids(self, pos: int, ids: np.ndarray) -> None:
        if ids.size:
            self._fragments[pos].append(ids)

    def finalize(self, order: np.ndarray) -> BatchResult:
        # One C-level concatenate lays the fragments out position by
        # position; the merge moves them to caller order.
        n = len(self._fragments)
        offsets = np.zeros(n + 1, dtype=np.int64)
        sizes = (sum(map(len, frags)) for frags in self._fragments)
        np.cumsum(np.fromiter(sizes, np.int64, n), out=offsets[1:])
        flat = (
            np.concatenate([f for frags in self._fragments for f in frags])
            if offsets[-1]
            else _EMPTY
        )
        part = (np.arange(n), None, None, (flat, offsets, None))
        return BatchResult.merge(n, "ids", [part], order)


class ChecksumCollector:
    """XOR-checksum sink: touches every result id, allocates nothing.

    This mirrors how the HINT C++ evaluations consume results (an XOR
    over reported ids): timing stays sensitive to the result *volume*
    — unlike count mode, where comparison-free ranges cost O(1) — while
    avoiding materialization costs dominating the measurement.
    """

    mode = "checksum"

    def __init__(self, n: int):
        self._counts = np.zeros(n, dtype=np.int64)
        self._sums = np.zeros(n, dtype=np.int64)

    def add_count(self, pos: int, n: int) -> None:  # pragma: no cover
        raise TypeError("ChecksumCollector needs ids, not bare counts")

    def add_slice(self, pos: int, table, lo: int, hi: int) -> None:
        if hi > lo:
            self._counts[pos] += hi - lo
            xp = getattr(table, "xor_prefix", None)
            if xp is not None:
                self._sums[pos] ^= int(xp[hi] ^ xp[lo])
            else:
                self._sums[pos] ^= int(np.bitwise_xor.reduce(table.ids[lo:hi]))

    def add_ids(self, pos: int, ids: np.ndarray) -> None:
        if ids.size:
            self._counts[pos] += ids.size
            self._sums[pos] ^= int(np.bitwise_xor.reduce(ids))

    def finalize(self, order: np.ndarray) -> BatchResult:
        part = (np.arange(order.size), self._counts, self._sums, None)
        return BatchResult.merge(order.size, "checksum", [part], order)


def make_collector(mode: str, n: int):
    """Collector factory for result *mode*.

    Modes: ``"count"`` (cardinalities only), ``"ids"`` (full id arrays),
    ``"checksum"`` (cardinalities + XOR over ids — output-sensitive but
    allocation-free).
    """
    if mode == "count":
        return CountCollector(n)
    if mode == "ids":
        return IdCollector(n)
    if mode == "checksum":
        return ChecksumCollector(n)
    raise ValueError(
        f"unknown result mode {mode!r}; expected 'count', 'ids' or 'checksum'"
    )
