"""Answers are checked against ``repro.baselines.NaiveScan``.

Checks run before timing and on a sample of timed units, always outside
the timed calls.  Every mismatch counts as a failed operation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Oracle:
    """A linear scan over the collection the stack was built from."""

    def __init__(self, collection):
        from repro.baselines import NaiveScan

        self._scan = NaiveScan(collection)
        self.checked = 0
        self.mismatched = 0

    def expected(self, st: int, end: int, mode: str):
        if mode == "count":
            return self._scan.query_count(st, end)
        return np.sort(self._scan.query(st, end))

    def check_value(self, st: int, end: int, mode: str, got) -> bool:
        """Compare one answer (a count, or an id sequence in any order)."""
        want = self.expected(int(st), int(end), mode)
        if mode == "count":
            ok = int(got) == want
        else:
            ok = np.array_equal(np.sort(np.asarray(got, dtype=np.int64)), want)
        self.checked += 1
        self.mismatched += not ok
        return ok

    def check_result(self, st, end, mode: str, result, positions: Sequence[int]) -> int:
        """Check the sampled *positions* of one batch result; returns mismatches."""
        before = self.mismatched
        for pos in positions:
            got = result.counts[pos] if mode == "count" else result.ids(pos)
            self.check_value(st[pos], end[pos], mode, got)
        return self.mismatched - before


class Mirror:
    """The live contents of a mutated index, kept beside it round by round."""

    def __init__(self, collection):
        n = len(collection)
        self._ids = np.array(collection.ids, dtype=np.int64)
        self._st = np.array(collection.st, dtype=np.int64)
        self._end = np.array(collection.end, dtype=np.int64)
        self._alive = np.ones(n, dtype=bool)
        self._row = {int(i): pos for pos, i in enumerate(self._ids.tolist())}
        self._n = n

    def apply(self, ins_ids, ins_st, ins_end, del_ids) -> None:
        k = len(ins_ids)
        if self._n + k > self._ids.size:
            grow = max(self._ids.size, k)
            self._ids = np.concatenate([self._ids, np.zeros(grow, np.int64)])
            self._st = np.concatenate([self._st, np.zeros(grow, np.int64)])
            self._end = np.concatenate([self._end, np.zeros(grow, np.int64)])
            self._alive = np.concatenate([self._alive, np.zeros(grow, bool)])
        rows = slice(self._n, self._n + k)
        self._ids[rows], self._st[rows], self._end[rows] = ins_ids, ins_st, ins_end
        self._alive[rows] = True
        for offset, i in enumerate(ins_ids):
            self._row[i] = self._n + offset
        self._n += k
        for i in del_ids:
            self._alive[self._row.pop(i)] = False

    def oracle(self) -> Oracle:
        """An oracle over the current contents."""
        from repro.intervals import IntervalCollection

        live = self._alive
        return Oracle(
            IntervalCollection(self._st[live], self._end[live], self._ids[live], copy=False)
        )
