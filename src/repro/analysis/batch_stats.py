"""Batch characterization — how much sharing does a batch offer?

The partition-based strategy wins by depleting all queries relevant to a
partition together; how much that buys depends on the *batch*, not just
the index: a batch whose queries pile onto the same partitions shares a
lot, a batch spread thinly shares nothing.  This module quantifies that
before running anything:

* per level: how many (query, partition) incidences there are versus how
  many *distinct* partitions are touched — their ratio is the level's
  **sharing factor** (1.0 = no partition visited twice);
* summed over levels: the batch's overall sharing factor, the direct
  predictor of partition-based's advantage (each repeated incidence is a
  probe the strategy amortizes).

A diagnostic for library users and capacity planning
(``examples/tuning.py``); no execution path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.hint.index import HintIndex
from repro.intervals.batch import QueryBatch

__all__ = [
    "LevelStats",
    "BatchStats",
    "analyze_batch",
    "batch_extents",
]


@dataclass(frozen=True)
class LevelStats:
    """Sharing statistics of one index level for one batch."""

    level: int
    incidences: int  # total (query, relevant partition) pairs
    distinct_partitions: int  # distinct partitions touched
    occupied_incidences: int  # incidences on partitions holding data

    @property
    def sharing_factor(self) -> float:
        """Average number of queries per touched partition (>= 1)."""
        if self.distinct_partitions == 0:
            return 0.0
        return self.incidences / self.distinct_partitions


@dataclass(frozen=True)
class BatchStats:
    """Aggregate sharing statistics of a batch against an index."""

    num_queries: int
    levels: List[LevelStats]

    @property
    def total_incidences(self) -> int:
        return sum(s.incidences for s in self.levels)

    @property
    def total_distinct(self) -> int:
        return sum(s.distinct_partitions for s in self.levels)

    @property
    def sharing_factor(self) -> float:
        """Overall queries-per-partition ratio across all levels."""
        if self.total_distinct == 0:
            return 0.0
        return self.total_incidences / self.total_distinct

    @property
    def incidences_per_query(self) -> float:
        """Average relevant partitions per query (index traversal cost)."""
        if self.num_queries == 0:
            return 0.0
        return self.total_incidences / self.num_queries

    def describe(self) -> str:
        lines = [
            f"batch of {self.num_queries} queries: "
            f"{self.total_incidences} partition incidences, "
            f"{self.total_distinct} distinct partitions, "
            f"sharing x{self.sharing_factor:.2f}"
        ]
        for stats in self.levels:
            if stats.incidences:
                lines.append(
                    f"  level {stats.level:>2}: {stats.incidences:>8} "
                    f"incidences over {stats.distinct_partitions:>7} "
                    f"partitions (x{stats.sharing_factor:.2f})"
                )
        return "\n".join(lines)


def batch_extents(batch: QueryBatch) -> np.ndarray:
    """Per-query extents ``end - st`` (clamped at 0 for inverted ranges)."""
    return np.maximum(batch.end - batch.st, 0)


def analyze_batch(index: HintIndex, batch: QueryBatch) -> BatchStats:
    """Compute per-level sharing statistics of *batch* against *index*.

    Pure vectorized bit arithmetic — no partition is actually probed, so
    the analysis costs O(|Q| x levels).
    """
    m = index.m
    top = (1 << m) - 1
    q_st = np.clip(batch.st, 0, top)
    q_end = np.clip(batch.end, 0, top)
    n = len(batch)
    levels: List[LevelStats] = []
    for level in range(m, -1, -1):
        shift = m - level
        f = q_st >> shift
        l = q_end >> shift
        if n == 0:
            levels.append(LevelStats(level, 0, 0, 0))
            continue
        incidences = int((l - f + 1).sum())
        # Distinct partitions = size of the union of [f, l] ranges,
        # computed by merging the sorted ranges.
        order = np.argsort(f, kind="stable")
        f_sorted = f[order]
        l_sorted = l[order]
        running_max = np.maximum.accumulate(l_sorted)
        # A range starts a new merged group when it begins after the
        # running max of all earlier ends.
        new_group = np.r_[True, f_sorted[1:] > running_max[:-1]]
        group_start = f_sorted[new_group]
        group_end = np.maximum.reduceat(l_sorted, np.flatnonzero(new_group))
        distinct = int((group_end - group_start + 1).sum())
        # Incidences on occupied partitions (data to read there).
        data = index.levels[level]
        occupied = 0
        if data.total():
            for table in data.tables():
                if len(table):
                    occupied += int(
                        (table.offsets[l + 1] > table.offsets[f]).sum()
                    )
        levels.append(LevelStats(level, incidences, distinct, occupied))
    return BatchStats(num_queries=n, levels=levels)
