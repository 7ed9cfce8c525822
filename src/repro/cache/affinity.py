"""Affinity-aware flush selection for the batching service.

The paper's batch strategies win by sharing per-partition work across
queries that touch the same partitions; LifeRaft (PAPERS.md) schedules
*data-driven* — it groups pending queries by the data they touch instead
of draining strictly FIFO.  :class:`AffinityFlushPolicy` brings that to
:class:`~repro.service.BatchingQueryService`: at every flush it picks
which staged queries to include by **partition affinity** (queries whose
anchors land in the same partition neighbourhood flush together, so the
partition-based strategy — and, for an ids stream, the result cache in
front of it — see denser sharing), bounded by a **starvation rule**: a query passed
over ``starvation_bound - 1`` times is force-included in the next flush,
FIFO-first, so no query ever waits more than ``starvation_bound``
flushes while it is eligible.

The policy is advisory: the service validates every selection (unique
in-range indices, within capacity) and falls back to plain FIFO if the
policy misbehaves, so a buggy policy can reorder work but never lose or
duplicate a future.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Sequence

__all__ = ["AffinityFlushPolicy"]


class AffinityFlushPolicy:
    """Select flush batches by partition affinity with a starvation bound.

    Parameters
    ----------
    starvation_bound:
        Maximum number of flushes any eligible query may wait.  A query
        deferred ``starvation_bound - 1`` times is force-included next
        flush (FIFO-first among starved queries).  ``1`` degenerates to
        pure FIFO.  The bound holds whenever the number of
        simultaneously starved queries fits the flush capacity — i.e.
        unless admission outruns service entirely, in which case
        starved queries still drain FIFO-first.
    grain_bits:
        Affinity granularity: queries bucket by ``st >> grain_bits``.
        ``0`` buckets by exact start; larger values merge neighbouring
        anchors (for an index with ``m`` levels, ``grain_bits = m - k``
        buckets by the level-``k`` partition of the query's start).

    Attributes
    ----------
    flushes:
        Number of selections performed.
    starved_promoted:
        Total queries force-included by the starvation rule.
    """

    def __init__(self, starvation_bound: int = 4, grain_bits: int = 0):
        if starvation_bound < 1:
            raise ValueError("starvation_bound must be positive")
        if grain_bits < 0:
            raise ValueError("grain_bits must be non-negative")
        self.starvation_bound = int(starvation_bound)
        self.grain_bits = int(grain_bits)
        self.flushes = 0
        self.starved_promoted = 0

    def _bucket(self, item) -> int:
        return int(item.st) >> self.grain_bits

    def select(self, pending: Sequence, max_batch: int) -> List[int]:
        """Indices (into *pending*) of the queries to flush now.

        Called by the service with its lock held; *pending* is in FIFO
        order and every item carries a ``deferred`` counter (flushes it
        has already been passed over).  The returned batch is grouped by
        affinity bucket — contiguous runs of same-bucket queries, sorted
        ``(st, end)`` within a bucket so duplicate queries sit adjacent
        for the result cache (which shares them in ids mode only) — but
        *not* globally sorted; the
        partition-based strategy sorts internally (warning when asked
        not to, see ``tests/test_cache_affinity.py``).
        """
        self.flushes += 1
        n = len(pending)
        if n <= max_batch:
            # Everything flushes; still group by bucket for sharing.
            order = sorted(
                range(n),
                key=lambda i: (
                    self._bucket(pending[i]),
                    int(pending[i].st),
                    int(pending[i].end),
                ),
            )
            return order
        chosen: List[int] = []
        chosen_set = set()
        # 1. Starvation rule: anything that would exceed the bound goes
        #    first, in FIFO order.
        for i in range(n):
            if pending[i].deferred >= self.starvation_bound - 1:
                chosen.append(i)
                chosen_set.add(i)
                self.starved_promoted += 1
                if len(chosen) >= max_batch:
                    return chosen
        # 2. Fill the rest from the densest affinity buckets.
        buckets = defaultdict(list)
        for i in range(n):
            if i not in chosen_set:
                buckets[self._bucket(pending[i])].append(i)
        room = max_batch - len(chosen)
        for key in sorted(buckets, key=lambda k: (-len(buckets[k]), k)):
            members = sorted(
                buckets[key],
                key=lambda i: (int(pending[i].st), int(pending[i].end)),
            )
            take = members[:room]
            chosen.extend(take)
            room -= len(take)
            if room <= 0:
                break
        return chosen

    def __repr__(self) -> str:
        return (
            f"AffinityFlushPolicy(starvation_bound={self.starvation_bound}, "
            f"grain_bits={self.grain_bits}, flushes={self.flushes}, "
            f"starved_promoted={self.starved_promoted})"
        )
