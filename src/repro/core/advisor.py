"""Strategy advisor.

The paper's bottom line (Section 4) is simple — partition-based wins
everywhere it tested — but the margins depend on the workload, and the
join-based alternative becomes competitive only when the batch size
approaches the collection size.  :func:`recommend_strategy` surfaces
those findings as a small, documented decision rule so that library
users who just want "the right default" get one, together with the
reasoning.

The rule itself is :func:`cold_start_recommendation` — it doubles as
the adaptive planner's cold-start strategy prior, so the advisor and the
planner can never disagree before a batch has been timed; once a
:class:`~repro.planner.PlannedExecutor` has timed its batches, its
measured decisions supersede this static advice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.intervals.batch import QueryBatch

__all__ = ["Recommendation", "cold_start_recommendation", "recommend_strategy"]


def cold_start_recommendation(
    collection_size: int,
    batch_size: int,
    *,
    join_ratio_threshold: float = 0.5,
) -> Tuple[str, str]:
    """The paper-rule strategy prior: ``(strategy, reason)``.

    This is the strategy a planner runs first at a size it has not
    timed, and the single source of truth behind
    :func:`recommend_strategy`.
    """
    if batch_size == 0:
        return "query-based", "empty batch: any strategy is a no-op"
    if batch_size == 1:
        return (
            "query-based",
            "single query: batching machinery adds overhead with no sharing",
        )
    if collection_size and batch_size / collection_size > join_ratio_threshold:
        return (
            "join-based",
            f"batch is {batch_size / collection_size:.0%} of the collection; "
            "a plane-sweep join shares one scan of S across all queries",
        )
    return (
        "partition-based",
        "the paper's overall winner: per-level, per-partition evaluation "
        "shares partition probes across all relevant queries",
    )


@dataclass(frozen=True)
class Recommendation:
    """A strategy name plus the reasoning behind it."""

    strategy: str
    reason: str


def recommend_strategy(
    collection_size: int,
    batch: QueryBatch,
    *,
    join_ratio_threshold: float = 0.5,
) -> Recommendation:
    """Recommend an evaluation strategy for a batch.

    Parameters
    ----------
    collection_size:
        Cardinality of the indexed collection ``S``.
    batch:
        The incoming query batch.
    join_ratio_threshold:
        When ``|Q| / |S|`` exceeds this, a join-based evaluation that
        scans ``S`` once amortizes well enough to consider; below it the
        paper's finding applies — index-based batching dominates.
    """
    strategy, reason = cold_start_recommendation(
        collection_size,
        len(batch),
        join_ratio_threshold=join_ratio_threshold,
    )
    return Recommendation(strategy, reason)
