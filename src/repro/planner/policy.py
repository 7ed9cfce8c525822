"""Static plan policy — the planner's cold-start prior.

Two things live here, deliberately dependency-light (nothing from
:mod:`repro.engine` or the rest of :mod:`repro.planner`, so the engine
can import this module without a cycle):

* :func:`static_backend_choice` — the rule behind the engine's ``auto``
  backend: what runs when no plan pins a backend (the planner's
  fallback on a fault), and the backend of the plan a fresh planner
  hands its first batch of a size.  It is ``serial`` for every batch.
* :func:`cold_start_recommendation` — the paper-rule strategy prior
  (Section 4 findings) that :func:`repro.core.advisor.recommend_strategy`
  wraps and the adaptive planner starts from, so the advisor and the
  planner can never disagree before a batch has been timed.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "static_backend_choice",
    "cold_start_recommendation",
]


def static_backend_choice(n: int, strategy: str, mode: str, *, cpus: int) -> str:
    """The static rule (the engine's ``auto`` backend): ``serial``.

    * query-based, level-based and join-based run serial because their
      per-query work is a Python loop that holds the GIL;
    * partition-based runs serial in every mode because it is gathers
      from the index's prefix folds and id runs, which leave a thread
      nothing worth its hand-off (a 4096-query count on 2 cores: 1.5 ms
      on threads, 0.56 ms serial); ``compiled`` runs the same function.

    The planner's timings may still pick ``threads`` for a batch where
    they show it wins.
    """
    return "serial"


def cold_start_recommendation(
    collection_size: int,
    batch_size: int,
    *,
    join_ratio_threshold: float = 0.5,
) -> Tuple[str, str]:
    """The paper-rule strategy prior: ``(strategy, reason)``.

    This is the strategy a planner runs first at a size it has not
    timed, and the single source of truth behind
    :func:`repro.core.advisor.recommend_strategy`.
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
