"""Static plan policy — the planner's cold-start prior.

Two things live here, deliberately dependency-light (nothing from
:mod:`repro.engine` or the rest of :mod:`repro.planner`, so the engine
can import this module without a cycle):

* :func:`static_backend_choice` — the threshold rule behind the
  engine's ``auto`` backend: what runs when no plan pins a backend (the
  planner's fallback on a fault), and the backend of the plan a fresh
  planner hands its first batch of a size.
  It consults the *live* kernel state: ``threads+compiled`` is only
  preferred when the JIT kernels are genuinely available **and not**
  running on the pure-NumPy fallback — fallback kernels hold the GIL,
  so threading them only adds dispatch cost to the kernel path.
* :func:`cold_start_recommendation` — the paper-rule strategy prior
  (Section 4 findings) that :func:`repro.core.advisor.recommend_strategy`
  wraps and the adaptive planner starts from, so the advisor and the
  planner can never disagree before a batch has been timed.
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels import ops as kernel_ops

__all__ = [
    "NOGIL_CUTOFF",
    "static_backend_choice",
    "compiled_kernels_nogil",
    "cold_start_recommendation",
]

#: The static rule's threshold (a batch size), tuned once on the
#: reference container; the planner's timings replace it, it remains
#: the prior.
NOGIL_CUTOFF = 512


def compiled_kernels_nogil() -> bool:
    """True when the compiled kernels actually release the GIL.

    ``jit_available()`` alone is not enough: with ``REPRO_KERNELS=off``
    (or numba missing) the *fallback* NumPy kernels serve the compiled
    path — correct, but GIL-holding, so ``threads+compiled`` degenerates
    to serial-with-overhead for GIL-bound batches.
    """
    return kernel_ops.jit_available() and not kernel_ops.fallback_active()


def static_backend_choice(n: int, strategy: str, mode: str, *, cpus: int) -> str:
    """The threshold rule (the engine's ``auto`` backend).

    * partition-based batches in ids mode run on the compiled kernels at
      every size — on several cores through ``threads+compiled`` once
      the batch reaches :data:`NOGIL_CUTOFF` and the kernels release the
      GIL, otherwise ``compiled`` in the calling thread;
    * everything else runs serial: query-based, level-based and
      join-based because their per-query work is a Python loop that
      holds the GIL, partition-based count and checksum because two
      gathers per level leave a thread nothing worth its hand-off (4096
      queries on 2 cores: 1.5 ms on threads, 0.56 ms serial).
    """
    if strategy == "partition-based" and mode == "ids":
        if cpus > 1 and n >= NOGIL_CUTOFF and compiled_kernels_nogil():
            return "threads+compiled"
        return "compiled"
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
