"""Join-based batch evaluation.

Section 1 of the paper discusses treating the query batch ``Q`` as a
second interval collection and computing the interval join ``Q ⋈ S``
with the optFS plane sweep, instead of probing the index once per query.
Join processing shares comparisons between queries, but it scans the
*entire* data collection; since typically ``|Q| ≪ |S|`` the strategy is
expected to be slower than index-based batching — the ablation benchmark
``bench_ablation_joinbased`` measures exactly this trade-off and its
crossover as the batch grows.

Unlike the other strategies this one does not take a HINT index: it
needs the raw collection.
"""

from __future__ import annotations

from repro.core.result import BatchResult
from repro.intervals.batch import QueryBatch
from repro.intervals.collection import IntervalCollection
from repro.joins.optfs import forward_scan_join, join_counts

__all__ = ["join_based"]


def join_based(
    collection: IntervalCollection,
    batch: QueryBatch,
    *,
    mode: str = "count",
) -> BatchResult:
    """Evaluate the batch as the interval join ``Q ⋈ S``.

    Parameters
    ----------
    collection:
        The data collection ``S``.
    batch:
        The query batch ``Q``; results are reported in its order.
    mode:
        ``"count"`` (cardinalities only) or ``"ids"``.
    """
    queries = IntervalCollection(batch.st, batch.end, copy=False)
    if mode == "count":
        return BatchResult(join_counts(queries, collection))
    if mode in ("ids", "checksum"):
        return BatchResult.from_id_arrays(
            forward_scan_join(queries, collection), mode
        )
    raise ValueError(
        f"unknown result mode {mode!r}; expected 'count', 'ids' or 'checksum'"
    )
