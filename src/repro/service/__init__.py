"""Serving layer: micro-batching of single-query traffic.

The paper evaluates pre-formed batches; a live system receives
independent queries and must *form* the batches.  This package provides
the threaded admission layer that does so:

* :class:`~repro.service.service.BatchingQueryService` — coalesces
  single queries into batches flushed by size or deadline — or at once
  when the arrival rate cannot fill one in time and the executor is
  idle — executes them with
  the batch strategies (optionally parallelized), applies
  bounded-queue backpressure, and supports atomic index swaps under
  live traffic;
* metrics live in :mod:`repro.analysis.service_stats` and are exposed
  on the service as ``service.metrics``.

The single-threaded, poll-driven building block remains
:class:`~repro.core.accumulator.BatchAccumulator`; this package is the
thread-safe service around the same size-or-deadline policy, plus the
early ``idle`` flush.
"""

from repro.service.service import (
    BACKPRESSURE_POLICIES,
    BatchingQueryService,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
)

__all__ = [
    "BatchingQueryService",
    "DeadlineExceededError",
    "QueueFullError",
    "ServiceClosedError",
    "BACKPRESSURE_POLICIES",
]
