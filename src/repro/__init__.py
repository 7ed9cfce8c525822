"""repro — reproduction of "HINT on Steroids: Batch Query Processing for
Interval Data" (Bouros et al., EDBT 2024).

The package provides:

* :class:`~repro.intervals.IntervalCollection` /
  :class:`~repro.intervals.QueryBatch` — columnar interval data model;
* :class:`~repro.hint.HintIndex` — the hierarchical HINT index
  (plus :class:`~repro.hint.ReferenceHint`, the pseudocode-faithful
  executable specification);
* :func:`~repro.core.query_based`, :func:`~repro.core.level_based`,
  :func:`~repro.core.partition_based`, :func:`~repro.core.join_based` —
  the paper's batch evaluation strategies;
* :mod:`repro.grid` and :mod:`repro.baselines` — competitor indexes;
* :mod:`repro.workloads` — synthetic and realistic workload generators;
* :mod:`repro.analysis` — access-pattern traces, the LRU cache
  simulator, and the computation-sharing metric;
* :mod:`repro.service` — the micro-batching query service that forms
  batches from single-query traffic (size/deadline/idle admission,
  backpressure, atomic index swaps);
* :mod:`repro.experiments` — runners regenerating every table and
  figure of the paper's evaluation;
* :mod:`repro.verify` — machine-checked structural invariants
  (:func:`~repro.verify.verify_index`, the ``debug_checks`` build flag)
  and deterministic fault injection (:class:`~repro.verify.FaultPlan`)
  for the service and the dynamic index;
* :mod:`repro.obs` — the opt-in observability plane (metrics registry,
  hierarchical tracing spans with a slow log, Prometheus/JSON
  exporters) every layer above publishes into; off by default at a
  benchmarked <5% overhead (see ``docs/observability.md``);
* :mod:`repro.shard` — :class:`~repro.shard.ShardedHint`, the
  domain-range sharded execution layer: ``k`` contiguous sub-domain
  HINT indexes behind the same ``execute`` surface, with exact merge
  of boundary-spanning queries (see ``docs/sharding.md``);
* :mod:`repro.engine` — :class:`~repro.engine.ExecutionEngine`, the
  backend-selecting execution engine: serial/threads/auto backends
  over one borrowed index, behind the same ``execute`` surface (see
  ``docs/parallelism.md``);
* :mod:`repro.kernels` — compiled hot-path kernels for the GIL-bound
  inner loops of the ids merge and the checksum fold (Numba JIT as the
  optional ``compiled`` extra, with a behaviour-identical pure-NumPy
  fallback selected at import time; see ``docs/kernels.md``);
* :mod:`repro.cache` — :class:`~repro.cache.CachingExecutor`, the live
  result cache in front of any backend (LRU byte budget,
  never-stale invalidation against :class:`~repro.hint.DynamicHint`
  mutations), plus :class:`~repro.cache.AffinityFlushPolicy`, the
  data-driven flush selector for the service (see ``docs/caching.md``).

Quickstart
----------
>>> import numpy as np
>>> from repro import IntervalCollection, QueryBatch, HintIndex, partition_based
>>> rng = np.random.default_rng(7)
>>> st = rng.integers(0, 950, size=500)
>>> coll = IntervalCollection(st, st + rng.integers(1, 50, size=500))
>>> index = HintIndex(coll, m=10)
>>> batch = QueryBatch([10, 500, 900], [40, 520, 999])
>>> result = partition_based(index, batch)
>>> len(result)
3
"""

from repro.intervals import (
    IntervalCollection,
    QueryBatch,
    load_intervals,
    save_intervals,
)
from repro.hint import (
    AllenSelection,
    DynamicHint,
    HintIndex,
    HintVariant,
    ReferenceHint,
    choose_m,
    load_index,
    save_index,
)
from repro.core import (
    BatchResult,
    query_based,
    level_based,
    partition_based,
    join_based,
    parallel_batch,
    run_strategy,
    STRATEGIES,
    recommend_strategy,
)
from repro.core.accumulator import BatchAccumulator
from repro.analysis import ServiceMetrics, analyze_batch
from repro.service import (
    BatchingQueryService,
    QueueFullError,
    ServiceClosedError,
)
from repro.grid import GridIndex, grid_query_based, grid_partition_based
from repro.baselines import (
    NaiveScan,
    IntervalTree,
    TimelineIndex,
    PeriodIndex,
    period_partition_based,
)
from repro.verify import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    InvariantViolation,
    verify_index,
)
from repro.shard import ShardedHint, load_sharded, save_sharded
from repro.engine import ExecutionEngine
from repro.cache import AffinityFlushPolicy, CachingExecutor, ResultCache

__version__ = "1.0.0"

__all__ = [
    "IntervalCollection",
    "QueryBatch",
    "load_intervals",
    "save_intervals",
    "HintIndex",
    "ReferenceHint",
    "HintVariant",
    "AllenSelection",
    "DynamicHint",
    "choose_m",
    "parallel_batch",
    "save_index",
    "load_index",
    "BatchResult",
    "query_based",
    "level_based",
    "partition_based",
    "join_based",
    "run_strategy",
    "STRATEGIES",
    "recommend_strategy",
    "GridIndex",
    "grid_query_based",
    "grid_partition_based",
    "NaiveScan",
    "IntervalTree",
    "TimelineIndex",
    "PeriodIndex",
    "period_partition_based",
    "BatchAccumulator",
    "BatchingQueryService",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceMetrics",
    "analyze_batch",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InvariantViolation",
    "verify_index",
    "ShardedHint",
    "save_sharded",
    "load_sharded",
    "ExecutionEngine",
    "CachingExecutor",
    "AffinityFlushPolicy",
    "ResultCache",
    "__version__",
]
