"""Access-pattern analysis — the paper's mechanism, made observable.

The performance argument of the paper is about cache behaviour, which a
Python process cannot measure directly.  Instead, this package makes the
mechanism explicit:

* :class:`~repro.analysis.trace.AccessRecorder` captures the exact
  sequence of partition visits a strategy performs (Table 1 of the paper
  is regenerated verbatim from these traces);
* :func:`~repro.analysis.trace.jump_stats` counts the *horizontal* and
  *vertical* memory jumps the paper reasons about;
* :class:`~repro.analysis.cache.LRUCacheSimulator` replays a trace
  against a parameterized cache and reports hits/misses, quantifying why
  partition-based ordering wins;
* :func:`~repro.analysis.sharing.computation_sharing` computes the
  Table 4 metric (what fraction of the batch a serial executor would
  finish within a strategy's total time);
* :class:`~repro.analysis.service_stats.ServiceMetrics` instruments the
  micro-batching query service (:mod:`repro.service`): flush triggers,
  batch-size histogram, queue depth, p50/p99 flush latency.
"""

from repro.analysis.trace import AccessRecorder, JumpStats, jump_stats, format_access_pattern
from repro.analysis.cache import CacheStats, LRUCacheSimulator, simulate_cache
from repro.analysis.sharing import computation_sharing
from repro.analysis.batch_stats import (
    BatchStats,
    LevelStats,
    analyze_batch,
    batch_extents,
)
from repro.analysis.service_stats import ServiceMetrics, ServiceSnapshot

__all__ = [
    "BatchStats",
    "LevelStats",
    "analyze_batch",
    "batch_extents",
    "AccessRecorder",
    "JumpStats",
    "jump_stats",
    "format_access_pattern",
    "CacheStats",
    "LRUCacheSimulator",
    "simulate_cache",
    "computation_sharing",
    "ServiceMetrics",
    "ServiceSnapshot",
]
