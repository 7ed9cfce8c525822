"""Live result caching and affinity-aware flush scheduling.

This package closes the loop from *measuring* batch sharing
(``repro.analysis.sharing``, ``repro.analysis.cache``) to *exploiting*
it in the serving path:

* :class:`~repro.cache.result.ResultCache` — LRU per-query id answers
  with a byte residency budget;
* :class:`~repro.cache.executor.CachingExecutor` — the
  ``run_strategy``-shaped front end that puts the store in front of any
  backend for ids batches (count and checksum pass through) and owns the
  never-stale invalidation contract;
* :class:`~repro.cache.affinity.AffinityFlushPolicy` — data-driven
  flush selection for the service's pending queue with a starvation
  bound.

See ``docs/caching.md`` for the design and the invalidation rules.
"""

from repro.cache.affinity import AffinityFlushPolicy
from repro.cache.executor import CacheCounters, CachingExecutor
from repro.cache.result import ResultCache

__all__ = [
    "AffinityFlushPolicy",
    "CacheCounters",
    "CachingExecutor",
    "ResultCache",
]
