"""Query batch generators.

The paper's query workloads (Section 4):

* on the **real** datasets, query positions are uniformly distributed in
  the domain — :func:`uniform_queries`;
* on the **synthetic** datasets, query positions follow the data
  distribution — :func:`data_following_queries` samples anchor points
  from the indexed intervals themselves;
* query **extent** is a percentage of the domain, varied over
  ``{0.01, 0.05, 0.1, 0.5, 1}`` % (default 0.1 %);
* **batch size** is varied over ``{1K, 5K, 10K, 50K, 100K}`` (default
  10K real / 1K synthetic).

:func:`stabbing_queries` (extent one point) is provided for tests and
the timeline-index comparison.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.intervals.batch import QueryBatch
from repro.intervals.collection import IntervalCollection

__all__ = [
    "uniform_queries",
    "data_following_queries",
    "stabbing_queries",
    "zipfian_queries",
    "extent_from_pct",
    "EXTENT_PCT_GRID",
    "BATCH_SIZE_GRID",
    "DEFAULT_EXTENT_PCT",
]

EXTENT_PCT_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)
BATCH_SIZE_GRID = (1_000, 5_000, 10_000, 50_000, 100_000)
DEFAULT_EXTENT_PCT = 0.1


def extent_from_pct(domain: int, extent_pct: float) -> int:
    """Query extent in domain units for a percentage of the domain."""
    if domain < 1:
        raise ValueError("domain must be positive")
    if extent_pct < 0:
        raise ValueError("extent_pct must be non-negative")
    return max(1, round(domain * extent_pct / 100.0))


def uniform_queries(
    count: int,
    domain: int,
    extent_pct: float = DEFAULT_EXTENT_PCT,
    *,
    seed: int = 0,
) -> QueryBatch:
    """Fixed-extent queries at uniformly random positions.

    Every query covers ``extent_from_pct(domain, extent_pct)`` values and
    starts uniformly in ``[0, domain - extent]``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    extent = extent_from_pct(domain, extent_pct)
    rng = np.random.default_rng(seed)
    max_start = max(domain - extent, 1)
    st = rng.integers(0, max_start, size=count, dtype=np.int64)
    end = np.minimum(st + extent - 1, domain - 1)
    return QueryBatch(st, end)


def data_following_queries(
    count: int,
    collection: IntervalCollection,
    extent_pct: float = DEFAULT_EXTENT_PCT,
    *,
    domain: Optional[int] = None,
    seed: int = 0,
) -> QueryBatch:
    """Fixed-extent queries whose positions follow the data distribution.

    Query anchors are middle points of intervals sampled (with
    replacement) from *collection*, so query density tracks data density
    — exactly how the paper generates queries for the synthetic
    datasets.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if len(collection) == 0:
        raise ValueError("cannot sample query positions from an empty collection")
    if domain is None:
        domain = collection.stats().domain_end + 1
    extent = extent_from_pct(domain, extent_pct)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(collection), size=count, dtype=np.int64)
    anchors = (collection.st[rows] + collection.end[rows]) // 2
    st = np.clip(anchors - extent // 2, 0, max(domain - extent, 0)).astype(np.int64)
    end = np.minimum(st + extent - 1, domain - 1)
    st = np.minimum(st, end)
    return QueryBatch(st, end)


def zipfian_queries(
    count: int,
    domain: int,
    extent_pct: float = DEFAULT_EXTENT_PCT,
    *,
    s: float = 1.0,
    universe: int = 1024,
    hot_fraction: float = 0.1,
    hot_start: float = 0.0,
    seed: int = 0,
) -> QueryBatch:
    """Skewed repeating queries: a Zipf-weighted template universe.

    Models the access skew that makes result caching and affinity
    batching pay off (YCSB-style): a fixed **universe** of distinct
    query templates is laid out once, then each of the *count* emitted
    queries picks template rank ``r`` with probability proportional to
    ``(r + 1) ** -s``.  Exact templates repeat — a continuous-position
    generator would never produce a repeated query, so a result cache
    could never hit.

    The hottest ``ceil(universe * hot_fraction)`` templates are anchored
    inside a *hot span* of the domain starting at fraction *hot_start*
    and covering *hot_fraction* of it, so skew in popularity is also
    skew in **partition** affinity: hot queries hammer the same
    partition neighbourhood, which is what the affinity flush policy
    exploits.  The remaining (cold) templates are spread uniformly over
    the whole domain.

    ``s = 0`` degenerates to uniform template choice; larger *s* means
    heavier skew (at ``s = 1`` the top template draws ~1/H(universe) of
    all traffic).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if domain < 1:
        raise ValueError("domain must be positive")
    if s < 0:
        raise ValueError("skew s must be non-negative")
    if universe < 1:
        raise ValueError("universe must be positive")
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in (0, 1]")
    if not 0.0 <= hot_start <= 1.0 - hot_fraction:
        raise ValueError("hot_start must lie in [0, 1 - hot_fraction]")
    extent = extent_from_pct(domain, extent_pct)
    rng = np.random.default_rng(seed)
    max_start = max(domain - extent, 1)
    # --- template layout: hot ranks inside the hot span, the rest
    #     uniform over the full domain -------------------------------- #
    n_hot = max(1, int(np.ceil(universe * hot_fraction)))
    hot_lo = int(hot_start * max_start)
    hot_hi = max(hot_lo + 1, int((hot_start + hot_fraction) * max_start))
    starts = np.empty(universe, dtype=np.int64)
    starts[:n_hot] = rng.integers(hot_lo, hot_hi, size=n_hot, dtype=np.int64)
    if universe > n_hot:
        starts[n_hot:] = rng.integers(
            0, max_start, size=universe - n_hot, dtype=np.int64
        )
    # --- Zipf rank sampling over the finite universe ----------------- #
    weights = (np.arange(1, universe + 1, dtype=np.float64)) ** -s
    probs = weights / weights.sum()
    ranks = rng.choice(universe, size=count, p=probs)
    st = starts[ranks]
    end = np.minimum(st + extent - 1, domain - 1)
    return QueryBatch(st, end)


def stabbing_queries(
    count: int,
    domain: int,
    *,
    seed: int = 0,
) -> QueryBatch:
    """Point (stabbing) queries at uniformly random positions."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    st = rng.integers(0, domain, size=count, dtype=np.int64)
    return QueryBatch(st, st.copy())
