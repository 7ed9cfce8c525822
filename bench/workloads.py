"""The four workloads and their seeded input generators.

Everything the program sees is generated here from ``--seed``: the seed
derives independent sub-seeds (collection, queries, mutations, probes), so
the same seed always yields the same collection, the same query stream
and the same mutation rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from bench.metrics import BATCH_COUNT, BATCH_IDS, CHURN, SERVE

MIB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, copied into BENCHMARK.json
    kind: str  # "batch" | "churn" | "serve"
    dataset: str  # a Table 2 clone name
    cardinality: int
    m: int
    mode: str  # result mode
    shards: int  # 0 = one HintIndex
    cache_bytes: int
    batch_size: int
    #: ((extent as a share of the domain, weight), ...); one entry with
    #: ``jitter`` = uniform stream, several = Zipf template universe.
    extents: Tuple[Tuple[float, float], ...]
    jitter: float = 0.0  # +/- share applied to the extent (uniform stream)
    templates: int = 0  # > 0: Zipf(s=1.0) over this many templates
    warmup_units: int = 32  # batches/rounds run before timing (by work)
    #: Timed units per block (metrics.QUIET reads the blocks): 0.15-0.65 s of
    #: work, long enough to average what differs from batch to batch.
    block_units: int = 8
    oracle_every: int = 32  # check every k-th timed unit ...
    oracle_sample: int = 16  # ... on this many of its queries
    writes: int = 0  # inserts and deletes per round (each)
    rebuild_threshold: int = 0  # DynamicHint staging-buffer size

    @property
    def dynamic(self) -> bool:
        """A DynamicHint under the cache (no planner, no engine)."""
        return self.kind == "churn"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name=BATCH_COUNT,
            why="never-repeating count batches: the partition sweep is the work, "
            "the cache never hits, so every wrapper over core is priced",
            kind="batch", dataset="TAXIS", cardinality=200_000, m=17,
            mode="count", shards=0, cache_bytes=2 * MIB,
            batch_size=4096, extents=((0.001, 1.0),), jitter=0.5,
            # 2 MiB / 96 B = 21.8k entries; 16 x 4096 queries fill it 3x.
            warmup_units=16, oracle_every=64, oracle_sample=16, block_units=8,
        ),
        Workload(
            name=BATCH_IDS,
            why="Zipf ids batches over 2 shards, results several times the cache: "
            "materialising, merges, split plans and cache hits do the work",
            kind="batch", dataset="BOOKS", cardinality=15_000, m=16,
            mode="ids", shards=2, cache_bytes=4 * MIB,
            batch_size=1024, extents=((0.0001, 7.0), (0.01, 1.0)),
            templates=65_536, warmup_units=64, oracle_every=64,
            oracle_sample=32, block_units=16,
        ),
        Workload(
            name=CHURN,
            why="writes beside reads on a DynamicHint: the cache invalidates "
            "rather than hits, the index buffers and rebuilds",
            kind="churn", dataset="TAXIS", cardinality=200_000, m=17,
            mode="ids", shards=0, cache_bytes=64 * MIB,
            batch_size=256, extents=((0.001, 7.0), (0.01, 1.0)),
            templates=65_536, warmup_units=40, oracle_every=16,
            oracle_sample=16, writes=128,
            # 8 rounds per merge-and-rebuild, so every block of 8 rounds pays
            # for exactly one.
            rebuild_threshold=1024, block_units=8,
        ),
        Workload(
            name=SERVE,
            why="the first workload's stream one QUERY frame at a time over a "
            "socket: net and service are the work, core almost none",
            kind="serve", dataset="TAXIS", cardinality=200_000, m=17,
            # 1 MiB / 96 B = 10.9k entries; 64 x 256 requests fill it 1.5x.
            mode="count", shards=0, cache_bytes=1 * MIB,
            batch_size=256, extents=((0.001, 1.0),), jitter=0.5,
            warmup_units=64, oracle_every=256, oracle_sample=1,
        ),
    )
}

#: serve-*: service and driver settings (one place, used by child and parent).
SERVE_MAX_BATCH = 256
SERVE_MAX_DELAY_MS = 2.0
SERVE_CONNECTIONS = 2
SERVE_IN_FLIGHT = 128  # per connection, closed loop
SERVE_OPEN_RATE = 500  # req/s, open loop (4000 sits on the knee: see README)
SERVE_OPEN_WARMUP = 1000  # requests at that rate before the timed open loop
SERVE_LADDER = (1000, 2000, 4000, 8000, 16000)
SERVE_LIMIT_MS = 25.0  # p99 limit of the ladder


def sub_seeds(seed: int):
    """(collection seed, query rng, mutation rng, probe rng) — independent
    streams, so e.g. a longer timed window never changes the probe batches."""
    coll, *rest = np.random.SeedSequence(int(seed)).spawn(4)
    return (int(coll.generate_state(1)[0]), *map(np.random.default_rng, rest))


def make_collection(w: Workload, coll_seed: int):
    """The workload's collection, normalised into ``[0, 2**m - 1]``."""
    from repro.workloads.realistic import make_realistic_clone

    clone = make_realistic_clone(w.dataset, cardinality=w.cardinality, seed=coll_seed)
    return clone.normalized(w.m)


class QueryStream:
    """Seeded query batches: uniform never-repeating, or Zipf templates."""

    def __init__(self, w: Workload, rng: np.random.Generator):
        self._rng = rng
        self._top = (1 << w.m) - 1
        self._n = w.batch_size
        shares = np.asarray([e for e, _ in w.extents])
        weights = np.asarray([wt for _, wt in w.extents], dtype=np.float64)
        self._extent = np.maximum((shares * self._top).astype(np.int64), 1)
        self._jitter = w.jitter
        self._templates = None
        if w.templates:
            u = w.templates
            kind = rng.choice(len(shares), size=u, p=weights / weights.sum())
            ext = self._extent[kind]
            st = rng.integers(0, self._top - ext, dtype=np.int64)
            # Rank -> template through a permutation, so popularity is
            # independent of position and of extent class.
            perm = rng.permutation(u)
            self._templates = (st[perm], (st + ext)[perm])
            zipf = np.arange(1, u + 1, dtype=np.float64) ** -1.0
            self._cdf = np.cumsum(zipf / zipf.sum())

    def next(self, n: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``(st, end)`` arrays of ``n`` (default: one batch) queries."""
        n = n or self._n
        rng = self._rng
        if self._templates is not None:
            ranks = np.searchsorted(self._cdf, rng.random(n))
            np.minimum(ranks, len(self._cdf) - 1, out=ranks)
            return self._templates[0][ranks], self._templates[1][ranks]
        base = int(self._extent[0])
        lo = max(int(base * (1 - self._jitter)), 1)
        hi = int(base * (1 + self._jitter))
        ext = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
        st = rng.integers(0, self._top - hi, size=n, dtype=np.int64)
        return st, st + ext


class MutationStream:
    """Seeded rounds of inserts and deletes that keep the size constant.

    Inserted intervals copy the duration of a random original interval,
    so the collection's shape is stationary; ids are assigned here (the
    index is handed explicit ids), so victims never depend on what the
    program returns.
    """

    def __init__(self, w: Workload, collection, rng: np.random.Generator):
        self._rng = rng
        self._top = (1 << w.m) - 1
        self._writes = w.writes
        self._durations = (collection.end - collection.st).astype(np.int64)
        self._live: List[int] = collection.ids.tolist()
        self._next_id = int(collection.ids.max()) + 1

    def next(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """``(insert ids, insert st, insert end, delete ids)`` for one round."""
        rng, k = self._rng, self._writes
        dur = self._durations[rng.integers(0, self._durations.size, size=k)]
        st = rng.integers(0, self._top - dur, dtype=np.int64)
        ids = list(range(self._next_id, self._next_id + k))
        self._next_id += k
        self._live.extend(ids)
        victims = []
        for pos in rng.integers(0, len(self._live) - k, size=k).tolist():
            # swap-remove; positions are drawn below the shrinking length
            self._live[pos], self._live[-1] = self._live[-1], self._live[pos]
            victims.append(self._live.pop())
        return ids, st.tolist(), (st + dur).tolist(), victims
