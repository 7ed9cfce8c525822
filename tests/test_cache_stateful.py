"""Stateful verification of the cache stack: never a stale answer.

A hypothesis rule machine (extending the ``test_stateful`` pattern)
drives arbitrary interleavings of ``query`` / ``insert`` / ``delete`` /
``rebuild`` / ``swap_index`` / ``evict`` against a
:class:`~repro.cache.CachingExecutor` wrapping a live
:class:`~repro.hint.DynamicHint`, with a cached
:class:`~repro.service.BatchingQueryService` riding along.  After every
step the cached answers are compared against a dictionary model — the
machine's single theorem is *no sequence of operations can make the
cache return a stale result*.

The fault-injection rule arms the
:data:`~repro.verify.faults.SITE_CACHE_INVALIDATE` site: the next
selective invalidation pass fails, which must degrade to a full cache
flush (extra misses) and never to a wrong answer — the degraded path is
then exercised by whatever queries the machine draws next.

It also pins the rebuild contract the invalidation design relies on:
``compact()`` does **not** bump ``cache_version`` (a rebuild changes
layout, not answers), while every insert/delete does.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as hs
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import (
    BatchingQueryService,
    CachingExecutor,
    DynamicHint,
    HintIndex,
    IntervalCollection,
    QueryBatch,
)
from repro.verify import FaultPlan
from repro.verify.faults import SITE_CACHE_INVALIDATE

M = 6
TOP = (1 << M) - 1
WAIT = 30.0


class CachedStackMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dyn = DynamicHint(m=M, rebuild_threshold=4)
        self.cached = CachingExecutor(self.dyn, max_bytes=1 << 20)
        self.model = {}  # live id -> (st, end), mirrors self.dyn
        self.svc_model = {}  # contents installed at the last swap
        self.svc = BatchingQueryService(
            CachingExecutor(HintIndex(IntervalCollection.empty(), m=M)),
            mode="ids",
            max_batch=64,
            max_delay_ms=60_000.0,
        )

    def _expected(self, a, b):
        return {
            rid
            for rid, (st, end) in self.model.items()
            if st <= b and a <= end
        }

    # ----------------------------------------------------------------- #
    # mutations
    # ----------------------------------------------------------------- #

    @rule(st=hs.integers(0, TOP), length=hs.integers(0, TOP))
    def insert(self, st, length):
        end = min(st + length, TOP)
        before = self.dyn.cache_version
        rid = self.dyn.insert(st, end)
        assert self.dyn.cache_version == before + 1
        assert rid not in self.model
        self.model[rid] = (st, end)

    @precondition(lambda self: self.model)
    @rule(data=hs.data())
    def delete(self, data):
        rid = data.draw(hs.sampled_from(sorted(self.model)))
        before = self.dyn.cache_version
        self.dyn.delete(rid)
        assert self.dyn.cache_version == before + 1
        del self.model[rid]

    @rule()
    def rebuild(self):
        # A rebuild must not bump the content version: it changes the
        # physical layout, not one answer — so cached entries survive.
        before = self.dyn.cache_version
        self.dyn.compact()
        assert self.dyn.buffered == 0
        assert self.dyn.cache_version == before

    # ----------------------------------------------------------------- #
    # cache-specific operations
    # ----------------------------------------------------------------- #

    @rule()
    def evict(self):
        # Crash the budget (evicting everything resident), then restore
        # it: correctness may never depend on what happens to be cached.
        self.cached.set_budget(max_bytes=1)
        self.cached.set_budget(max_bytes=1 << 20)

    @rule()
    def flush_cache(self):
        self.cached.clear()

    @rule()
    def arm_invalidation_fault(self):
        # The next selective invalidation pass dies; the executor must
        # degrade to a full flush, never a stale answer.
        self.cached.fault_plan = FaultPlan.once(SITE_CACHE_INVALIDATE)

    # ----------------------------------------------------------------- #
    # queries: every path must match the model, every time
    # ----------------------------------------------------------------- #

    @rule(a=hs.integers(0, TOP), b=hs.integers(0, TOP))
    def query_ids(self, a, b):
        a, b = min(a, b), max(a, b)
        result = self.cached.execute(QueryBatch([a], [b]), mode="ids")
        assert set(result.ids(0).tolist()) == self._expected(a, b)

    @rule(a=hs.integers(0, TOP), b=hs.integers(0, TOP))
    def query_count(self, a, b):
        a, b = min(a, b), max(a, b)
        result = self.cached.execute(QueryBatch([a], [b]), mode="count")
        assert int(result.counts[0]) == len(self._expected(a, b))

    @rule(a=hs.integers(0, TOP), b=hs.integers(0, TOP))
    def query_checksum(self, a, b):
        a, b = min(a, b), max(a, b)
        result = self.cached.execute(QueryBatch([a], [b]), mode="checksum")
        expected = self._expected(a, b)
        xor = 0
        for rid in expected:
            xor ^= rid
        assert int(result.counts[0]) == len(expected)
        assert result.query_checksum(0) == xor

    # ----------------------------------------------------------------- #
    # the cached service rides along
    # ----------------------------------------------------------------- #

    @rule()
    def swap_index(self):
        snap = self.dyn.snapshot()  # compacts; the dyn model is unchanged
        old = self.svc.swap_index(
            CachingExecutor(HintIndex(snap, m=M, debug_checks=True))
        )
        assert isinstance(old, CachingExecutor)
        self.svc_model = dict(self.model)

    @rule(a=hs.integers(0, TOP), b=hs.integers(0, TOP))
    def query_service(self, a, b):
        a, b = min(a, b), max(a, b)
        future = self.svc.submit(a, b)
        self.svc.flush()
        got = set(int(v) for v in future.result(timeout=WAIT))
        expected = {
            rid
            for rid, (st, end) in self.svc_model.items()
            if st <= b and a <= end
        }
        assert got == expected

    # ----------------------------------------------------------------- #

    @invariant()
    def live_lifecycle_consistent(self):
        assert self.dyn._live == set(self.model)
        assert len(self.dyn) == len(self.model)
        # Every stored id that is not live is tombstoned exactly once,
        # and no live id is buffered twice.
        stored = len(self.dyn._base) + len(self.dyn._buf_ids)
        dead = len(self.dyn._dead_ids) + len(self.dyn._buf_gone)
        assert stored - dead == len(self.dyn._live)
        assert len(self.dyn._buf_ids) == len(set(self.dyn._buf_ids))

    @invariant()
    def cache_accounting_sane(self):
        stats = self.cached.stats()
        assert stats.bytes_resident >= 0
        assert stats.entries >= 0
        assert stats.hits + stats.misses >= stats.entries

    def teardown(self):
        self.svc.close()
        snap = self.svc.metrics.snapshot()
        assert snap.submitted == snap.completed + snap.failed
        assert snap.failed == 0
        super().teardown()


TestCachedStack = CachedStackMachine.TestCase
# ISSUE 6 acceptance: the machine passes a 55+ example run even under
# the reduced `quick` profile.
TestCachedStack.settings = settings(
    max_examples=55, stateful_step_count=20, deadline=None
)
