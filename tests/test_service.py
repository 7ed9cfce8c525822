"""Tests for the micro-batching query service (``repro.service``)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    BatchingQueryService,
    HintIndex,
    IntervalCollection,
    QueueFullError,
    ServiceClosedError,
)
from repro.analysis.service_stats import ServiceMetrics, batch_size_bucket
from tests.conftest import oracle_result, random_collection

M = 10
TOP = (1 << M) - 1
#: Deadline long enough to never fire inside a test that does not want it.
NEVER_MS = 60_000.0
#: Timeout for awaiting any future a test expects to resolve.
WAIT = 30.0


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    coll = random_collection(rng, 3000, TOP)
    return coll, HintIndex(coll, m=M)


def _queries(seed, n, *, top=TOP, beyond=0):
    """Deterministic (st, end) pairs, optionally reaching past the domain."""
    rng = np.random.default_rng(seed)
    st = rng.integers(0, top + 1, size=n)
    end = np.minimum(st + rng.integers(0, top // 4, size=n), top + beyond)
    return [(int(s), int(e)) for s, e in zip(st, end)]


# --------------------------------------------------------------------- #
# flush triggers
# --------------------------------------------------------------------- #


def test_flush_by_size(setup):
    coll, index = setup
    qs = _queries(1, 8)
    with BatchingQueryService(index, max_batch=8, max_delay_ms=NEVER_MS) as svc:
        futures = [svc.submit(s, e) for s, e in qs]
        results = [f.result(timeout=WAIT) for f in futures]
    assert results == [index.query_count(s, e) for s, e in qs]
    snap = svc.metrics.snapshot()
    assert snap.flushes_by_reason["size"] == 1
    assert snap.flushes_by_reason["deadline"] == 0
    assert snap.batch_size_histogram == {8: 1}


def test_flush_by_deadline(setup):
    coll, index = setup
    qs = _queries(2, 3)
    with BatchingQueryService(index, max_batch=10_000, max_delay_ms=20) as svc:
        futures = [svc.submit(s, e) for s, e in qs]
        results = [f.result(timeout=WAIT) for f in futures]
    assert results == [index.query_count(s, e) for s, e in qs]
    snap = svc.metrics.snapshot()
    assert snap.flushes_by_reason["deadline"] >= 1
    assert snap.flushes_by_reason["size"] == 0


def test_forced_flush(setup):
    coll, index = setup
    with BatchingQueryService(
        index, max_batch=10_000, max_delay_ms=NEVER_MS
    ) as svc:
        fut = svc.submit(0, 5)
        svc.flush()
        assert fut.result(timeout=WAIT) == index.query_count(0, 5)
    assert svc.metrics.snapshot().flushes_by_reason["forced"] == 1


class _Clock:
    """A service clock that moves only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Reports:
    """``submit_many`` callback that records every report; ``wait(n)``
    blocks until *n* positions have been reported."""

    def __init__(self):
        self.positions = []
        self.outcomes = []
        self._cond = threading.Condition()

    def __call__(self, positions, outcome):
        with self._cond:
            self.positions.extend(int(p) for p in positions)
            self.outcomes.append(outcome)
            self._cond.notify_all()

    def wait(self, n, timeout=5.0):
        with self._cond:
            return self._cond.wait_for(lambda: len(self.positions) >= n, timeout)


class _TimedBackend:
    """execute()-shaped backend whose flushes take *cost* seconds of the
    test's clock."""

    def __init__(self, index, clock, cost):
        self.index, self.clock, self.cost = index, clock, cost

    def execute(self, batch, *, strategy, mode):
        from repro.core.strategies import run_strategy

        self.clock.now += self.cost
        return run_strategy(strategy, self.index, batch, mode=mode)


def test_idle_flush_does_not_wait_out_the_delay(setup):
    """A lone query after slow arrivals goes out at once: at that rate
    the batch could never fill before ``max_delay_ms``."""
    coll, index = setup
    clock = _Clock()
    with BatchingQueryService(
        index, max_batch=8, max_delay_ms=100, clock=clock
    ) as svc:
        first = [svc.submit(0, 5)]
        clock.now = 0.05  # one query per 50 ms: 7 more need 350 ms
        first.append(svc.submit(3, 9))
        svc.flush()
        assert [f.result(timeout=WAIT) for f in first] == [
            index.query_count(0, 5), index.query_count(3, 9)
        ]
        clock.now = 1.0
        lone = svc.submit(4, 12)
        # The clock stays at 1.0, short of the 1.1 deadline.
        assert lone.result(timeout=5.0) == index.query_count(4, 12)
        snap = svc.metrics.snapshot()
    assert snap.flushes_by_reason["forced"] == 1
    assert snap.flushes_by_reason["idle"] == 1
    assert snap.flushes_by_reason["deadline"] == 0
    assert "idle=1" in snap.describe()
    # Formation wait: 50 ms for the forced pair, nothing for the lone one.
    wait = svc.metrics.registry.find("repro_service_formation_wait_seconds")
    assert wait.count == 2
    assert wait.sum == pytest.approx(0.05)
    assert snap.p50_formation_wait is not None


def test_busy_flusher_still_waits_for_the_deadline(setup):
    """The same slow arrivals, but each flush takes longer than the gap
    between them: an early flush would delay the next one, so the lone
    query waits for its deadline as before."""
    coll, index = setup
    clock = _Clock()
    with BatchingQueryService(
        _TimedBackend(index, clock, 0.2), max_batch=8, max_delay_ms=100,
        clock=clock,
    ) as svc:
        first = [svc.submit(0, 5)]
        clock.now = 0.05
        first.append(svc.submit(3, 9))
        svc.flush()
        [f.result(timeout=WAIT) for f in first]
        clock.now = 1.0
        lone = svc.submit(4, 12)
        time.sleep(0.3)
        assert not lone.done()
        clock.now = 1.2  # past the deadline
        assert lone.result(timeout=5.0) == index.query_count(4, 12)
        snap = svc.metrics.snapshot()
    assert snap.flushes_by_reason["deadline"] == 1
    assert snap.flushes_by_reason["idle"] == 0


def test_half_batch_after_full_batches_waits_to_fill(setup):
    """Closed-loop traffic: two 128-row calls made a 256 batch, so the
    next 128 rows wait for their partner instead of flushing half full."""
    coll, index = setup
    clock = _Clock()
    reports = _Reports()
    st, end = zip(*_queries(12, 512))
    st, end = np.asarray(st), np.asarray(end)
    with BatchingQueryService(
        index, max_batch=256, max_delay_ms=5, clock=clock
    ) as svc:
        for k in range(4):
            clock.now = 0.001 * (k + 1)
            rows = slice(128 * k, 128 * (k + 1))
            svc.submit_many(st[rows], end[rows], on_done=reports)
            if k == 1:
                assert reports.wait(256)
            if k == 2:
                time.sleep(0.2)  # room for the flusher to go out early
                assert svc.queue_depth == 128
                assert len(reports.positions) == 256
        assert reports.wait(512)
        snap = svc.metrics.snapshot()
    assert snap.flushes_by_reason["size"] == 2
    assert snap.flushes_by_reason["idle"] == 0
    assert snap.batch_size_histogram == {256: 2}
    assert snap.completed == 512
    # Construction at 0, first rows at 1 ms, flushes at 2 ms and 4 ms.
    wait = svc.metrics.registry.find("repro_service_formation_wait_seconds")
    assert (wait.count, wait.sum) == (2, pytest.approx(0.002))


class _FlakyMetrics(ServiceMetrics):
    """Metrics whose first ``record_flush`` raises."""

    def __init__(self):
        super().__init__()
        self.armed = True

    def record_flush(self, *args, **kwargs):
        if self.armed:
            self.armed = False
            raise RuntimeError("metrics sink unavailable")
        super().record_flush(*args, **kwargs)


@pytest.mark.parametrize("flush_fails", [False, True])
def test_flusher_survives_a_bookkeeping_error(setup, flush_fails):
    """A raising ``record_flush`` neither strands the batch it was
    recording nor stops the flusher for the batches after it."""
    coll, index = setup
    svc = BatchingQueryService(
        index, max_batch=4, max_delay_ms=NEVER_MS, metrics=_FlakyMetrics()
    )
    try:
        if flush_fails:
            svc.swap_index(object())  # the first flush raises too
        first = _Reports()
        assert svc.submit_many([0, 1, 2, 3], [5, 6, 7, 8], on_done=first) == 0
        assert first.wait(4)
        if flush_fails:
            assert isinstance(first.outcomes[0], Exception)
            svc.swap_index(index)
        later = _Reports()
        st, end = zip(*_queries(13, 8))
        assert svc.submit_many(st, end, on_done=later) == 0
        assert later.wait(8)
        time.sleep(0.05)  # a duplicate report would land by now
        assert sorted(first.positions) == [0, 1, 2, 3]
        assert sorted(later.positions) == list(range(8))
        counts = np.zeros(8, dtype=np.int64)
        seen = 0
        for outcome in later.outcomes:
            n = len(outcome.counts)
            counts[later.positions[seen:seen + n]] = outcome.counts
            seen += n
        assert counts.tolist() == [index.query_count(s, e) for s, e in zip(st, end)]
    finally:
        svc.close()
    assert svc.metrics.completed == 8


# --------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------- #


def test_backpressure_reject(setup):
    coll, index = setup
    qs = _queries(3, 4)
    svc = BatchingQueryService(
        index,
        max_batch=64,
        max_delay_ms=NEVER_MS,
        max_queue=4,
        backpressure="reject",
    )
    try:
        futures = [svc.submit(s, e) for s, e in qs]
        with pytest.raises(QueueFullError):
            svc.submit(0, 1)
        assert svc.metrics.rejected == 1
        assert svc.queue_depth == 4
    finally:
        svc.close()  # drains the four staged queries
    assert [f.result(timeout=WAIT) for f in futures] == [
        index.query_count(s, e) for s, e in qs
    ]
    snap = svc.metrics.snapshot()
    assert snap.rejected == 1
    assert snap.completed == 4


def test_backpressure_block(setup):
    coll, index = setup
    qs = _queries(4, 4)
    svc = BatchingQueryService(
        index,
        max_batch=64,
        max_delay_ms=NEVER_MS,
        max_queue=4,
        backpressure="block",
    )
    futures = [svc.submit(s, e) for s, e in qs]
    blocked_future = []

    def blocked_submit():
        blocked_future.append(svc.submit(7, 9))

    t = threading.Thread(target=blocked_submit)
    t.start()
    time.sleep(0.15)
    assert t.is_alive(), "submit should block while the queue is full"
    assert not blocked_future
    svc.flush()  # make room; the blocked submitter must wake and enqueue
    t.join(timeout=WAIT)
    assert not t.is_alive()
    svc.close()
    assert blocked_future[0].result(timeout=WAIT) == index.query_count(7, 9)
    assert [f.result(timeout=WAIT) for f in futures] == [
        index.query_count(s, e) for s, e in qs
    ]
    assert svc.metrics.snapshot().completed == 5


# --------------------------------------------------------------------- #
# shutdown
# --------------------------------------------------------------------- #


def test_shutdown_drains_staged_work(setup):
    coll, index = setup
    qs = _queries(5, 20)
    svc = BatchingQueryService(index, max_batch=1000, max_delay_ms=NEVER_MS)
    futures = [svc.submit(s, e) for s, e in qs]
    svc.close()  # drain=True default
    assert [f.result(timeout=WAIT) for f in futures] == [
        index.query_count(s, e) for s, e in qs
    ]
    snap = svc.metrics.snapshot()
    assert snap.flushes_by_reason["drain"] >= 1
    assert snap.completed == len(qs)
    with pytest.raises(ServiceClosedError):
        svc.submit(0, 1)
    svc.close()  # idempotent


def test_shutdown_without_drain_fails_pending(setup):
    coll, index = setup
    svc = BatchingQueryService(index, max_batch=1000, max_delay_ms=NEVER_MS)
    futures = [svc.submit(s, e) for s, e in _queries(6, 5)]
    svc.close(drain=False)
    for f in futures:
        assert isinstance(f.exception(timeout=WAIT), ServiceClosedError)
    assert svc.metrics.snapshot().completed == 0


# --------------------------------------------------------------------- #
# result modes and execution paths
# --------------------------------------------------------------------- #


def test_ids_and_checksum_modes(setup):
    coll, index = setup
    qs = _queries(7, 12, beyond=50)  # includes clipped out-of-domain ends
    from repro import QueryBatch

    batch = QueryBatch([s for s, _ in qs], [e for _, e in qs])
    oracle = oracle_result(coll, batch, M)
    with BatchingQueryService(
        index, mode="ids", max_batch=4, max_delay_ms=20
    ) as svc:
        futures = [svc.submit(s, e) for s, e in qs]
        for pos, f in enumerate(futures):
            got = frozenset(int(v) for v in f.result(timeout=WAIT))
            assert got == oracle.id_sets()[pos]
    with BatchingQueryService(
        index, mode="checksum", max_batch=4, max_delay_ms=20
    ) as svc:
        futures = [svc.submit(s, e) for s, e in qs]
        for pos, f in enumerate(futures):
            count, checksum = f.result(timeout=WAIT)
            assert count == oracle.counts[pos]
            assert checksum == oracle.query_checksum(pos)


@pytest.mark.parametrize("strategy", ["query-based", "level-based"])
def test_alternative_strategies(setup, strategy):
    coll, index = setup
    qs = _queries(8, 10)
    with BatchingQueryService(
        index, strategy=strategy, max_batch=5, max_delay_ms=20
    ) as svc:
        futures = [svc.submit(s, e) for s, e in qs]
        assert [f.result(timeout=WAIT) for f in futures] == [
            index.query_count(s, e) for s, e in qs
        ]


def test_parallel_flushes_come_from_the_installed_engine(setup):
    """The service has no parallelism knob: a bare index flushes through
    ``run_strategy``, an installed engine through its backend, and both
    answer identically."""
    from repro.engine import ExecutionEngine

    coll, index = setup
    qs = _queries(9, 128)
    answers = []
    with ExecutionEngine(index, backend="threads", workers=4) as engine:
        for backend in (index, engine):
            with BatchingQueryService(
                backend, max_batch=128, max_delay_ms=NEVER_MS
            ) as svc:
                futures = [svc.submit(s, e) for s, e in qs]
                answers.append([f.result(timeout=WAIT) for f in futures])
    assert answers[0] == answers[1] == [index.query_count(s, e) for s, e in qs]
    with pytest.raises(TypeError, match="parallel_threshold"):
        BatchingQueryService(index, parallel_threshold=32)
    assert not hasattr(svc.metrics.snapshot(), "parallel_flushes")


def test_execution_error_routed_to_futures(setup):
    coll, index = setup
    svc = BatchingQueryService(index, max_batch=2, max_delay_ms=NEVER_MS)
    try:
        good = svc.swap_index(object())  # flushes on this will fail
        futures = [svc.submit(0, 5), svc.submit(3, 9)]
        for f in futures:
            assert f.exception(timeout=WAIT) is not None
        svc.swap_index(good)  # service keeps running afterwards
        recovered = svc.submit(0, 5)
        svc.flush()
        assert recovered.result(timeout=WAIT) == index.query_count(0, 5)
    finally:
        svc.close()
    snap = svc.metrics.snapshot()
    assert snap.failed == 2
    assert snap.completed == 1


# --------------------------------------------------------------------- #
# index swap
# --------------------------------------------------------------------- #


def test_swap_index(setup):
    coll, index = setup
    other = HintIndex(coll, m=M + 2)  # same answers, different hierarchy
    with BatchingQueryService(index, max_batch=4, max_delay_ms=20) as svc:
        old = svc.swap_index(other)
        assert old is index
        assert svc.index is other
        qs = _queries(10, 8)
        futures = [svc.submit(s, e) for s, e in qs]
        assert [f.result(timeout=WAIT) for f in futures] == [
            index.query_count(s, e) for s, e in qs
        ]
    assert svc.metrics.snapshot().index_swaps == 1


# --------------------------------------------------------------------- #
# validation and metrics plumbing
# --------------------------------------------------------------------- #


def test_constructor_validation(setup):
    coll, index = setup
    with pytest.raises(ValueError, match="unknown strategy"):
        BatchingQueryService(index, strategy="nope")
    with pytest.raises(ValueError, match="unknown result mode"):
        BatchingQueryService(index, mode="nope")
    with pytest.raises(ValueError, match="max_batch"):
        BatchingQueryService(index, max_batch=0)
    with pytest.raises(ValueError, match="max_delay_ms"):
        BatchingQueryService(index, max_delay_ms=0)
    with pytest.raises(ValueError, match="max_queue"):
        BatchingQueryService(index, max_queue=0)
    with pytest.raises(ValueError, match="backpressure"):
        BatchingQueryService(index, backpressure="drop")


def test_submit_validation(setup):
    coll, index = setup
    with BatchingQueryService(index) as svc:
        with pytest.raises(ValueError, match="st <= end"):
            svc.submit(9, 3)


def test_metrics_counters_and_snapshot(setup):
    coll, index = setup
    qs = _queries(11, 100)
    metrics = ServiceMetrics()
    with BatchingQueryService(
        index, max_batch=16, max_delay_ms=50, metrics=metrics
    ) as svc:
        futures = [svc.submit(s, e) for s, e in qs]
        [f.result(timeout=WAIT) for f in futures]
    snap = metrics.snapshot()
    assert snap.submitted == snap.completed == 100
    assert snap.flushes == sum(snap.flushes_by_reason.values())
    assert sum(snap.batch_size_histogram.values()) == snap.flushes
    assert snap.queue_depth == 0
    assert snap.max_queue_depth >= 1
    assert 0 < snap.mean_batch_size <= 16
    assert snap.p50_flush_latency <= snap.p99_flush_latency
    p50, p99 = metrics.flush_latency_percentiles(50, 99)
    assert (p50, p99) == (snap.p50_flush_latency, snap.p99_flush_latency)
    assert "submitted=100" in snap.describe()
    assert "BatchingQueryService" in repr(svc)


def test_batch_size_bucket():
    assert [batch_size_bucket(s) for s in (1, 2, 3, 4, 5, 64, 65)] == [
        1, 2, 4, 4, 8, 64, 128,
    ]
    with pytest.raises(ValueError):
        batch_size_bucket(0)


def test_metrics_validation():
    with pytest.raises(ValueError):
        ServiceMetrics(latency_window=0)
    metrics = ServiceMetrics()
    with pytest.raises(ValueError, match="unknown flush reason"):
        metrics.record_flush("bogus", 1, 0.0)
    with pytest.raises(ValueError, match="no flushes"):
        metrics.flush_latency_percentiles(50)
    assert metrics.snapshot().p50_flush_latency is None


# --------------------------------------------------------------------- #
# multi-threaded stress, with a concurrent index swap
# --------------------------------------------------------------------- #


def test_stress_many_clients_with_concurrent_swap(setup):
    coll, index = setup
    ref = HintIndex(coll, m=M)  # ground truth, never swapped
    swap_a = index
    swap_b = HintIndex(coll, m=M + 1)
    n_threads, per_thread = 8, 300
    svc = BatchingQueryService(
        index,
        max_batch=64,
        max_delay_ms=2,
        max_queue=4096,
        backpressure="block",
    )
    errors = []
    collected = [[] for _ in range(n_threads)]
    stop_swapping = threading.Event()

    def client(tid):
        try:
            # out-of-domain ends exercise clipping under concurrency
            for s, e in _queries(100 + tid, per_thread, beyond=64):
                collected[tid].append((s, e, svc.submit(s, e)))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def swapper():
        current = swap_b
        while not stop_swapping.is_set():
            svc.swap_index(current)
            current = swap_a if current is swap_b else swap_b
            time.sleep(0.002)

    threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
    swap_thread = threading.Thread(target=swapper)
    for t in threads:
        t.start()
    swap_thread.start()
    for t in threads:
        t.join(timeout=WAIT)
    stop_swapping.set()
    swap_thread.join(timeout=WAIT)
    svc.close()
    assert not errors
    for tid in range(n_threads):
        assert len(collected[tid]) == per_thread
        for s, e, fut in collected[tid]:
            assert fut.result(timeout=WAIT) == ref.query_count(s, e), (s, e)
    snap = svc.metrics.snapshot()
    assert snap.submitted == snap.completed == n_threads * per_thread
    assert snap.index_swaps >= 1
    assert snap.rejected == 0


def test_stress_exactly_once_under_injected_flush_faults(setup):
    """Every future resolves exactly once even when flushes keep dying.

    A quarter of all flushes raise an injected fault (seeded, so the
    failure pattern is reproducible) while clients and a swapper thread
    hammer the service.  Each submitted query must end up either with a
    correct result or with the injected exception — never lost, never
    both — and the metrics must partition submitted into completed and
    failed with nothing left over.
    """
    from repro import FaultPlan, FaultRule, InjectedFault
    from repro.verify.faults import SITE_FLUSH

    coll, index = setup
    ref = HintIndex(coll, m=M)  # ground truth, never swapped
    swap_a = index
    swap_b = HintIndex(coll, m=M + 1)
    plan = FaultPlan(FaultRule(site=SITE_FLUSH, probability=0.25), seed=7)
    n_threads, per_thread = 6, 200
    svc = BatchingQueryService(
        index,
        max_batch=32,
        max_delay_ms=2,
        max_queue=4096,
        backpressure="block",
        fault_plan=plan,
    )
    errors = []
    collected = [[] for _ in range(n_threads)]
    stop_swapping = threading.Event()

    def client(tid):
        try:
            for s, e in _queries(500 + tid, per_thread):
                collected[tid].append((s, e, svc.submit(s, e)))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def swapper():
        current = swap_b
        while not stop_swapping.is_set():
            svc.swap_index(current)
            current = swap_a if current is swap_b else swap_b
            time.sleep(0.002)

    threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
    swap_thread = threading.Thread(target=swapper)
    for t in threads:
        t.start()
    swap_thread.start()
    for t in threads:
        t.join(timeout=WAIT)
    stop_swapping.set()
    swap_thread.join(timeout=WAIT)
    svc.close()
    assert not errors

    n_ok = n_failed = 0
    for tid in range(n_threads):
        assert len(collected[tid]) == per_thread
        for s, e, fut in collected[tid]:
            assert fut.done(), "future lost across a failed flush"
            exc = fut.exception(timeout=WAIT)
            if exc is None:
                assert fut.result(timeout=WAIT) == ref.query_count(s, e), (s, e)
                n_ok += 1
            else:
                assert isinstance(exc, InjectedFault)
                n_failed += 1

    total = n_threads * per_thread
    assert n_ok + n_failed == total
    snap = svc.metrics.snapshot()
    assert snap.submitted == total
    assert snap.completed == n_ok
    assert snap.failed == n_failed
    assert snap.submitted == snap.completed + snap.failed
    assert svc.queue_depth == 0
    # The fault path was genuinely exercised, and not on every flush.
    assert plan.hits(SITE_FLUSH) >= 1
    assert n_failed < total


# --------------------------------------------------------------------- #
# deadline propagation and bounded-drain close
# --------------------------------------------------------------------- #


class _SlowBackend:
    """execute()-shaped backend that sleeps per flush (drain tests)."""

    def __init__(self, index, delay_s):
        self.index = index
        self.delay_s = delay_s

    def execute(self, batch, *, strategy, mode):
        from repro.core.strategies import run_strategy

        time.sleep(self.delay_s)
        return run_strategy(strategy, self.index, batch, mode=mode)


def test_submit_rejects_already_expired_deadline(setup):
    from repro.service import DeadlineExceededError

    _, index = setup
    with BatchingQueryService(index, max_batch=4) as svc:
        with pytest.raises(DeadlineExceededError):
            svc.submit(0, 10, deadline=time.monotonic() - 0.001)
        assert svc.metrics.snapshot().deadline_dropped == 1


def test_staged_queries_dropped_when_deadline_passes(setup):
    """A query whose deadline expires while staged behind a slow flush
    is dropped unexecuted with the typed error, and counted."""
    from repro.service import DeadlineExceededError

    _, index = setup
    svc = BatchingQueryService(
        _SlowBackend(index, 0.25), max_batch=1, max_delay_ms=1.0
    )
    try:
        blocker = svc.submit(0, 10)  # occupies the flusher for 250ms
        doomed = svc.submit(0, 10, deadline=time.monotonic() + 0.05)
        alive = svc.submit(0, 10, deadline=time.monotonic() + NEVER_MS)
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=WAIT)
        assert blocker.result(timeout=WAIT) == alive.result(timeout=WAIT)
        assert svc.metrics.snapshot().deadline_dropped == 1
    finally:
        svc.close()


def test_close_timeout_mid_drain_resolves_every_future_exactly_once(setup):
    """Regression: a drain timeout expiring mid-flush must resolve every
    outstanding future (error, not hang), each exactly once — even when
    the still-running flusher later finishes the abandoned batch."""
    _, index = setup
    svc = BatchingQueryService(
        _SlowBackend(index, 0.4), max_batch=2, max_delay_ms=1.0,
        max_queue=64,
    )
    futures = [svc.submit(*q) for q in _queries(3, 10)]
    t0 = time.monotonic()
    svc.close(drain=True, timeout=0.2)
    elapsed = time.monotonic() - t0
    # Bounded: one in-flight flush (0.4s) at most, never the full queue.
    assert elapsed < 2.0
    n_ok = n_abandoned = 0
    for fut in futures:
        assert fut.done(), "close(timeout=...) left a future unresolved"
        exc = fut.exception(timeout=WAIT)
        if exc is None:
            fut.result(timeout=WAIT)
            n_ok += 1
        else:
            assert isinstance(exc, ServiceClosedError)
            n_abandoned += 1
    assert n_ok + n_abandoned == len(futures)
    assert n_abandoned >= 1, "timeout never fired; slow down the backend"
    # Exactly-once: give the abandoned flusher time to finish its batch;
    # results for already-failed futures are discarded, not re-set.
    time.sleep(0.6)
    for fut in futures:
        assert fut.done()
    with pytest.raises(ServiceClosedError):
        svc.submit(0, 1)


def test_close_timeout_none_still_drains_fully(setup):
    """No timeout: close() keeps the pre-existing drain-everything
    contract untouched."""
    _, index = setup
    svc = BatchingQueryService(index, max_batch=4, max_delay_ms=NEVER_MS)
    futures = [svc.submit(*q) for q in _queries(4, 10)]
    svc.close(drain=True)
    assert all(f.done() and f.exception() is None for f in futures)
