"""``BatchingQueryService.submit_many``: a column of queries per call.

The contract under test: every position of a call is reported to its
``on_done`` exactly once — with its slice of a batch result or with the
exception it failed with — however the call is split over flushes,
whatever fails, and whoever races whom at shutdown; and ``submit()`` is
a one-row call onto the same staging queue, so the two interleave.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import (
    BatchingQueryService,
    HintIndex,
    QueryBatch,
    QueueFullError,
    ServiceClosedError,
)
from repro.cache import AffinityFlushPolicy
from repro.core.strategies import run_strategy
from repro.service import DeadlineExceededError
from repro.verify.faults import (
    SITE_FLUSH,
    SITE_STRATEGY,
    FaultPlan,
    InjectedFault,
)
from tests.conftest import oracle_result, random_collection

M = 10
TOP = (1 << M) - 1
NEVER_MS = 60_000.0
WAIT = 30.0


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    coll = random_collection(rng, 3000, TOP)
    return coll, HintIndex(coll, m=M)


def _queries(seed, n):
    rng = np.random.default_rng(seed)
    st = rng.integers(0, TOP + 1, size=n)
    return st, np.minimum(st + rng.integers(0, TOP // 4, size=n), TOP)


class _Sink:
    """An ``on_done`` that keeps what it is told, per position."""

    def __init__(self, n: int, mode: str = "count"):
        self.mode = mode
        self.told = np.zeros(n, dtype=int)  #: reports per position
        self.values = [None] * n
        self.errors = [None] * n
        self.reports = []  #: positions of each call, in order
        self._lock = threading.Lock()
        self._all = threading.Event()

    def __call__(self, positions, outcome):
        with self._lock:
            self.reports.append(np.array(positions))
            for k, pos in enumerate(positions.tolist()):
                self.told[pos] += 1
                if isinstance(outcome, BaseException):
                    self.errors[pos] = outcome
                elif self.mode == "count":
                    self.values[pos] = int(outcome.counts[k])
                elif self.mode == "checksum":
                    self.values[pos] = (
                        int(outcome.counts[k]), outcome.query_checksum(k)
                    )
                else:
                    self.values[pos] = frozenset(outcome.ids(k).tolist())
            if not isinstance(outcome, BaseException):
                assert len(outcome) == len(positions)
                assert outcome.mode == self.mode
            if self.told.all():
                self._all.set()

    def wait(self):
        assert self._all.wait(WAIT), f"unreported: {np.flatnonzero(self.told == 0)}"
        return self


class _SlowBackend:
    def __init__(self, index, delay_s):
        self.index = index
        self.delay_s = delay_s

    def execute(self, batch, *, strategy, mode):
        time.sleep(self.delay_s)
        return run_strategy(strategy, self.index, batch, mode=mode)


def _expected(coll, st, end, mode):
    oracle = oracle_result(coll, QueryBatch(st, end), M)
    if mode == "count":
        return oracle.counts.tolist()
    if mode == "checksum":
        return [
            (int(c), oracle.query_checksum(i))
            for i, c in enumerate(oracle.counts)
        ]
    return oracle.id_sets()


# --------------------------------------------------------------------- #
# one call, many flushes
# --------------------------------------------------------------------- #


def test_a_call_split_over_three_flushes_reports_each_position_once(setup):
    coll, index = setup
    st, end = _queries(1, 600)
    sink = _Sink(600)
    with BatchingQueryService(index, max_batch=256, max_delay_ms=1.0) as svc:
        assert svc.submit_many(st, end, on_done=sink) == 0
        sink.wait()
        assert svc.metrics.submitted == 600
    assert sink.told.tolist() == [1] * 600
    assert sink.values == _expected(coll, st, end, "count")
    # One report per flush, in staging order: 256 + 256 + 88.
    assert [len(r) for r in sink.reports] == [256, 256, 88]
    assert np.concatenate(sink.reports).tolist() == list(range(600))
    assert svc.metrics.flushes == 3 and not svc._calls


@pytest.mark.parametrize("mode", ["count", "checksum", "ids"])
def test_submit_and_submit_many_interleave_against_the_oracle(setup, mode):
    coll, index = setup
    st, end = _queries(2, 240)
    sinks, futures = [], {}
    with BatchingQueryService(
        index, mode=mode, max_batch=50, max_delay_ms=1.0
    ) as svc:
        for lo in range(0, 240, 40):  # 30 rows as a column, then 10 singly
            sink = _Sink(30, mode)
            svc.submit_many(st[lo : lo + 30], end[lo : lo + 30], on_done=sink)
            sinks.append((lo, sink))
            for i in range(lo + 30, lo + 40):
                futures[i] = svc.submit(int(st[i]), int(end[i]))
        want = _expected(coll, st, end, mode)
        for lo, sink in sinks:
            assert sink.wait().told.tolist() == [1] * 30
            assert sink.values == want[lo : lo + 30]
        for i, future in futures.items():
            got = future.result(timeout=WAIT)
            if mode == "ids":
                got = frozenset(got.tolist())
            assert got == want[i]
    assert svc.metrics.completed == 240


def test_validation_and_closed_service(setup):
    _, index = setup
    svc = BatchingQueryService(index)
    with pytest.raises(ValueError, match="st <= end"):
        svc.submit_many([1, 9], [5, 3], on_done=_Sink(2))
    assert svc.queue_depth == 0 and not svc._calls
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.submit_many([1], [5], on_done=_Sink(1))


# --------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------- #


def test_part_of_a_call_expires_while_staged(setup):
    coll, index = setup
    st, end = _queries(3, 12)
    svc = BatchingQueryService(
        _SlowBackend(index, 0.25), max_batch=4, max_delay_ms=1.0
    )
    sink = _Sink(12)
    try:
        now = time.monotonic()
        deadlines = np.full(12, np.inf)
        deadlines[[1, 5, 6, 11]] = now + 0.05  # lapse behind the first flush
        deadlines[0] = now - 1.0  # already past: refused at admission
        refused = svc.submit_many(st, end, deadlines, on_done=sink)
        assert refused == 1 and sink.told[0] == 1  # told before it returned
        sink.wait()
    finally:
        svc.close()
    assert sink.told.tolist() == [1] * 12
    dropped = [i for i, e in enumerate(sink.errors) if e is not None]
    assert dropped == [0, 5, 6, 11]  # 1 rode the first flush, in time
    assert all(isinstance(sink.errors[i], DeadlineExceededError) for i in dropped)
    assert "before admission" in str(sink.errors[0])
    assert "while staged" in str(sink.errors[5])
    want = _expected(coll, st, end, "count")
    assert [v for i, v in enumerate(sink.values) if i not in dropped] == [
        w for i, w in enumerate(want) if i not in dropped
    ]
    assert svc.metrics.deadline_dropped == 4


# --------------------------------------------------------------------- #
# faults
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("site", [SITE_FLUSH, SITE_STRATEGY])
def test_a_flush_fault_fails_exactly_the_staged_rows(setup, site):
    coll, index = setup
    st, end = _queries(4, 300)
    plan = FaultPlan.once(site)
    sink = _Sink(300)
    with BatchingQueryService(
        index, max_batch=100, max_delay_ms=NEVER_MS, fault_plan=plan
    ) as svc:
        svc.submit_many(st, end, on_done=sink)
        sink.wait()
    assert sink.told.tolist() == [1] * 300
    failed = [i for i, e in enumerate(sink.errors) if e is not None]
    assert failed == list(range(100))  # the first flush, all of it, only it
    assert all(isinstance(sink.errors[i], InjectedFault) for i in failed)
    assert sink.values[100:] == _expected(coll, st, end, "count")[100:]
    snap = svc.metrics.snapshot()
    assert (snap.failed, snap.completed) == (100, 200)


# --------------------------------------------------------------------- #
# shutdown
# --------------------------------------------------------------------- #


def test_drain_timeout_abandonment_races_the_in_flight_flush(setup):
    """close(timeout) fires mid-flush: the staged rest and the batch in
    flight fail ServiceClosedError at once; when the flusher finishes
    that batch later its results find the positions taken."""
    _, index = setup
    st, end = _queries(5, 10)
    svc = BatchingQueryService(
        _SlowBackend(index, 0.4), max_batch=2, max_delay_ms=1.0
    )
    sink = _Sink(10)
    svc.submit_many(st, end, on_done=sink)
    time.sleep(0.05)  # the first flush is executing
    t0 = time.monotonic()
    svc.close(drain=True, timeout=0.2)
    assert time.monotonic() - t0 < 2.0
    assert sink.told.tolist() == [1] * 10, "close() left positions unreported"
    abandoned = [e for e in sink.errors if e is not None]
    assert abandoned and all(isinstance(e, ServiceClosedError) for e in abandoned)
    time.sleep(0.6)  # the abandoned flush completes; nothing is told twice
    assert sink.told.tolist() == [1] * 10
    assert not svc._calls


def test_close_without_drain_fails_what_is_staged(setup):
    _, index = setup
    st, end = _queries(6, 7)
    svc = BatchingQueryService(index, max_batch=64, max_delay_ms=NEVER_MS)
    sink = _Sink(7)
    svc.submit_many(st, end, on_done=sink)
    svc.close(drain=False)
    assert sink.told.tolist() == [1] * 7
    assert all(isinstance(e, ServiceClosedError) for e in sink.errors)


# --------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------- #


def test_reject_refuses_what_does_not_fit(setup):
    coll, index = setup
    st, end = _queries(7, 10)
    svc = BatchingQueryService(
        index, max_batch=64, max_delay_ms=NEVER_MS, max_queue=4,
        backpressure="reject",
    )
    sink = _Sink(10)
    try:
        assert svc.submit_many(st, end, on_done=sink) == 6
        assert svc.queue_depth == 4 and svc.metrics.rejected == 6
        assert sink.told.tolist() == [0] * 4 + [1] * 6
        assert all(isinstance(e, QueueFullError) for e in sink.errors[4:])
    finally:
        svc.close()  # drains the four staged queries
    assert sink.told.tolist() == [1] * 10
    assert sink.values[:4] == _expected(coll, st, end, "count")[:4]


def test_block_stages_what_fits_and_waits_for_room(setup):
    coll, index = setup
    st, end = _queries(8, 10)
    svc = BatchingQueryService(
        index, max_batch=64, max_delay_ms=NEVER_MS, max_queue=4,
        backpressure="block",
    )
    sink = _Sink(10)
    refused = []
    caller = threading.Thread(
        target=lambda: refused.append(svc.submit_many(st, end, on_done=sink))
    )
    caller.start()
    try:
        time.sleep(0.15)
        assert caller.is_alive(), "the call should block on a full queue"
        assert svc.queue_depth == 4
        deadline = time.monotonic() + WAIT
        while caller.is_alive() and time.monotonic() < deadline:
            svc.flush()  # make room; the call wakes and stages some more
            time.sleep(0.01)
        caller.join(timeout=WAIT)
        assert not caller.is_alive() and refused == [0]
    finally:
        svc.close()
    assert sink.told.tolist() == [1] * 10
    assert sink.values == _expected(coll, st, end, "count")
    assert svc.metrics.max_queue_depth <= 4


# --------------------------------------------------------------------- #
# flush policy
# --------------------------------------------------------------------- #


def test_affinity_policy_reorders_across_owners(setup):
    """Three calls whose queries share start buckets; the policy picks
    each flush across all three, and every owner still hears of each of
    its positions once, with the right answer."""
    coll, index = setup
    policy = AffinityFlushPolicy(starvation_bound=3, grain_bits=6)
    calls = []
    with BatchingQueryService(
        index, max_batch=16, max_delay_ms=NEVER_MS, flush_policy=policy
    ) as svc:
        for seed in (11, 12, 13):
            st, end = _queries(seed, 40)
            sink = _Sink(40)
            svc.submit_many(st, end, on_done=sink)
            calls.append((st, end, sink))
    for st, end, sink in calls:
        assert sink.told.tolist() == [1] * 40
        assert sink.values == _expected(coll, st, end, "count")
        # Passed over and picked out of order: not the staging order.
    mixed = [r.tolist() for _, _, s in calls for r in s.reports]
    assert any(r != sorted(r) or r[-1] - r[0] >= len(r) for r in mixed)
    assert policy.flushes >= 8
