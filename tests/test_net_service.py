"""Server-policy tests: admission, quotas, deadlines, and shutdown.

Where :mod:`tests.test_net_protocol` proves the wire format and
:mod:`tests.test_net_differential` proves result transparency, this file
proves the *control plane* of the serving front end:

* the token-bucket math (fake clock, no sleeps),
* per-tenant admission isolation under genuinely concurrent clients,
* deadline propagation observable from the outside via the
  ``repro_net_deadline_dropped_total`` counter,
* reject-mode backpressure: typed ``OVERLOAD`` for the query over quota
  while the accepted in-flight query still completes,
* the per-flush reply path: a result too large for a frame, the
  ``request_timeout`` sweep, a client that stops reading its answers
  (slots are held until ``drain()`` returns), and
* clean drain on server close — in-flight work is answered, the close
  is bounded (also in the middle of a pipelined burst), and idle
  connections never stall it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro import HintIndex, IntervalCollection
from repro.core.strategies import run_strategy
from repro.net import (
    ConnectionClosedError,
    DeadlineExceededError,
    ErrorFrame,
    InternalServerError,
    MAX_FRAME,
    OverloadError,
    PingFrame,
    PongFrame,
    QueryClient,
    QueryFrame,
    RateLimitedError,
    ResultFrame,
    TenantAdmission,
    TokenBucket,
    encode_frame,
    serve_in_thread,
)
from repro.service import BatchingQueryService

WAIT = 10.0


@pytest.fixture(scope="module", autouse=True)
def _obs_enabled():
    obs.configure(enabled=True)
    yield
    obs.configure(enabled=False)


def _counter(name: str, **labels) -> int:
    metric = obs.active().registry.find(name, **labels)
    return 0 if metric is None else int(metric.value)


def _small_index(m: int = 4) -> HintIndex:
    coll = IntervalCollection([0, 4, 10], [3, 9, 15])
    return HintIndex(coll, m=m)


class _SlowBackend:
    """execute()-shaped backend that sleeps per flush (drain tests)."""

    def __init__(self, index, delay_s):
        self.index = index
        self.delay_s = delay_s

    def execute(self, batch, *, strategy, mode):
        time.sleep(self.delay_s)
        return run_strategy(strategy, self.index, batch, mode=mode)


class _Probe(threading.Thread):
    """Run one client call on a thread; capture the result or error."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self._fn = fn
        self.result = None
        self.error = None
        self.start()

    def join_and_check(self):
        self.join(timeout=WAIT)
        assert not self.is_alive(), "client call hung"
        if self.error is not None:
            raise self.error
        return self.result

    def run(self):
        try:
            self.result = self._fn()
        except BaseException as exc:  # re-raised on join_and_check
            self.error = exc


# --------------------------------------------------------------------- #
# token-bucket math (fake clock)
# --------------------------------------------------------------------- #


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t


def test_bucket_burst_then_sustained_rate():
    clock = _FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock.now)
    # The full burst is admitted instantly...
    assert [bucket.try_acquire() for _ in range(5)] == [True] * 4 + [False]
    # ...then exactly rate tokens/second trickle back.
    clock.t = 1.0
    assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]
    # Refill is capped at the burst, however long the idle gap.
    clock.t = 1000.0
    assert [bucket.try_acquire() for _ in range(5)] == [True] * 4 + [False]


def test_bucket_zero_rate_never_refills():
    clock = _FakeClock()
    bucket = TokenBucket(rate=0.0, burst=2.0, clock=clock.now)
    assert bucket.try_acquire() and bucket.try_acquire()
    clock.t = 1e9
    assert not bucket.try_acquire()


def test_bucket_stamp_never_moves_backwards():
    """Regression: two racing callers could store their clock readings
    out of order (2.0, then 1.0); the next refill then counted the
    second between them twice and granted tokens nobody had earned."""
    clock = _FakeClock()
    bucket = TokenBucket(rate=1.0, burst=10.0, clock=clock.now)
    assert all(bucket.try_acquire() for _ in range(10))  # t=0: drained
    clock.t = 2.0  # two seconds' worth
    assert [bucket.try_acquire() for _ in range(3)] == [True, True, False]
    clock.t = 1.0  # the late reading earns nothing ...
    assert not bucket.try_acquire()
    clock.t = 2.0  # ... and neither does catching up with the stamp
    assert not bucket.try_acquire()


def test_bucket_grants_a_chunk_what_it_has():
    clock = _FakeClock()
    bucket = TokenBucket(rate=0.0, burst=6.0, clock=clock.now)
    assert bucket.try_acquire(4) == 4
    assert bucket.try_acquire(4) == 2  # partial: the rest of the chunk waits
    assert bucket.try_acquire(4) == 0
    adm = TenantAdmission(rate=0.0, burst=3.0, overrides={"free": (None, 1.0)})
    assert adm.try_admit("free", 500) == 500
    assert [adm.try_admit("metered", 2) for _ in range(3)] == [2, 1, 0]


def test_bucket_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        TokenBucket(rate=-1.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.0)
    with pytest.raises(ValueError):
        TenantAdmission(rate=-1.0)
    with pytest.raises(ValueError):
        TenantAdmission(rate=1.0, burst=0.0)


def test_tenant_admission_overrides_and_unlimited_default():
    clock = _FakeClock()
    adm = TenantAdmission(
        rate=None, overrides={"metered": (0.0, 2.0)}, clock=clock.now
    )
    # Default-rate None: unlimited, no bucket is even materialized.
    assert all(adm.try_admit("free") for _ in range(100))
    assert adm.bucket("free") is None
    # The override meters its tenant without touching the others.
    assert adm.try_admit("metered") and adm.try_admit("metered")
    assert not adm.try_admit("metered")
    assert all(adm.try_admit("free") for _ in range(10))
    # Buckets are cached per tenant, not rebuilt per call.
    assert adm.bucket("metered") is adm.bucket("metered")


# --------------------------------------------------------------------- #
# per-tenant admission over the socket, concurrent clients
# --------------------------------------------------------------------- #


def test_per_tenant_buckets_isolate_concurrent_tenants():
    """rate=0 buckets make admission deterministic: each tenant gets
    exactly ``burst`` successes however its queries interleave with the
    other tenant's — one tenant's flood cannot spend another's budget."""
    service = BatchingQueryService(
        _small_index(), mode="count", max_batch=8, max_delay_ms=1.0
    )
    admission = TenantAdmission(rate=0.0, burst=3.0)
    handle = serve_in_thread(
        service, owns_service=True, admission=admission
    )

    def tenant_run(tenant):
        ok = limited = 0
        with QueryClient(handle.host, handle.port, tenant=tenant) as cl:
            for _ in range(6):
                try:
                    assert cl.query(0, 15) == 3
                    ok += 1
                except RateLimitedError:
                    limited += 1
        return ok, limited

    before = _counter(obs.NET_ADMISSION_REJECTED)
    try:
        probes = [
            _Probe(lambda t=t: tenant_run(t)) for t in ("alpha", "beta")
        ]
        outcomes = [p.join_and_check() for p in probes]
    finally:
        handle.close()
    assert outcomes == [(3, 3), (3, 3)]
    assert _counter(obs.NET_ADMISSION_REJECTED) == before + 6


# --------------------------------------------------------------------- #
# deadline propagation, observed from outside
# --------------------------------------------------------------------- #


def test_expired_deadline_gets_typed_error_and_bumps_counter():
    """A query staged behind a slow flush whose deadline lapses is
    answered DEADLINE_EXCEEDED (never executed, never hung) and shows
    up in ``repro_net_deadline_dropped_total``."""
    service = BatchingQueryService(
        _SlowBackend(_small_index(), 0.3),
        mode="count",
        max_batch=1,
        max_delay_ms=1.0,
    )
    handle = serve_in_thread(service, owns_service=True)
    before = _counter(obs.NET_DEADLINE_DROPPED)
    try:
        blocker_client = QueryClient(handle.host, handle.port)
        doomed_client = QueryClient(handle.host, handle.port)
        with blocker_client, doomed_client:
            blocker = _Probe(lambda: blocker_client.query(0, 15))
            time.sleep(0.1)  # blocker's flush is now occupying the index
            with pytest.raises(DeadlineExceededError):
                doomed_client.query(0, 15, deadline_ms=50)
            assert blocker.join_and_check() == 3
    finally:
        handle.close()
    assert _counter(obs.NET_DEADLINE_DROPPED) == before + 1


# --------------------------------------------------------------------- #
# reject-mode overload
# --------------------------------------------------------------------- #


def test_reject_mode_sheds_typed_while_inflight_completes():
    """With max_inflight=1 and reject backpressure, the second
    concurrent query is shed with typed OVERLOAD immediately — and the
    accepted in-flight query still completes normally."""
    service = BatchingQueryService(
        _SlowBackend(_small_index(), 0.4),
        mode="count",
        max_batch=1,
        max_delay_ms=1.0,
    )
    handle = serve_in_thread(
        service,
        owns_service=True,
        max_inflight=1,
        backpressure="reject",
    )
    before = _counter(obs.NET_OVERLOAD_SHED)
    try:
        accepted_client = QueryClient(handle.host, handle.port)
        shed_client = QueryClient(handle.host, handle.port)
        with accepted_client, shed_client:
            accepted = _Probe(lambda: accepted_client.query(0, 15))
            time.sleep(0.15)  # the accepted query now holds the quota
            t0 = time.monotonic()
            with pytest.raises(OverloadError):
                shed_client.query(0, 15)
            # The shed is immediate, not queued behind the slow flush.
            assert time.monotonic() - t0 < 0.3
            assert accepted.join_and_check() == 3
    finally:
        handle.close()
    assert _counter(obs.NET_OVERLOAD_SHED) == before + 1


# --------------------------------------------------------------------- #
# the per-flush reply path
# --------------------------------------------------------------------- #


def _point_index(copies: int) -> HintIndex:
    """*copies* identical intervals [5, 5]: [0, 15] returns them all."""
    return HintIndex(
        IntervalCollection(np.full(copies, 5), np.full(copies, 5)), m=4
    )


def _queries(rids, st=0, end=15) -> bytes:
    return b"".join(
        encode_frame(QueryFrame(request_id=rid, st=st, end=end))
        for rid in rids
    )


def test_result_larger_than_a_frame_gets_a_typed_error():
    """140k ids need a 1.07 MiB RESULT frame.  The request is answered
    INTERNAL, naming the size and the bound; the connection stays open
    and the one quota slot is free again for the next query."""
    service = BatchingQueryService(
        _point_index(140_000), mode="ids", max_batch=1, max_delay_ms=1.0
    )
    handle = serve_in_thread(service, owns_service=True, max_inflight=1)
    try:
        with QueryClient(handle.host, handle.port, timeout=WAIT) as client:
            with pytest.raises(InternalServerError) as caught:
                client.query(0, 15)
            assert "(1120017 bytes)" in str(caught.value)
            assert f"{MAX_FRAME}-byte" in str(caught.value)
            assert client.query(0, 4) == ()
    finally:
        handle.close()


def test_timeout_sweep_answers_once_and_drops_the_late_result():
    """A request stuck behind a 0.6 s flush is answered INTERNAL by the
    sweep of a 0.2 s ``request_timeout``; its slot is released when that
    answer is written, and the result that arrives later goes nowhere —
    the next frame on the connection is the PONG, not a stale RESULT."""
    service = BatchingQueryService(
        _SlowBackend(_small_index(), 0.6),
        mode="count",
        max_batch=1,
        max_delay_ms=1.0,
    )
    handle = serve_in_thread(
        service, owns_service=True, request_timeout=0.2
    )
    ok_before = _counter(obs.NET_REQUESTS, status="ok")
    try:
        with QueryClient(handle.host, handle.port, timeout=WAIT) as client:
            t0 = time.monotonic()
            with pytest.raises(InternalServerError, match="within 0.2s"):
                client.query(0, 15)
            assert 0.2 <= time.monotonic() - t0 < 0.5
            time.sleep(0.6)  # the flush finishes; its result is dropped
            assert handle.server._inflight == 0
            client.send_raw(encode_frame(PingFrame(99)))
            assert client.recv_frame() == PongFrame(99)
    finally:
        handle.close()
    assert _counter(obs.NET_REQUESTS, status="ok") == ok_before


def _wait_stalled(service, quiet_s: float = 0.3) -> int:
    """Block until no query has been submitted for *quiet_s*."""
    seen, since = service.metrics.submitted, time.monotonic()
    while time.monotonic() - since < quiet_s:
        time.sleep(0.02)
        if service.metrics.submitted != seen:
            seen, since = service.metrics.submitted, time.monotonic()
    return seen


@pytest.mark.parametrize("policy", ["block", "reject"])
def test_client_that_stops_reading_holds_its_slots(policy):
    """60 queries of 400 kB of ids each (24 MB, several times what the
    kernel buffers for a socket), from a client that reads nothing until
    all are sent.  Once the kernel's buffers are full the writer
    sits in ``drain()`` and its burst keeps its slots: block mode stops
    consuming the socket, reject mode sheds typed OVERLOAD.  When the
    client reads again every request has exactly one answer."""
    total, quota = 60, 4
    service = BatchingQueryService(
        _point_index(50_000), mode="ids", max_batch=quota, max_delay_ms=1.0
    )
    handle = serve_in_thread(
        service, owns_service=True, max_inflight=quota, backpressure=policy
    )
    before = service.metrics.submitted  # the series is process-wide
    try:
        with QueryClient(handle.host, handle.port, timeout=WAIT) as client:
            for rid in range(1, total + 1, quota):
                client.send_raw(_queries(range(rid, rid + quota)))
                time.sleep(0.005)
            submitted = _wait_stalled(service) - before
            assert handle.server._inflight == quota
            if policy == "block":
                assert submitted < total
            answers = [client.recv_frame() for _ in range(total)]
    finally:
        handle.close()
    assert sorted(f.request_id for f in answers) == list(range(1, total + 1))
    results = [f for f in answers if isinstance(f, ResultFrame)]
    assert all(len(f.value) == 50_000 for f in results)
    shed = [f for f in answers if isinstance(f, ErrorFrame)]
    assert all(f.code == "overload" for f in shed)
    if policy == "block":
        assert not shed
    else:
        assert shed and len(results) >= submitted


# --------------------------------------------------------------------- #
# clean drain on close
# --------------------------------------------------------------------- #


def test_close_drains_inflight_queries_to_completion():
    """Queries in flight when close() begins are answered with their
    results — drain means no accepted work is dropped on the floor."""
    service = BatchingQueryService(
        _SlowBackend(_small_index(), 0.3),
        mode="count",
        max_batch=8,
        max_delay_ms=5.0,
    )
    handle = serve_in_thread(service, owns_service=True)
    clients = [QueryClient(handle.host, handle.port) for _ in range(3)]
    try:
        probes = [_Probe(lambda c=c: c.query(0, 15)) for c in clients]
        time.sleep(0.1)  # all three are staged or flushing
        t0 = time.monotonic()
        handle.close(drain=True, timeout=WAIT)
        assert time.monotonic() - t0 < 5.0
        assert [p.join_and_check() for p in probes] == [3, 3, 3]
    finally:
        for client in clients:
            client.close()


def test_close_is_fast_with_idle_connections():
    """An idle connection (blocked in read) must not stall close(); the
    peer then observes a clean EOF, not a hang."""
    service = BatchingQueryService(
        _small_index(), mode="count", max_batch=4, max_delay_ms=1.0
    )
    handle = serve_in_thread(service, owns_service=True)
    client = QueryClient(handle.host, handle.port)
    try:
        assert client.query(0, 15) == 3
        t0 = time.monotonic()
        handle.close()
        assert time.monotonic() - t0 < 2.0
        with pytest.raises((ConnectionClosedError, OSError)):
            client.query(0, 15)
    finally:
        client.close()


def test_close_during_a_pipelined_burst_answers_everything_it_read():
    """close() lands in the middle of 3000 pipelined queries.  Whatever
    the server read before it stopped is answered — a result, or a typed
    ``closing`` — so the answered ids are exactly 1..K, and K covers
    every query the service admitted."""
    service = BatchingQueryService(
        _SlowBackend(_small_index(), 0.02),
        mode="count",
        max_batch=64,
        max_delay_ms=1.0,
    )
    handle = serve_in_thread(service, owns_service=True, max_inflight=256)
    before = service.metrics.submitted  # the series is process-wide
    answers = []
    with QueryClient(handle.host, handle.port, timeout=WAIT) as client:
        client.send_raw(_queries(range(1, 3001)))
        answers.append(client.recv_frame())  # the burst is under way
        closer = _Probe(lambda: handle.close(drain=True, timeout=WAIT))
        with pytest.raises(ConnectionClosedError):
            while True:
                answers.append(client.recv_frame())
        closer.join_and_check()
    assert sorted(f.request_id for f in answers) == list(
        range(1, len(answers) + 1)
    )
    assert service.metrics.submitted - before <= len(answers) < 3000
    for frame in answers:
        if isinstance(frame, ResultFrame):
            assert frame.value == 3
        else:
            assert isinstance(frame, ErrorFrame) and frame.code == "closing"
    assert handle.server._inflight == 0 and not handle.server._outstanding
