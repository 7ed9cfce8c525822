"""The served path per read chunk: what it costs, and its traffic controls.

A pipelined client's frames arrive many to a read; the server keeps such
a chunk a batch — one column decode, one screening, one
``submit_many``, one encode per flush — instead of a future, a frame
object and an encode call per request.  The cost spy pins that down by
counting constructions; the rest checks the per-tenant admission and
the in-flight quota, which now decide for a chunk at a time.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time

import pytest

import repro.net.protocol as protocol
import repro.net.server as server_module
import repro.service.service as service_module
from repro import HintIndex, IntervalCollection
from repro.core.strategies import run_strategy
from repro.net import (
    ErrorFrame,
    QueryFrame,
    ResultFrame,
    TenantAdmission,
    decode_payload,
    encode_frame,
    serve_in_thread,
)
from repro.service import BatchingQueryService
from repro.verify.faults import SITE_NET_DECODE, FaultPlan

WAIT = 10.0
_LEN = struct.Struct(">I")


def _index() -> HintIndex:
    return HintIndex(IntervalCollection([0, 4, 10], [3, 9, 15]), m=4)


def _burst(rids, tenant="default", st=0, end=15) -> bytes:
    return b"".join(
        encode_frame(QueryFrame(request_id=rid, tenant=tenant, st=st, end=end))
        for rid in rids
    )


def _exchange(handle, data: bytes, replies: int):
    """One ``sendall`` of *data*, then *replies* raw reply payloads."""
    out = []
    with socket.create_connection((handle.host, handle.port), timeout=WAIT) as sock:
        sock.sendall(data)
        buf = b""
        while len(out) < replies:
            while len(buf) < 4 or len(buf) < 4 + _LEN.unpack_from(buf)[0]:
                piece = sock.recv(1 << 16)
                if not piece:
                    return out, True
                buf += piece
            (length,) = _LEN.unpack_from(buf)
            out.append(buf[4 : 4 + length])
            buf = buf[4 + length :]
    return out, False


class _Counter:
    """Wraps a callable; counts the calls."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


class _SlowBackend:
    def __init__(self, index, delay_s):
        self.index = index
        self.delay_s = delay_s

    def execute(self, batch, *, strategy, mode):
        time.sleep(self.delay_s)
        return run_strategy(strategy, self.index, batch, mode=mode)


# --------------------------------------------------------------------- #
# the cost spy
# --------------------------------------------------------------------- #


def test_pipelined_frames_cost_per_chunk_and_per_flush(monkeypatch):
    """256 QUERY frames in one send: no Future, QueryFrame or ResultFrame
    is built and ``encode_frame`` is never called on the server; there is
    at most one ``submit_many`` per read chunk and one ``write`` per
    report of a flush; the ``net.decode`` site still fires per frame."""
    data = _burst(range(1, 257))  # encoded before the spies go in
    spies = {
        "Future": (service_module, "Future"),
        "QueryFrame": (protocol, "QueryFrame"),
        "ResultFrame": (protocol, "ResultFrame"),
        "encode_frame": (server_module, "encode_frame"),
    }
    for name, (owner, attr) in spies.items():
        spies[name] = _Counter(getattr(owner, attr))
        monkeypatch.setattr(owner, attr, spies[name])
    seen = {"chunks": 0, "writes": 0, "submit_many": 0}
    real_read, real_write = asyncio.StreamReader.read, asyncio.StreamWriter.write
    real_submit_many = BatchingQueryService.submit_many

    async def read(self, n=-1):
        data = await real_read(self, n)
        seen["chunks"] += bool(data)
        return data

    def write(self, data):
        seen["writes"] += 1
        return real_write(self, data)

    def submit_many(self, *args, **kwargs):
        seen["submit_many"] += 1
        return real_submit_many(self, *args, **kwargs)

    monkeypatch.setattr(asyncio.StreamReader, "read", read)
    monkeypatch.setattr(asyncio.StreamWriter, "write", write)
    monkeypatch.setattr(BatchingQueryService, "submit_many", submit_many)
    plan = FaultPlan.once(SITE_NET_DECODE, after=1000)  # armed, never due
    service = BatchingQueryService(
        _index(), mode="count", max_batch=64, max_delay_ms=1.0
    )
    handle = serve_in_thread(service, owns_service=True, fault_plan=plan)
    try:
        replies, _ = _exchange(handle, data, 256)
        flushes = service.metrics.flushes
    finally:
        handle.close()
        monkeypatch.undo()  # the checks below decode frames themselves
    for name in ("Future", "QueryFrame", "ResultFrame", "encode_frame"):
        assert spies[name].calls == 0, f"{name} on the served path"
    assert 1 <= seen["submit_many"] <= seen["chunks"]
    # A flush reports once per chunk it answered: one more report than
    # flushes for each further chunk its batches straddle, at most.
    assert 1 <= seen["writes"] <= flushes + seen["chunks"] - 1
    assert plan.passes(SITE_NET_DECODE) == 256
    frames = [decode_payload(p) for p in replies]
    assert sorted(f.request_id for f in frames) == list(range(1, 257))
    assert all(f == ResultFrame(f.request_id, "count", 3) for f in frames)


def test_decode_fault_mid_burst_answers_what_came_before():
    """The site fires on the 101st frame: 100 results, then the framing
    error, last, then the hang-up."""
    plan = FaultPlan.once(SITE_NET_DECODE, after=100)
    service = BatchingQueryService(
        _index(), mode="count", max_batch=64, max_delay_ms=1.0
    )
    handle = serve_in_thread(service, owns_service=True, fault_plan=plan)
    try:
        replies, hung_up = _exchange(handle, _burst(range(1, 257)), 102)
    finally:
        handle.close()
    frames = [decode_payload(p) for p in replies]
    assert hung_up and len(frames) == 101
    assert sorted(f.request_id for f in frames[:100]) == list(range(1, 101))
    assert all(isinstance(f, ResultFrame) for f in frames[:100])
    last = frames[100]
    assert isinstance(last, ErrorFrame) and last.request_id == 0
    assert last.message.startswith("decode failed:")


# --------------------------------------------------------------------- #
# traffic controls, a chunk at a time
# --------------------------------------------------------------------- #


def test_admission_takes_each_tenants_share_of_a_chunk():
    """Two tenants interleaved in one send, five tokens each and no
    refill: the first five queries of each are admitted, the rest of
    the chunk is refused ``rate_limited`` — as frame by frame."""
    service = BatchingQueryService(
        _index(), mode="count", max_batch=64, max_delay_ms=1.0
    )
    admission = TenantAdmission(rate=0.0, burst=5.0)
    handle = serve_in_thread(service, owns_service=True, admission=admission)
    data = b"".join(
        _burst([rid], tenant=("alpha", "bravo")[rid % 2]) for rid in range(1, 41)
    )
    try:
        replies, _ = _exchange(handle, data, 40)
    finally:
        handle.close()
    frames = {f.request_id: f for f in map(decode_payload, replies)}
    assert sorted(frames) == list(range(1, 41))
    admitted = [r for r in sorted(frames) if isinstance(frames[r], ResultFrame)]
    assert admitted == list(range(1, 11))
    for rid in range(11, 41):
        tenant = ("alpha", "bravo")[rid % 2]
        assert frames[rid] == ErrorFrame(
            rid, "rate_limited", f"tenant {tenant!r} is over its admission rate"
        )


@pytest.mark.parametrize("policy", ["reject", "block"])
def test_a_chunk_larger_than_the_quota(policy):
    """40 queries in one send against 8 slots and a slow flush.
    ``reject``: what fits is staged and answered, the overflow of every
    chunk is shed ``OVERLOAD``; ``block``: the reader stages what fits,
    waits for slots and ends up answering everything."""
    service = BatchingQueryService(
        _SlowBackend(_index(), 0.05), mode="count", max_batch=64,
        max_delay_ms=1.0,
    )
    handle = serve_in_thread(
        service, owns_service=True, max_inflight=8, backpressure=policy
    )
    try:
        replies, _ = _exchange(handle, _burst(range(1, 41)), 40)
    finally:
        handle.close()
    assert handle.server._inflight == 0 and not handle.server._outstanding
    frames = {f.request_id: f for f in map(decode_payload, replies)}
    assert sorted(frames) == list(range(1, 41))
    results = [r for r in sorted(frames) if isinstance(frames[r], ResultFrame)]
    assert all(frames[r].value == 3 for r in results)
    if policy == "block":
        assert results == list(range(1, 41))
    else:
        assert results[:8] == list(range(1, 9)) and len(results) < 40
        shed = [frames[r] for r in sorted(frames) if r not in results]
        assert all(
            f.code == "overload"
            and f.message == "8 queries in flight (quota 8)" for f in shed
        )
