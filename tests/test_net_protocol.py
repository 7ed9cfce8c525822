"""Wire-protocol tests: round-trip totality and malformed-frame safety.

Two layers:

* **Pure codec** (hypothesis) — ``decode(encode(frame)) == frame`` for
  every frame type over the full value domains, and decoding arbitrary
  or corrupted bytes raises :class:`ProtocolError` and nothing else
  (the property the server's single typed error path rests on).
* **Over the socket** — each class of malformed input (truncated length
  prefix, bad magic, wrong version, oversized length prefix, garbage
  body) gets a typed ``bad_request`` error and a closed connection,
  the server survives to answer a fresh client, and no connection is
  leaked (the active-connections gauge returns to zero).  The server
  parses frames out of whatever each read returns, so one pipelined
  stream must be answered identically however the bytes are cut.
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.obs as obs
from repro import HintIndex, IntervalCollection
from repro.net import (
    ConnectionClosedError,
    ErrorFrame,
    MAGIC,
    MAX_FRAME,
    PingFrame,
    PongFrame,
    ProtocolError,
    QueryClient,
    QueryFrame,
    ResultFrame,
    SUPPORTED_VERSIONS,
    VERSION,
    decode_frame,
    decode_payload,
    encode_frame,
    serve_in_thread,
)
from repro.obs.tracecontext import TraceContext
from repro.service import BatchingQueryService

_U64 = st.integers(0, (1 << 64) - 1)
_I64 = st.integers(-(1 << 63), (1 << 63) - 1)

_tenants = st.text(max_size=60).filter(
    lambda s: len(s.encode("utf-8")) <= 255
)

_query_frames = st.builds(
    QueryFrame,
    request_id=_U64,
    tenant=_tenants,
    st=_I64,
    end=_I64,
    mode=st.sampled_from([None, "count", "ids", "checksum"]),
    deadline_ms=st.integers(0, (1 << 32) - 1),
    trace=st.none()
    | st.builds(TraceContext, st.integers(1, (1 << 64) - 1), _U64, st.booleans()),
)

_result_frames = st.one_of(
    st.builds(ResultFrame, request_id=_U64, mode=st.just("count"),
              value=_U64),
    st.builds(
        ResultFrame,
        request_id=_U64,
        mode=st.just("checksum"),
        value=st.tuples(_U64, _U64),
    ),
    st.builds(
        ResultFrame,
        request_id=_U64,
        mode=st.just("ids"),
        value=st.lists(_I64, max_size=50).map(
            lambda ids: tuple(sorted(ids))
        ),
    ),
)

_error_frames = st.builds(
    ErrorFrame,
    request_id=_U64,
    code=st.sampled_from(
        ["bad_request", "deadline_exceeded", "overload", "rate_limited",
         "closing", "internal"]
    ),
    message=st.text(max_size=200),
)

_frames = st.one_of(
    _query_frames,
    _result_frames,
    _error_frames,
    st.builds(PingFrame, request_id=_U64),
    st.builds(PongFrame, request_id=_U64),
)


# --------------------------------------------------------------------- #
# codec round trip
# --------------------------------------------------------------------- #


@given(_frames)
def test_roundtrip_every_frame_type(frame):
    data = encode_frame(frame)
    decoded, consumed = decode_frame(data)
    assert consumed == len(data)
    assert decoded == frame


@given(_result_frames)
def test_result_values_survive_exactly(frame):
    decoded, _ = decode_frame(encode_frame(frame))
    assert decoded.value == frame.value
    assert type(decoded.value) is type(frame.value) or frame.mode == "count"


def test_ids_accepts_numpy_arrays():
    frame = ResultFrame(7, "ids", np.array([3, 1, 2], dtype=np.int64))
    decoded, _ = decode_frame(encode_frame(frame))
    # numpy input is normalized to a tuple on decode (order preserved)
    assert decoded.value == (3, 1, 2)


@given(st.lists(_I64, max_size=50).map(sorted), _U64)
def test_ids_array_encodes_to_the_tuple_encoding_bytes(ids, rid):
    """The server hands ``encode_frame`` the sorted int64 array itself;
    the bytes are those the per-element tuple path has always written
    (spelled out here field by field), and decode still yields a tuple."""
    body = struct.pack(">HBBQBI", MAGIC, VERSION, 0x02, rid, 1, len(ids))
    body += b"".join(struct.pack(">q", v) for v in ids)
    wire = struct.pack(">I", len(body)) + body
    assert encode_frame(ResultFrame(rid, "ids", tuple(ids))) == wire
    array = np.asarray(ids, dtype=np.int64)
    assert encode_frame(ResultFrame(rid, "ids", array)) == wire
    decoded, _ = decode_frame(wire)
    assert decoded.value == tuple(ids) and type(decoded.value) is tuple


# --------------------------------------------------------------------- #
# malformed input: ProtocolError and nothing else
# --------------------------------------------------------------------- #


@given(_frames, st.data())
def test_truncation_always_raises_protocol_error(frame, data):
    encoded = encode_frame(frame)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(ProtocolError):
        decode_frame(encoded[:cut])


@given(_frames, st.integers(0, (1 << 16) - 1))
def test_bad_magic_rejected(frame, magic):
    encoded = bytearray(encode_frame(frame))
    if magic == MAGIC:
        magic ^= 1
    encoded[4:6] = struct.pack(">H", magic)
    with pytest.raises(ProtocolError):
        decode_frame(bytes(encoded))


@given(
    _frames,
    st.integers(0, 255).filter(lambda v: v not in SUPPORTED_VERSIONS),
)
def test_wrong_version_rejected(frame, version):
    encoded = bytearray(encode_frame(frame))
    encoded[6] = version
    with pytest.raises(ProtocolError):
        decode_frame(bytes(encoded))


@given(_frames)
def test_trailing_garbage_rejected(frame):
    encoded = encode_frame(frame)
    payload = encoded[4:] + b"\x00"
    data = struct.pack(">I", len(payload)) + payload
    with pytest.raises(ProtocolError):
        decode_frame(data)


def test_oversized_length_prefix_rejected():
    with pytest.raises(ProtocolError):
        decode_frame(struct.pack(">I", MAX_FRAME + 1) + b"x")
    big = ResultFrame(1, "ids", tuple(range(MAX_FRAME // 8 + 10)))
    with pytest.raises(ProtocolError):
        encode_frame(big)


def _query_payload(version=VERSION, tenant=b"t", mode=0, flags=b"\x00",
                   extra=b""):
    return (
        struct.pack(">HBBQB", MAGIC, version, 0x01, 9, len(tenant)) + tenant
        + struct.pack(">qqBI", 1, 2, mode, 0)
        + (flags if version >= 2 else b"") + extra
    )


_TRACE = TraceContext(5, 6, True).to_wire()

QUERY_REJECTIONS = {
    "bad magic": b"\x00\x00" + _query_payload()[2:],
    "unsupported protocol version": _query_payload(version=7),
    "unknown query flags 0x02": _query_payload(flags=b"\x02"),
    "unknown mode code 9": _query_payload(mode=9),
    "tenant id is not utf-8": _query_payload(tenant=b"\xff\xfe"),
    "1 trailing bytes": _query_payload(extra=b"\x00"),
    "17 trailing bytes": _query_payload(extra=_TRACE),  # flag bit not set
    "1 trailing bytes after": _query_payload(version=1, extra=b"\x00"),
    "bad trace context": _query_payload(flags=b"\x01", extra=_TRACE[:-1] + b"\x80"),
    "wanted 17 bytes at offset 36": _query_payload(flags=b"\x01", extra=_TRACE[:5]),
    "wanted 1 bytes at offset 35": _query_payload()[:-1],
    "wanted 21 bytes at offset 14": _query_payload()[:30],
    "wanted 1 bytes at offset 13": _query_payload()[:13],
    "wanted 9 bytes at offset 4": _query_payload()[:10],
    "wanted 4 bytes at offset 0": _query_payload()[:3],
}


@pytest.mark.parametrize("why", sorted(QUERY_REJECTIONS))
def test_query_decoder_names_each_rejection(why):
    """The QUERY decoder reads at computed offsets; every way a frame can
    be wrong is still refused, with the message that names it."""
    with pytest.raises(ProtocolError, match=why):
        decode_payload(QUERY_REJECTIONS[why])


def test_query_decoder_accepts_what_it_should():
    assert decode_payload(_query_payload(version=1)) == QueryFrame(9, "t", 1, 2, "count")
    traced = decode_payload(_query_payload(flags=b"\x01", extra=_TRACE))
    assert traced.trace == TraceContext(5, 6, True)
    assert decode_payload(_query_payload(mode=255)).mode is None


@given(st.binary(max_size=300))
def test_arbitrary_bytes_never_crash_the_decoder(blob):
    """Totality: random bytes either decode or raise ProtocolError."""
    try:
        decode_payload(blob)
    except ProtocolError:
        pass


# --------------------------------------------------------------------- #
# malformed input over a live connection
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def server():
    obs.configure(enabled=True)
    coll = IntervalCollection([0, 4, 10], [3, 9, 15])
    service = BatchingQueryService(
        HintIndex(coll, m=4), mode="count", max_batch=4, max_delay_ms=1.0
    )
    handle = serve_in_thread(service, owns_service=True)
    yield handle
    handle.close()
    obs.configure(enabled=False)


def _active_connections() -> int:
    gauge = obs.active().registry.find(obs.NET_CONNECTIONS_ACTIVE)
    return 0 if gauge is None else int(gauge.value)


def _wait_no_connections(deadline: float = 5.0) -> int:
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if _active_connections() == 0:
            return 0
        time.sleep(0.01)
    return _active_connections()


MALFORMED = {
    "bad-magic": b"\x00\x00\x00\x08XXXXXXXX",
    "wrong-version": struct.pack(">IHBB", 4, MAGIC, VERSION + 9, 1),
    "garbage-body": struct.pack(">IHBB", 12, MAGIC, VERSION, 0x01)
    + b"\xff" * 8,
    "unknown-type": struct.pack(">IHBBQ", 12, MAGIC, VERSION, 0x7F, 1),
    "oversized-prefix": struct.pack(">I", MAX_FRAME + 1),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_frame_gets_typed_error_and_close(server, kind):
    client = QueryClient(server.host, server.port)
    client.send_raw(MALFORMED[kind])
    frame = client.recv_frame()
    assert isinstance(frame, ErrorFrame)
    assert frame.request_id == 0
    assert frame.code == "bad_request"
    # After a framing error the server hangs up...
    with pytest.raises(ConnectionClosedError):
        client.recv_frame()
    # ...but keeps serving fresh connections,
    with QueryClient(server.host, server.port) as fresh:
        assert fresh.query(0, 15) == 3
    # ...and leaks no connection state.
    assert _wait_no_connections() == 0


def test_truncated_length_prefix_closes_cleanly(server):
    """A peer that dies mid-prefix must not wedge or leak anything."""
    raw = socket.create_connection((server.host, server.port), timeout=5)
    raw.sendall(b"\x00\x00")  # half a length prefix
    raw.close()
    with QueryClient(server.host, server.port) as fresh:
        assert fresh.query(4, 9) == 1
    assert _wait_no_connections() == 0


def test_truncated_body_closes_cleanly(server):
    """A full prefix but a dead peer before the body: same guarantees."""
    raw = socket.create_connection((server.host, server.port), timeout=5)
    raw.sendall(struct.pack(">I", 64) + b"\x01")  # 1 of 64 promised bytes
    raw.close()
    with QueryClient(server.host, server.port) as fresh:
        assert fresh.query(0, 0) == 1
    assert _wait_no_connections() == 0


def test_decode_errors_are_counted(server):
    before_metric = obs.active().registry.find(obs.NET_DECODE_ERRORS)
    before = 0 if before_metric is None else int(before_metric.value)
    client = QueryClient(server.host, server.port)
    client.send_raw(MALFORMED["bad-magic"])
    assert isinstance(client.recv_frame(), ErrorFrame)
    client.close()
    after = obs.active().registry.find(obs.NET_DECODE_ERRORS)
    assert after is not None and int(after.value) == before + 1


# --------------------------------------------------------------------- #
# one pipelined stream, however the bytes are cut
# --------------------------------------------------------------------- #

_INTERVALS = [(0, 3), (4, 9), (10, 15)]
_STREAM = [(rid % 16, min(15, rid % 16 + rid % 5)) for rid in range(1, 301)]
_EXPECTED = {
    rid: sum(s <= end and st <= e for s, e in _INTERVALS)
    for rid, (st, end) in enumerate(_STREAM, start=1)
}


def _stream_frames():
    return [
        encode_frame(QueryFrame(request_id=rid, st=st, end=end))
        for rid, (st, end) in enumerate(_STREAM, start=1)
    ]


def _read_replies(client, count):
    replies = {}
    for _ in range(count):
        frame = client.recv_frame()
        assert isinstance(frame, ResultFrame), frame
        assert frame.request_id not in replies
        replies[frame.request_id] = frame.value
    return replies


def test_chunking_invariance(server):
    """The same 300-frame stream as one segment, one byte at a time, and
    cut at every offset of one frame (the head answered before the tail
    is sent, so the cut really is a read boundary) gets the same replies."""
    frames = _stream_frames()
    stream = b"".join(frames)
    cut_frame = 150
    base = sum(len(f) for f in frames[:cut_frame])
    deliveries = [[stream], [stream[i : i + 1] for i in range(len(stream))]]
    deliveries += [
        [stream[: base + k], stream[base + k :]]
        for k in range(1, len(frames[cut_frame]))
    ]
    for segments in deliveries:
        with QueryClient(server.host, server.port) as client:
            replies = {}
            if len(segments) == 2:
                client.send_raw(segments[0])
                replies = _read_replies(client, cut_frame)
                segments = segments[1:]
            for segment in segments:
                client.send_raw(segment)
            replies.update(_read_replies(client, len(frames) - len(replies)))
        assert replies == _EXPECTED
    assert _wait_no_connections() == 0


def test_malformed_frame_mid_chunk_answers_what_came_before(server):
    """One segment: 50 valid queries, a frame with a bad magic, 10 more
    queries.  Every query ahead of the bad frame is answered, then comes
    the connection-level ``bad_request`` and the hang-up; nothing after
    the bad frame is read."""
    frames = _stream_frames()
    segment = b"".join(frames[:50]) + MALFORMED["bad-magic"] + b"".join(
        frames[50:60]
    )
    with QueryClient(server.host, server.port) as client:
        client.send_raw(segment)
        replies = _read_replies(client, 50)
        last = client.recv_frame()
        with pytest.raises(ConnectionClosedError):
            client.recv_frame()
    assert replies == {rid: _EXPECTED[rid] for rid in range(1, 51)}
    assert isinstance(last, ErrorFrame)
    assert (last.request_id, last.code) == (0, "bad_request")
    assert _wait_no_connections() == 0
