"""Differential tests of the column codec against the frame codec.

The server decodes, screens and answers a read chunk's QUERY frames as
columns (:func:`decode_queries`, :func:`encode_results`,
:func:`encode_errors`); :func:`decode_payload` and :func:`encode_frame`
stay the definition of what is valid and of every byte written.  Two
layers, as in :mod:`tests.test_net_protocol`:

* **Pure codec** (hypothesis) — walking a buffer a run at a time accepts
  exactly the frames the per-frame decoder accepts, with the same
  fields, and stops where it stops; the column encoders write the bytes
  of one ``encode_frame`` per row and refuse the rows it raises for,
  with its message.
* **The connection handler** — random streams (v1 and v2 frames,
  tenants of different lengths, traced frames, a PING between queries,
  ``st > end``, a wrong mode, a frame type no client sends, and
  possibly a malformed frame) are answered as a per-frame reference
  model says: the same reply bytes per request id, the same framing
  error, and that one last — wherever the read boundary falls.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HintIndex, IntervalCollection, QueryBatch
from repro.core.strategies import run_strategy
from repro.net import (
    ErrorFrame,
    MAGIC,
    MAX_FRAME,
    MODE_CODES,
    MODE_DEFAULT,
    PingFrame,
    PongFrame,
    ProtocolError,
    QueryFrame,
    QueryServer,
    ResultFrame,
    TraceContext,
    decode_payload,
    encode_frame,
)
from repro.net.protocol import (
    QueryColumns,
    decode_queries,
    encode_errors,
    encode_results,
)
from repro.service import BatchingQueryService

M = 6
TOP = (1 << M) - 1
MODES = ("count", "checksum", "ids")
_LEN = struct.Struct(">I")

# --------------------------------------------------------------------- #
# streams
# --------------------------------------------------------------------- #

#: Different lengths, multi-byte, one the ``S`` dtype would shorten.
TENANTS = [b"a", b"default", b"tenant-b", "über".encode(), b"x" * 40,
           b"nul\x00", b"a\x00b", b""]


def _query(rid, tenant=b"default", st_=1, end=5, mode=MODE_DEFAULT,
           deadline_ms=0, version=2, flags=b"\x00", extra=b"") -> bytes:
    """One raw QUERY frame, valid or not, length prefix included."""
    payload = (
        struct.pack(">HBBQB", MAGIC, version, 0x01, rid, len(tenant)) + tenant
        + struct.pack(">qqBI", st_, end, mode, deadline_ms)
        + (flags if version >= 2 else b"") + extra
    )
    return _LEN.pack(len(payload)) + payload


_TRACE = TraceContext(77, 5, True).to_wire()

#: kind -> frame builder; everything the server answers per request.
ANSWERED = {
    "plain": lambda rid, t, a, b: _query(rid, t, a, a + b),
    "deadline": lambda rid, t, a, b: _query(rid, t, a, a + b, deadline_ms=60_000),
    "v1": lambda rid, t, a, b: _query(rid, t, a, a + b, version=1),
    "traced": lambda rid, t, a, b: _query(
        rid, t, a, a + b, flags=b"\x01", extra=_TRACE
    ),
    "reversed": lambda rid, t, a, b: _query(rid, t, a + b + 1, a),
    "count": lambda rid, t, a, b: _query(rid, t, a, a + b, MODE_CODES["count"]),
    "ids": lambda rid, t, a, b: _query(rid, t, a, a + b, MODE_CODES["ids"]),
    "ping": lambda rid, t, a, b: encode_frame(PingFrame(rid)),
    "stray": lambda rid, t, a, b: encode_frame(ResultFrame(rid, "count", a)),
}
#: kind -> frame that ends the stream with a framing error.
FATAL = {
    "bad-flag": lambda rid, t: _query(rid, t, flags=b"\x02"),
    "bad-mode": lambda rid, t: _query(rid, t, mode=9),
    "bad-magic": lambda rid, t: b"\x00\x00\x00\x04\xde\xad\xbe\xef",
    "bad-utf8": lambda rid, t: _query(rid, b"\xff\xfe" + t),
    "trailing": lambda rid, t: _query(rid, t, extra=b"\x00"),
    "hostile-length": lambda rid, t: _LEN.pack(MAX_FRAME + 1) + b"xx",
}

_items = st.tuples(
    st.sampled_from(sorted(ANSWERED) + ["plain"] * 8),
    st.sampled_from(TENANTS + [b"default"] * 6),
    st.integers(0, TOP + 20),
    st.integers(0, 30),
)


@st.composite
def _streams(draw):
    """(frames, index of the fatal frame or None); request id = position + 1."""
    items = draw(st.lists(_items, min_size=1, max_size=40))
    frames = [
        ANSWERED[kind](rid, tenant, a, b)
        for rid, (kind, tenant, a, b) in enumerate(items, start=1)
    ]
    fatal = None
    if draw(st.booleans()):
        fatal = draw(st.integers(0, len(frames)))
        kind = draw(st.sampled_from(sorted(FATAL)))
        frames.insert(fatal, FATAL[kind](999_999, draw(st.sampled_from(TENANTS))))
    return frames, fatal


def _split(buf: bytes):
    """(frames, goodbye message) the per-frame decoder makes of *buf*."""
    frames, pos = [], 0
    while len(buf) - pos >= 4:
        (length,) = _LEN.unpack_from(buf, pos)
        if length > MAX_FRAME:
            return frames, (
                f"frame of {length} bytes exceeds the {MAX_FRAME}-byte bound"
            )
        if len(buf) - pos - 4 < length:
            break
        try:
            frames.append(decode_payload(buf[pos + 4 : pos + 4 + length]))
        except ProtocolError as exc:
            return frames, str(exc)
        pos += 4 + length
    return frames, None


# --------------------------------------------------------------------- #
# pure codec
# --------------------------------------------------------------------- #


def _rows(cols: QueryColumns):
    for i in range(len(cols)):
        code = int(cols.mode[i])
        yield QueryFrame(
            int(cols.request_id[i]),
            cols.tenants[cols.tenant_of[i]],
            int(cols.st[i]),
            int(cols.end[i]),
            None if code == MODE_DEFAULT else
            {v: k for k, v in MODE_CODES.items()}[code],
            int(cols.deadline_ms[i]),
            None if cols.traces is None else cols.traces[i],
        )


@settings(max_examples=200, deadline=None)
@given(_streams(), st.integers(0, 60))
def test_runs_decode_what_the_frame_decoder_decodes(stream, chop):
    """A walk that takes a run where there is one and a single frame
    through ``decode_payload`` where there is not sees the same frames,
    in order, and fails on the same frame with the same message."""
    frames, _ = stream
    buf = b"".join(frames)
    buf = buf[: len(buf) - chop] if chop < len(buf) else buf
    want, goodbye = _split(buf)
    got, pos, failed = [], 0, None
    while len(buf) - pos >= 4 and failed is None:
        (length,) = _LEN.unpack_from(buf, pos)
        if length > MAX_FRAME or len(buf) - pos - 4 < length:
            break
        run = decode_queries(buf, pos, length)
        if run is not None:
            assert len(run) >= 1 and run.traces is None
            got.extend(_rows(run))
            pos += len(run) * (4 + length)
            continue
        try:
            frame = decode_payload(buf[pos + 4 : pos + 4 + length])
        except ProtocolError as exc:
            failed = str(exc)
            continue
        if isinstance(frame, QueryFrame):
            got.extend(_rows(QueryColumns.of(frame)))
        else:
            got.append(frame)
        pos += 4 + length
    assert got == want
    if failed is not None:
        assert failed == goodbye


def test_a_run_takes_every_plain_frame_at_once():
    """128 same-shape frames are one run, two tenants and all."""
    frames = [
        _query(rid, (b"alpha", b"bravo")[rid % 2], rid, rid + 3)
        for rid in range(1, 129)
    ]
    buf = b"".join(frames) + _query(500, b"alpha")[:-3]  # a partial tail
    run = decode_queries(buf, 0, len(frames[0]) - 4)
    assert len(run) == 128 and sorted(run.tenants) == ["alpha", "bravo"]
    assert list(_rows(run)) == [decode_payload(f[4:]) for f in frames]
    head = decode_queries(buf, 0, len(frames[0]) - 4, limit=3)
    tail = decode_queries(buf, 3 * len(frames[0]), len(frames[0]) - 4)
    assert (len(head), len(tail)) == (3, 125)
    assert list(_rows(QueryColumns.concat([head, tail]))) == list(_rows(run))


_U64 = st.integers(0, (1 << 64) - 1)
_I64 = st.integers(-(1 << 63), (1 << 63) - 1)


def _frame_or_error(frame, max_frame):
    try:
        return encode_frame(frame, max_frame=max_frame), None
    except ProtocolError as exc:
        return b"", str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_U64, st.lists(_I64, max_size=12)), max_size=20),
    st.sampled_from(MODES),
    st.sampled_from([64, MAX_FRAME]),
)
def test_result_columns_encode_to_the_frame_bytes(rows, mode, max_frame):
    """Row by row the bytes of ``encode_frame``; a row it raises for (a
    negative checksum, ids beyond the frame bound) is left out and
    refused with its message."""
    rids = np.array([rid for rid, _ in rows], dtype=np.uint64)
    ids = [np.array(v, dtype=np.int64) for _, v in rows]
    counts = np.array([len(v) for v in ids], dtype=np.int64)
    sums = np.array(
        [np.bitwise_xor.reduce(v) if len(v) else 0 for v in ids], dtype=np.int64
    )
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    flat = np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
    values = {
        "count": counts.tolist(),
        "checksum": list(zip(counts.tolist(), sums.tolist())),
        "ids": [np.sort(v) for v in ids],
    }[mode]
    want = [
        _frame_or_error(ResultFrame(int(rid), mode, value), max_frame)
        for rid, value in zip(rids.tolist(), values)
    ]
    data, unsent = encode_results(
        rids, mode, counts,
        sums if mode == "checksum" else None,
        flat if mode == "ids" else None,
        offsets if mode == "ids" else None,
        max_frame=max_frame,
    )
    assert data == b"".join(frame for frame, _ in want)
    assert unsent == [(i, why) for i, (_, why) in enumerate(want) if why]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_U64, max_size=20),
    st.sampled_from(["bad_request", "overload", "internal", "closing"]),
    st.text(max_size=80),
    st.integers(1, 800),
)
def test_error_columns_encode_to_the_frame_bytes(rids, code, message, repeat):
    message *= repeat  # up to past the u16 length, where it is cut
    assert encode_errors(np.array(rids, dtype=np.uint64), code, message) == (
        b"".join(encode_frame(ErrorFrame(rid, code, message)) for rid in rids)
    )
    with pytest.raises(ProtocolError):
        encode_errors([1], "teapot", "")


# --------------------------------------------------------------------- #
# the connection handler
# --------------------------------------------------------------------- #


class _Pipe:
    """The stream pair of one connection: ``read`` hands out the given
    chunks, one per call, then EOF; ``write`` collects the replies."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.written = []
        self.closed = False

    async def read(self, _n):
        await asyncio.sleep(0)
        return self.chunks.pop(0) if self.chunks else b""

    def write(self, data):
        self.written.append(bytes(data))

    async def drain(self):
        pass

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


@pytest.fixture(scope="module", params=MODES)
def wire(request):
    """(mode, index, converse): a started server whose connection
    handler ``converse(chunks)`` drives with exact read boundaries."""
    mode = request.param
    rng = np.random.default_rng(7)
    st_ = rng.integers(0, TOP + 1, 200)
    index = HintIndex(
        IntervalCollection(st_, np.minimum(st_ + rng.integers(0, 9, 200), TOP)),
        m=M,
    )
    loop = asyncio.new_event_loop()
    service = BatchingQueryService(
        index, mode=mode, max_batch=16, max_delay_ms=0.2
    )
    server = QueryServer(service, owns_service=True)
    loop.run_until_complete(server.start())

    def converse(chunks):
        pipe = _Pipe(chunks)
        loop.run_until_complete(
            asyncio.wait_for(server._on_connection(pipe, pipe), 30)
        )
        assert pipe.closed
        return pipe.written

    yield mode, index, converse
    loop.run_until_complete(server.stop())
    loop.close()


def _reference(buf: bytes, mode: str, index):
    """Per frame, with the frame codec: ({request id: reply bytes},
    goodbye bytes or None) — what the server owes for *buf*."""
    frames, goodbye = _split(buf)
    replies = {}
    for frame in frames:
        if isinstance(frame, PingFrame):
            reply = PongFrame(frame.request_id)
        elif not isinstance(frame, QueryFrame):
            reply = ErrorFrame(
                frame.request_id, "bad_request",
                f"unexpected {type(frame).__name__} from client",
            )
        elif frame.st > frame.end:
            reply = ErrorFrame(
                frame.request_id, "bad_request",
                f"query must have st <= end (got [{frame.st}, {frame.end}])",
            )
        elif frame.mode not in (None, mode):
            reply = ErrorFrame(
                frame.request_id, "bad_request",
                f"server executes mode {mode!r}, not {frame.mode!r}",
            )
        else:
            result = run_strategy(
                "partition-based", index,
                QueryBatch([frame.st], [frame.end]), mode=mode,
            )
            value = {
                "count": lambda: int(result.counts[0]),
                "checksum": lambda: (
                    int(result.counts[0]), result.query_checksum(0)
                ),
                "ids": lambda: np.sort(result.ids(0)),
            }[mode]()
            reply = ResultFrame(frame.request_id, mode, value)
        assert frame.request_id not in replies
        replies[frame.request_id] = encode_frame(reply)
    if goodbye is not None:
        goodbye = encode_frame(ErrorFrame(0, "bad_request", goodbye))
    return replies, goodbye


def _check(written, buf, mode, index):
    want, goodbye = _reference(buf, mode, index)
    data = b"".join(written)
    got, pos = {}, 0
    last = None
    while pos < len(data):
        (length,) = _LEN.unpack_from(data, pos)
        last = data[pos : pos + 4 + length]
        rid = decode_payload(last[4:]).request_id
        assert rid not in got, f"request {rid} answered twice"
        got[rid] = last
        pos += 4 + length
    if goodbye is not None:
        assert last == goodbye, "the framing error must come last"
        assert written[-1] == goodbye, "... in a write of its own"
        del got[0]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(_streams(), st.data())
def test_streams_are_answered_as_the_frame_codec_would(wire, stream, data):
    mode, index, converse = wire
    frames, _ = stream
    buf = b"".join(frames)
    cuts = sorted(data.draw(st.sets(st.integers(0, len(buf)), max_size=3)))
    chunks = [buf[a:b] for a, b in zip([0, *cuts], [*cuts, len(buf)])]
    _check(converse([c for c in chunks if c]), buf, mode, index)


def test_a_read_boundary_at_every_byte_offset(wire):
    """One mixed stream, cut in two at each of its offsets."""
    mode, index, converse = wire
    kinds = ["plain", "plain", "v1", "plain", "traced", "ping", "plain",
             "reversed", "count", "ids", "plain", "stray", "plain", "plain"]
    frames = [
        ANSWERED[kind](rid, TENANTS[rid % 3], rid, rid % 7)
        for rid, kind in enumerate(kinds, start=1)
    ]
    frames.append(FATAL["bad-flag"](99, b"default"))
    frames.append(ANSWERED["plain"](100, b"default", 1, 2))  # never read
    buf = b"".join(frames)
    for cut in range(len(buf) + 1):
        chunks = [c for c in (buf[:cut], buf[cut:]) if c]
        _check(converse(chunks), buf, mode, index)
