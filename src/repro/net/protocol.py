"""The wire protocol of the query server: length-prefixed binary frames.

Every frame on the wire is::

    u32 length          big-endian payload byte count (prefix, not
                        included in itself); bounded by ``MAX_FRAME``
    payload             `length` bytes:
        u16 magic       0xB173 — rejects random/plaintext peers cheaply
        u8  version     protocol version (currently 2; v1 still decodes)
        u8  type        frame type (below)
        ...             type-specific body

Frame types and bodies (all integers big-endian):

``QUERY`` (client -> server)
    ``u64 request_id`` · ``u8 tenant_len`` + utf-8 tenant id ·
    ``i64 st`` · ``i64 end`` · ``u8 mode`` · ``u32 deadline_ms``.
    ``mode`` is a :data:`MODE_CODES` value or :data:`MODE_DEFAULT`
    (255, "whatever the server executes").  ``deadline_ms`` is the
    client's **relative** latency budget (0 = none); the server anchors
    it on its own clock at decode time, so the two machines never need
    synchronized clocks.

    Version 2 appends ``u8 flags``; when bit 0 (``QFLAG_TRACE``) is
    set, a 17-byte :class:`~repro.obs.tracecontext.TraceContext`
    follows (``u64 trace_id`` · ``u64 parent_span_id`` · ``u8 trace
    flags``) — the client-chosen distributed-tracing identity the
    server stamps on every span of the request.  Unknown flag bits are
    rejected.  Version-1 frames (no flags byte) still decode, so old
    clients keep working; the encoder always emits version 2.
``RESULT`` (server -> client)
    ``u64 request_id`` · ``u8 mode`` · mode-shaped body — count:
    ``u64``; checksum: ``u64 count`` + ``u64 xor``; ids: ``u32 n`` +
    ``n × i64``.
``ERROR`` (server -> client)
    ``u64 request_id`` · ``u8 code`` (:data:`ERROR_CODES`) ·
    ``u16 msg_len`` + utf-8 message.
``PING`` / ``PONG``
    ``u64 request_id`` — liveness probe and its echo.

Decoding is strict: unknown magic, version, type, mode or error code,
truncated bodies and trailing garbage all raise :class:`ProtocolError`.
The server answers decodable-stream errors with a typed ``ERROR`` frame
and closes the connection (after a framing error the byte stream can no
longer be trusted); see :mod:`repro.net.server`.

The server reads and writes a run of frames at a time through the
*column codec* at the end of this module: :func:`decode_queries` turns
the same-length plain QUERY frames at the head of a buffer into
:class:`QueryColumns` (one array per field), and :func:`encode_results`
/ :func:`encode_errors` write one reply per row into a single buffer.
It is an accelerator, not a second format: a frame the column check does
not cover is left to :func:`decode_payload`, which stays the one
definition of validity and of error text, and the bytes written are
:func:`encode_frame`'s.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.tracecontext import TraceContext, WIRE_SIZE as _TRACE_WIRE_SIZE

__all__ = [
    "MAGIC",
    "VERSION",
    "SUPPORTED_VERSIONS",
    "QFLAG_TRACE",
    "MAX_FRAME",
    "MODE_CODES",
    "MODE_NAMES",
    "MODE_DEFAULT",
    "FRAME_QUERY",
    "FRAME_RESULT",
    "FRAME_ERROR",
    "FRAME_PING",
    "FRAME_PONG",
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE_EXCEEDED",
    "ERR_OVERLOAD",
    "ERR_RATE_LIMITED",
    "ERR_CLOSING",
    "ERR_INTERNAL",
    "ERROR_CODES",
    "ERROR_NAMES",
    "ProtocolError",
    "QueryFrame",
    "ResultFrame",
    "ErrorFrame",
    "PingFrame",
    "PongFrame",
    "Frame",
    "encode_frame",
    "decode_payload",
    "decode_frame",
    "QueryColumns",
    "decode_queries",
    "encode_results",
    "encode_errors",
]

#: First two payload bytes of every frame.
MAGIC = 0xB173
#: Current protocol version (what the encoder emits).
VERSION = 2
#: Versions the decoder accepts.  v1 lacks the QUERY flags byte (and so
#: cannot carry a trace context); every other body is identical.
SUPPORTED_VERSIONS = frozenset({1, 2})
#: QUERY flags bit: a 17-byte trace context follows the flags byte.
QFLAG_TRACE = 0x01
_QFLAG_KNOWN = QFLAG_TRACE
#: Default upper bound on a payload (1 MiB) — an oversized length prefix
#: is rejected *before* the body is read, so a hostile peer cannot make
#: the server buffer arbitrary amounts.
MAX_FRAME = 1 << 20

FRAME_QUERY = 0x01
FRAME_RESULT = 0x02
FRAME_ERROR = 0x03
FRAME_PING = 0x04
FRAME_PONG = 0x05

#: Result modes on the wire (matches :data:`repro.core.result.MODES`).
MODE_CODES = {"count": 0, "ids": 1, "checksum": 2}
MODE_NAMES = {v: k for k, v in MODE_CODES.items()}
#: "Execute in whatever mode the server is configured for."
MODE_DEFAULT = 0xFF

ERR_BAD_REQUEST = 1
ERR_DEADLINE_EXCEEDED = 2
ERR_OVERLOAD = 3
ERR_RATE_LIMITED = 4
ERR_CLOSING = 5
ERR_INTERNAL = 6

ERROR_CODES = {
    "bad_request": ERR_BAD_REQUEST,
    "deadline_exceeded": ERR_DEADLINE_EXCEEDED,
    "overload": ERR_OVERLOAD,
    "rate_limited": ERR_RATE_LIMITED,
    "closing": ERR_CLOSING,
    "internal": ERR_INTERNAL,
}
ERROR_NAMES = {v: k for k, v in ERROR_CODES.items()}

_HEADER = struct.Struct(">HBB")  # magic, version, type
_LEN = struct.Struct(">I")
_QUERY_HEAD = struct.Struct(">QB")  # request_id, tenant_len
_QUERY_TAIL = struct.Struct(">qqBI")  # st, end, mode, deadline_ms
_RESULT_HEAD = struct.Struct(">QB")  # request_id, mode
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_ERROR_HEAD = struct.Struct(">QBH")  # request_id, code, msg_len
_REQ_ID = struct.Struct(">Q")

_U64_MASK = (1 << 64) - 1


class ProtocolError(ValueError):
    """A frame (or stream) violated the wire protocol."""


@dataclass(frozen=True)
class QueryFrame:
    """One G-OVERLAPS query as sent by a client."""

    request_id: int
    tenant: str = "default"
    st: int = 0
    end: int = 0
    mode: Optional[str] = None  #: None = the server's configured mode
    deadline_ms: int = 0  #: relative budget; 0 = no deadline
    trace: Optional[TraceContext] = None  #: v2 distributed-trace identity


@dataclass(frozen=True)
class ResultFrame:
    """A successful answer; ``value`` is shaped by ``mode``.

    ``count`` → ``int``; ``checksum`` → ``(count, xor)``; ``ids`` →
    tuple of ids (the server sends them sorted ascending).  The encoder
    also takes an ``int64`` array for ``ids`` and writes it as it is;
    decoding always yields the tuple.
    """

    request_id: int
    mode: str
    value: Union[int, Tuple[int, int], Tuple[int, ...], np.ndarray]


@dataclass(frozen=True)
class ErrorFrame:
    """A typed failure answer."""

    request_id: int
    code: str  #: an :data:`ERROR_CODES` key, e.g. ``"overload"``
    message: str = ""


@dataclass(frozen=True)
class PingFrame:
    request_id: int


@dataclass(frozen=True)
class PongFrame:
    request_id: int


Frame = Union[QueryFrame, ResultFrame, ErrorFrame, PingFrame, PongFrame]


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #


def _check_u64(value: int, what: str) -> int:
    value = int(value)
    if not 0 <= value <= _U64_MASK:
        raise ProtocolError(f"{what} out of range for u64: {value}")
    return value


def _encode_body(frame: Frame) -> bytes:
    if isinstance(frame, QueryFrame):
        tenant = frame.tenant.encode("utf-8")
        if len(tenant) > 255:
            raise ProtocolError("tenant id exceeds 255 utf-8 bytes")
        if frame.mode is None:
            mode_code = MODE_DEFAULT
        elif frame.mode in MODE_CODES:
            mode_code = MODE_CODES[frame.mode]
        else:
            raise ProtocolError(f"unknown result mode {frame.mode!r}")
        deadline_ms = int(frame.deadline_ms)
        if not 0 <= deadline_ms <= 0xFFFFFFFF:
            raise ProtocolError(f"deadline_ms out of range: {deadline_ms}")
        if frame.trace is None:
            trailer = bytes([0])
        else:
            trailer = bytes([QFLAG_TRACE]) + frame.trace.to_wire()
        return (
            _QUERY_HEAD.pack(_check_u64(frame.request_id, "request_id"),
                             len(tenant))
            + tenant
            + _QUERY_TAIL.pack(
                int(frame.st), int(frame.end), mode_code, deadline_ms
            )
            + trailer
        )
    if isinstance(frame, ResultFrame):
        head = _RESULT_HEAD.pack(
            _check_u64(frame.request_id, "request_id"),
            _mode_code(frame.mode),
        )
        if frame.mode == "count":
            return head + _U64.pack(_check_u64(frame.value, "count"))
        if frame.mode == "checksum":
            count, xor = frame.value
            return head + _U64.pack(_check_u64(count, "count")) + _U64.pack(
                _check_u64(xor, "checksum")
            )
        ids = np.asarray(frame.value, dtype=np.int64)
        return head + _U32.pack(ids.size) + ids.astype(">i8").tobytes()
    if isinstance(frame, ErrorFrame):
        if frame.code not in ERROR_CODES:
            raise ProtocolError(f"unknown error code {frame.code!r}")
        msg = frame.message.encode("utf-8")
        if len(msg) > 0xFFFF:
            msg = msg[:0xFFFF]
        return (
            _ERROR_HEAD.pack(
                _check_u64(frame.request_id, "request_id"),
                ERROR_CODES[frame.code],
                len(msg),
            )
            + msg
        )
    if isinstance(frame, PingFrame):
        return _REQ_ID.pack(_check_u64(frame.request_id, "request_id"))
    if isinstance(frame, PongFrame):
        return _REQ_ID.pack(_check_u64(frame.request_id, "request_id"))
    raise ProtocolError(f"cannot encode {type(frame).__name__}")


def _mode_code(mode: str) -> int:
    try:
        return MODE_CODES[mode]
    except KeyError:
        raise ProtocolError(f"unknown result mode {mode!r}") from None


_FRAME_TYPE = {
    QueryFrame: FRAME_QUERY,
    ResultFrame: FRAME_RESULT,
    ErrorFrame: FRAME_ERROR,
    PingFrame: FRAME_PING,
    PongFrame: FRAME_PONG,
}


def encode_frame(frame: Frame, *, max_frame: int = MAX_FRAME) -> bytes:
    """Serialize *frame* into length prefix + payload bytes."""
    payload = _HEADER.pack(MAGIC, VERSION, _FRAME_TYPE[type(frame)])
    payload += _encode_body(frame)
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame payload ({len(payload)} bytes) exceeds the "
            f"{max_frame}-byte frame bound"
        )
    return _LEN.pack(len(payload)) + payload


# --------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------- #


class _Cursor:
    """Strict forward reader over one payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise _truncated(n, self.pos, len(self.data))
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct):
        return fmt.unpack(self.take(fmt.size))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after frame body"
            )


def _truncated(want: int, at: int, size: int) -> ProtocolError:
    return ProtocolError(
        f"truncated frame: wanted {want} bytes at offset {at}, "
        f"payload is {size} bytes"
    )


_QUERY_BODY = _HEADER.size + _QUERY_HEAD.size  # offset of the tenant id


def _decode_query(payload: bytes, version: int) -> QueryFrame:
    """The QUERY body, read at computed offsets: the frame the server
    decodes once per request, so it skips the cursor's slice per field.
    Checks, and their order, are the cursor's."""
    size = len(payload)
    if size < _QUERY_BODY:
        raise _truncated(_QUERY_HEAD.size, _HEADER.size, size)
    request_id, tenant_len = _QUERY_HEAD.unpack_from(payload, _HEADER.size)
    pos = _QUERY_BODY + tenant_len
    if pos > size:
        raise _truncated(tenant_len, _QUERY_BODY, size)
    try:
        tenant = payload[_QUERY_BODY:pos].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"tenant id is not utf-8: {exc}") from None
    if pos + _QUERY_TAIL.size > size:
        raise _truncated(_QUERY_TAIL.size, pos, size)
    st, end, mode_code, deadline_ms = _QUERY_TAIL.unpack_from(payload, pos)
    pos += _QUERY_TAIL.size
    trace = None
    if version >= 2:
        if pos >= size:
            raise _truncated(1, pos, size)
        flags = payload[pos]
        pos += 1
        if flags & ~_QFLAG_KNOWN:
            raise ProtocolError(f"unknown query flags 0x{flags:02X}")
        if flags & QFLAG_TRACE:
            if pos + _TRACE_WIRE_SIZE > size:
                raise _truncated(_TRACE_WIRE_SIZE, pos, size)
            try:
                trace = TraceContext.from_wire(
                    payload[pos : pos + _TRACE_WIRE_SIZE]
                )
            except ValueError as exc:
                raise ProtocolError(f"bad trace context: {exc}") from None
            pos += _TRACE_WIRE_SIZE
    if pos != size:
        raise ProtocolError(f"{size - pos} trailing bytes after frame body")
    if mode_code == MODE_DEFAULT:
        mode = None
    else:
        mode = MODE_NAMES.get(mode_code)
        if mode is None:
            raise ProtocolError(f"unknown mode code {mode_code}")
    return QueryFrame(request_id, tenant, st, end, mode, deadline_ms, trace)


def decode_payload(payload: bytes) -> Frame:
    """Decode one frame payload (the bytes after the length prefix).

    Raises :class:`ProtocolError` on any violation — and only
    :class:`ProtocolError`, which is what lets the server turn arbitrary
    hostile bytes into one typed error path.
    """
    if len(payload) < _HEADER.size:
        raise _truncated(_HEADER.size, 0, len(payload))
    magic, version, ftype = _HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04X} (want 0x{MAGIC:04X})")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"unsupported protocol version {version}")
    if ftype == FRAME_QUERY:
        return _decode_query(payload, version)
    cur = _Cursor(payload, _HEADER.size)
    if ftype == FRAME_RESULT:
        request_id, mode_code = cur.unpack(_RESULT_HEAD)
        if mode_code not in MODE_NAMES:
            raise ProtocolError(f"unknown mode code {mode_code}")
        mode = MODE_NAMES[mode_code]
        if mode == "count":
            (value,) = cur.unpack(_U64)
            cur.done()
            return ResultFrame(request_id, mode, value)
        if mode == "checksum":
            (count,) = cur.unpack(_U64)
            (xor,) = cur.unpack(_U64)
            cur.done()
            return ResultFrame(request_id, mode, (count, xor))
        (n,) = cur.unpack(_U32)
        raw = cur.take(8 * n)
        cur.done()
        return ResultFrame(
            request_id, mode, tuple(np.frombuffer(raw, dtype=">i8").tolist())
        )
    if ftype == FRAME_ERROR:
        request_id, code, msg_len = cur.unpack(_ERROR_HEAD)
        if code not in ERROR_NAMES:
            raise ProtocolError(f"unknown error code {code}")
        try:
            message = cur.take(msg_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"error message is not utf-8: {exc}") from None
        cur.done()
        return ErrorFrame(request_id, ERROR_NAMES[code], message)
    if ftype == FRAME_PING:
        (request_id,) = cur.unpack(_REQ_ID)
        cur.done()
        return PingFrame(request_id)
    if ftype == FRAME_PONG:
        (request_id,) = cur.unpack(_REQ_ID)
        cur.done()
        return PongFrame(request_id)
    raise ProtocolError(f"unknown frame type 0x{ftype:02X}")


def decode_frame(data: bytes) -> Tuple[Frame, int]:
    """Decode one length-prefixed frame from the head of *data*.

    Returns ``(frame, consumed_bytes)``.  Raises :class:`ProtocolError`
    when the prefix or payload is malformed, or when *data* is too short
    (sync helper for tests; the async path reads exactly-sized chunks).
    """
    if len(data) < _LEN.size:
        raise ProtocolError("truncated length prefix")
    (length,) = _LEN.unpack(data[: _LEN.size])
    if length > MAX_FRAME:
        raise ProtocolError(
            f"declared payload ({length} bytes) exceeds the frame bound"
        )
    if len(data) < _LEN.size + length:
        raise ProtocolError("truncated frame payload")
    frame = decode_payload(data[_LEN.size : _LEN.size + length])
    return frame, _LEN.size + length


# --------------------------------------------------------------------- #
# the column codec: a run of frames at a time
# --------------------------------------------------------------------- #

#: Payload bytes of a version-2 QUERY frame without a trace context,
#: less its tenant id.
_PLAIN_QUERY = _HEADER.size + _QUERY_HEAD.size + _QUERY_TAIL.size + 1

_FRAME_START = [("head", ">u8"), ("request_id", ">u8")]
_RESULT_COUNT = np.dtype(_FRAME_START + [("mode", "u1"), ("count", ">u8")])
_RESULT_CHECKSUM = np.dtype(
    _FRAME_START + [("mode", "u1"), ("count", ">u8"), ("xor", ">u8")]
)
_RESULT_IDS = np.dtype(_FRAME_START + [("mode", "u1"), ("n", ">u4")])
_ERROR_ROW = np.dtype(_FRAME_START + [("code", "u1"), ("msg_len", ">u2")])


def _head(length, ftype: int):
    """Length prefix, magic, version and type — the first eight bytes of
    a frame — as one big-endian u64 (*length*: an int or a uint64 array)."""
    return (length << 32) | (MAGIC << 16) | (VERSION << 8) | ftype


@lru_cache(maxsize=None)  # one layout per tenant length: at most 255
def _query_row(tenant_len: int) -> np.dtype:
    return np.dtype(
        _FRAME_START
        + [
            ("tenant_len", "u1"),
            ("tenant", f"S{tenant_len}"),
            ("st", ">i8"),
            ("end", ">i8"),
            ("mode", "u1"),
            ("deadline_ms", ">u4"),
            ("flags", "u1"),
        ]
    )


class QueryColumns:
    """QUERY frames as parallel columns, one row per frame, in wire order.

    ``request_id`` (uint64), ``st`` / ``end`` (int64), ``mode`` (the wire
    code, uint8: a :data:`MODE_CODES` value or :data:`MODE_DEFAULT`) and
    ``deadline_ms`` (uint32) are arrays; row *i*'s tenant id is
    ``tenants[tenant_of[i]]``; ``traces`` is ``None`` when no row carries
    a trace context, else one ``Optional[TraceContext]`` per row.
    """

    __slots__ = (
        "request_id", "tenants", "tenant_of", "st", "end", "mode",
        "deadline_ms", "traces",
    )

    def __init__(
        self, request_id, tenants, tenant_of, st, end, mode, deadline_ms,
        traces=None,
    ):
        self.request_id = request_id
        self.tenants = tenants
        self.tenant_of = tenant_of
        self.st = st
        self.end = end
        self.mode = mode
        self.deadline_ms = deadline_ms
        self.traces = traces

    def __len__(self) -> int:
        return len(self.request_id)

    @classmethod
    def of(cls, frame: QueryFrame) -> "QueryColumns":
        """The one-row columns of a frame :func:`decode_payload` decoded."""
        mode = MODE_DEFAULT if frame.mode is None else MODE_CODES[frame.mode]
        return cls(
            np.array([frame.request_id], dtype=np.uint64),
            [frame.tenant],
            np.zeros(1, dtype=np.intp),
            np.array([frame.st], dtype=np.int64),
            np.array([frame.end], dtype=np.int64),
            np.array([mode], dtype=np.uint8),
            np.array([frame.deadline_ms], dtype=np.uint32),
            None if frame.trace is None else [frame.trace],
        )

    @classmethod
    def concat(cls, pieces: Sequence["QueryColumns"]) -> "QueryColumns":
        """The rows of *pieces*, one after the other."""
        if len(pieces) == 1:
            return pieces[0]
        out = cls(*(
            np.concatenate([getattr(p, name) for p in pieces])
            if name not in ("tenants", "traces") else None
            for name in cls.__slots__
        ))
        out.tenants, at = [], 0
        for p in pieces:
            out.tenant_of[at : at + len(p)] += len(out.tenants)
            out.tenants.extend(p.tenants)
            at += len(p)
        if any(p.traces is not None for p in pieces):
            out.traces = [
                t for p in pieces for t in (p.traces or [None] * len(p))
            ]
        return out


def decode_queries(
    buf: bytes, pos: int, length: int, limit: Optional[int] = None
) -> Optional[QueryColumns]:
    """Decode the run of plain QUERY frames at ``buf[pos:]`` as columns.

    *length* is the (complete) first frame's length prefix.  The run is
    every following complete frame of that same length that is a
    version-2 QUERY without a trace context, with a tenant id of the one
    length that implies and a known mode code: exactly the frames
    :func:`decode_payload` would accept with the same fields, checked a
    column at a time.  It ends before the first frame the check does not
    cover, or after *limit* frames; ``None`` when that is the first
    frame — whatever is wrong or merely different about it is
    :func:`decode_payload`'s to say.  The caller advances by
    ``len(run) * (4 + length)`` bytes.
    """
    tenant_len = length - _PLAIN_QUERY
    if not 0 < tenant_len <= 255:
        return None
    row = _query_row(tenant_len)
    complete = (len(buf) - pos) // row.itemsize
    rows = np.frombuffer(buf, row, min(complete, limit or complete), pos)
    tenant, mode = rows["tenant"], rows["mode"]
    ok = (
        (rows["head"] == _head(length, FRAME_QUERY))
        & (rows["tenant_len"] == tenant_len)
        & (rows["flags"] == 0)
        & ((mode <= MODE_CODES["checksum"]) | (mode == MODE_DEFAULT))
        # ``S`` drops trailing NULs; such a tenant id is not covered.
        & (np.char.str_len(tenant) == tenant_len)
    )
    n = len(rows) if ok.all() else int(ok.argmin())
    if n == 0:
        return None
    tenant = tenant[:n]
    if (tenant == tenant[0]).all():
        names, tenant_of = tenant[:1], np.zeros(n, dtype=np.intp)
    else:
        names, tenant_of = np.unique(tenant, return_inverse=True)
    tenants: List[str] = []
    for j, raw in enumerate(names.tolist()):
        try:
            tenants.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            tenants.append("")
            n = min(n, int((tenant_of == j).argmax()))
    if n == 0:
        return None
    return QueryColumns(
        rows["request_id"][:n].astype(np.uint64),
        tenants,
        tenant_of[:n],
        rows["st"][:n].astype(np.int64),
        rows["end"][:n].astype(np.int64),
        mode[:n].copy(),
        rows["deadline_ms"][:n].astype(np.uint32),
    )


def encode_results(
    request_ids: np.ndarray,
    mode: str,
    counts: np.ndarray,
    checksums: Optional[np.ndarray] = None,
    flat_ids: Optional[np.ndarray] = None,
    offsets: Optional[np.ndarray] = None,
    *,
    max_frame: int = MAX_FRAME,
) -> Tuple[bytes, List[Tuple[int, str]]]:
    """One RESULT frame per row, written into a single buffer.

    Row *i* answers ``request_ids[i]`` with ``counts[i]`` (count), with
    ``(counts[i], checksums[i])`` (checksum) or with the ids
    ``flat_ids[offsets[i]:offsets[i + 1]]`` sorted ascending (ids) — the
    bytes :func:`encode_frame` writes for the same :class:`ResultFrame`.
    Returns ``(data, refused)``: a row :func:`encode_frame` would raise
    for has no frame in *data* and is listed as ``(row, message)``.
    """
    k = len(request_ids)
    refused: List[Tuple[int, str]] = []
    if mode != "ids":
        out = np.empty(
            k, _RESULT_COUNT if mode == "count" else _RESULT_CHECKSUM
        )
        out["head"] = _head(out.itemsize - _LEN.size, FRAME_RESULT)
        out["request_id"] = request_ids
        out["mode"] = _mode_code(mode)
        out["count"] = counts
        if mode == "checksum":
            out["xor"] = checksums
            bad = np.flatnonzero(checksums < 0)
            if len(bad):
                refused = [
                    (i, f"checksum out of range for u64: {checksums[i]}")
                    for i in bad.tolist()
                ]
                out = np.delete(out, bad)
        return out.tobytes(), refused
    size = _RESULT_IDS.itemsize - _LEN.size + 8 * counts
    head = np.empty(k, _RESULT_IDS)
    head["head"] = _head(size.astype(np.uint64), FRAME_RESULT)
    head["request_id"] = request_ids
    head["mode"] = MODE_CODES["ids"]
    head["n"] = counts
    # One sort for all rows: by row, then ascending id within the row.
    rows = np.repeat(np.arange(k), counts)
    body = memoryview(
        flat_ids[np.lexsort((flat_ids, rows))].astype(">i8").tobytes()
    )
    head = memoryview(head.tobytes())
    cuts = (8 * offsets).tolist()
    step = _RESULT_IDS.itemsize
    parts = []
    for i, payload in enumerate(size.tolist()):
        if payload > max_frame:
            refused.append((
                i, f"frame payload ({payload} bytes) exceeds the "
                f"{max_frame}-byte frame bound",
            ))
        else:
            parts.append(head[i * step : (i + 1) * step])
            parts.append(body[cuts[i] : cuts[i + 1]])
    return b"".join(parts), refused


def encode_errors(request_ids, code: str, message: str) -> bytes:
    """One ERROR frame per request id, all with *code* and *message*,
    written into a single buffer (:func:`encode_frame`'s bytes)."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    msg = message.encode("utf-8")[:0xFFFF]
    fixed = _ERROR_ROW.itemsize
    head = np.empty(len(request_ids), _ERROR_ROW)
    head["head"] = _head(fixed - _LEN.size + len(msg), FRAME_ERROR)
    head["request_id"] = request_ids
    head["code"] = ERROR_CODES[code]
    head["msg_len"] = len(msg)
    out = np.empty((len(head), fixed + len(msg)), dtype=np.uint8)
    out[:, :fixed] = head.view(np.uint8).reshape(len(head), fixed)
    out[:, fixed:] = np.frombuffer(msg, dtype=np.uint8)
    return out.tobytes()
