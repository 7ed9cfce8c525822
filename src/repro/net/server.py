"""The asyncio TCP front end over :class:`~repro.service.BatchingQueryService`.

:class:`QueryServer` accepts length-prefixed binary frames
(:mod:`repro.net.protocol`), applies the production traffic controls,
and feeds admitted queries into the batching service — which is exactly
the existing serving stack: whatever backend ``swap_index`` has
installed (a plain :class:`~repro.hint.HintIndex`, a
:class:`~repro.shard.ShardedHint`, an
:class:`~repro.engine.ExecutionEngine`, a
:class:`~repro.cache.CachingExecutor`) serves the wire unchanged.

Traffic controls, in the order a query meets them:

1. **Framing** — malformed frames (bad magic/version, truncated body,
   oversized length prefix, an injected ``net.decode`` fault) get a
   typed ``BAD_REQUEST`` error and the connection is closed; the byte
   stream cannot be trusted after a framing error.  The server itself
   never crashes and never leaks the socket.
2. **Per-tenant admission** — a token bucket per tenant
   (:class:`~repro.net.admission.TenantAdmission`); an empty bucket gets
   a typed ``RATE_LIMITED`` error immediately.
3. **Global in-flight quota** — at most ``max_inflight`` admitted
   queries may be outstanding (submitted, response not yet written).
   Under ``backpressure="reject"`` the excess is shed with a typed
   ``OVERLOAD`` response (graceful shedding — never a hung socket);
   under ``"block"`` the connection's read loop waits for a slot, which
   stops consuming the socket and pushes back through TCP flow control.
   The quota is clamped to the service's ``max_queue`` so a submit can
   never block the event loop — the wire quota *is* the service's
   bounded staging queue, surfaced one layer out.
4. **Deadline propagation** — the client's relative ``deadline_ms``
   budget is anchored on the server clock at decode time and travels
   with the query into the service, whose flusher drops it unexecuted
   (typed ``DEADLINE_EXCEEDED``) if the deadline passes while staged.

The request path costs per *read chunk* and per *flush*, not per request:
a read loop decodes the QUERY frames of what the socket had as columns,
screens them a column at a time and stages them with one
``service.submit_many``; a flush reports back once per chunk it
answered, each report is encoded into one buffer, and each connection's
writer does one ``write`` + ``drain()`` per burst of replies before the
burst's quota slots are released (``docs/serving.md``, "Request path").
A query is a row from the socket to the reply: it has no future, frame
object or encode call of its own.

Every request is answered exactly once (``RESULT`` or a typed
``ERROR``) unless its connection is gone; shutdown
(:meth:`QueryServer.stop`) drains in-flight work through
``service.close(drain=True, timeout=...)``, whose timeout bound
guarantees even an abandoned drain resolves every query.

For embedding in synchronous code (tests, benchmarks, the load
generator) :func:`serve_in_thread` runs the whole server on a dedicated
event-loop thread and returns a handle with ``host``/``port`` and a
blocking ``close()``.
"""

from __future__ import annotations

import asyncio
import struct
import threading
import time
from functools import partial
from typing import Callable, Optional

import numpy as np

import repro.obs as obs
from repro.obs.tracecontext import TraceContext, format_trace_id, new_trace_id
from repro.service import (
    BatchingQueryService,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
)
from repro.verify.faults import SITE_NET_ACCEPT, SITE_NET_DECODE, FaultPlan

from repro.net.admission import TenantAdmission
from repro.net.protocol import (
    MAX_FRAME,
    MODE_CODES,
    MODE_DEFAULT,
    MODE_NAMES,
    PingFrame,
    PongFrame,
    ProtocolError,
    QueryColumns,
    QueryFrame,
    decode_payload,
    decode_queries,
    encode_errors,
    encode_frame,
    encode_results,
)

__all__ = ["QueryServer", "ServerHandle", "serve_in_thread"]

_LEN = struct.Struct(">I")
#: Most bytes one socket read takes, and the reply backlog at which a
#: connection's reader stops consuming until its writer has caught up.
_CHUNK = 1 << 16
_CLOSING = ("closing", "server is shutting down")


class _Conn:
    """One connection: its streams and the replies queued for its writer."""

    __slots__ = (
        "task", "reader", "writer", "out", "slots", "backlog", "pending",
        "wake", "flushed", "read_closed",
    )

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.task = asyncio.current_task()  #: the connection's handler
        self.reader = reader
        self.writer = writer
        self.out: list = []  #: encoded replies the writer has not taken yet
        self.slots = 0  #: quota slots the replies in ``out`` still hold
        self.backlog = 0  #: reply bytes queued or written, not yet drained
        self.pending = 0  #: submitted queries not answered yet
        self.wake = asyncio.Event()  #: ``out`` has replies, or reads ended
        self.flushed = asyncio.Event()  #: the writer has caught up
        self.read_closed = False


class _Chunk:
    """The QUERY frames of one read chunk: whose they are, and which of
    them the service still owes an answer."""

    __slots__ = ("conn", "cols", "t0", "ctxs", "owed")

    def __init__(self, conn: _Conn, cols: QueryColumns, t0: float, ctxs):
        self.conn = conn
        self.cols = cols
        self.t0 = t0  #: anchor of ``deadline_ms`` and ``request_timeout``
        self.ctxs = ctxs  #: per-row TraceContext while the obs plane is on
        self.owed = np.zeros(len(cols), dtype=bool)  #: staged, unanswered


class QueryServer:
    """Asyncio TCP server feeding a :class:`BatchingQueryService`.

    Parameters
    ----------
    service:
        The batching service every admitted query is submitted to.  The
        server never builds one itself; pass ``owns_service=True`` to
        have :meth:`stop` close it.
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_inflight:
        Global quota on admitted-but-unanswered queries; clamped to the
        service's ``max_queue`` (see the module docstring for why).
    backpressure:
        ``"block"`` or ``"reject"`` behaviour when the quota is
        exhausted; ``None`` (default) inherits the service's policy.
    admission:
        Optional :class:`TenantAdmission`; ``None`` admits everything.
    max_frame:
        Upper bound on accepted frame payloads, bytes.
    request_timeout:
        Hard bound (seconds) on waiting for a submitted query's future,
        checked by a periodic sweep (so up to a quarter of it late); on
        expiry the client gets a typed ``INTERNAL`` error instead of a
        hung socket.  Generous by default — the service's own deadline
        and drain bounds fire long before it.
    fault_plan:
        Optional :class:`FaultPlan`; fires ``net.accept`` per accepted
        connection and ``net.decode`` per received frame.
    clock:
        Monotonic time source used to anchor client deadlines; **must**
        be the same clock the service was built with (both default to
        ``time.monotonic``).
    """

    def __init__(
        self,
        service: BatchingQueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 1024,
        backpressure: Optional[str] = None,
        admission: Optional[TenantAdmission] = None,
        max_frame: int = MAX_FRAME,
        request_timeout: float = 30.0,
        fault_plan: Optional[FaultPlan] = None,
        clock: Callable[[], float] = time.monotonic,
        owns_service: bool = False,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if backpressure not in (None, "block", "reject"):
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                "expected 'block', 'reject' or None"
            )
        if max_frame < 64:
            raise ValueError("max_frame is too small to hold any frame")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self.max_inflight = min(int(max_inflight), service.max_queue)
        self.backpressure = (
            service.backpressure if backpressure is None else backpressure
        )
        self.admission = admission
        self.max_frame = int(max_frame)
        self.request_timeout = float(request_timeout)
        self._fault_plan = fault_plan
        self._clock = clock
        self._owns_service = owns_service

        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight = 0
        self._slot_free: Optional[asyncio.Event] = None
        #: The chunks with queries not answered yet.
        self._outstanding: set = set()
        self._sweeper: Optional[asyncio.TimerHandle] = None
        self._closing = False
        self._stopped: Optional[asyncio.Event] = None
        self._conns: set = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "QueryServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._slot_free = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        self._sweep()
        return self

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (from a signal handler or
        another task)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, drain, close connections.

        New queries arriving during the drain get a typed ``CLOSING``
        error; queries already admitted still complete (``drain=True``)
        within the service's drain bound — on timeout the service
        abandons the remainder with errors, so every outstanding request
        is answered either way.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._slot_free is not None:
            self._slot_free.set()  # wake blocked admissions
        # Drain the service first: this resolves every in-flight future
        # (results, or errors once the timeout bound trips).  While this
        # coroutine waits in the executor, the loop delivers the bursts
        # and the connections' writers send the final responses.
        if self._owns_service:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.service.close(drain=drain, timeout=timeout)
            )
        # Wait for the in-flight count to hit zero and every queued reply
        # to be written, bounded; idle read loops never finish on their
        # own and are cancelled below instead.
        waited = 0.0
        while waited < max(timeout, 0.1) and (
            self._inflight > 0 or any(c.backlog for c in self._conns)
        ):
            await asyncio.sleep(0.01)
            waited += 0.01
        handlers = [conn.task for conn in self._conns]
        for conn in list(self._conns):
            conn.task.cancel()
            self._close_writer(conn.writer)
        if handlers:
            await asyncio.wait(handlers, timeout=1.0)
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._stopped is not None:
            self._stopped.set()

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(reader, writer)
        self._conns.add(conn)
        ob = obs.active()
        counted = False
        write_task = None
        try:
            if self._closing:
                return
            if self._fault_plan is not None:
                # An injected net.accept fault models an I/O error on
                # accept: the connection is dropped, the server lives.
                self._fault_plan.fire(SITE_NET_ACCEPT)
            if ob is not None:
                ob.record_net_connection(+1)
                counted = True
            write_task = asyncio.ensure_future(self._write_loop(conn))
            goodbye = await self._read_loop(conn)
            # The read side is done (EOF, framing error or shutdown);
            # in-flight answers still get written — the writer returns
            # once the last one is out, which the timeout sweep bounds —
            # and a framing error's reply goes last, because a client
            # takes it to end the connection.
            conn.read_closed = True
            conn.wake.set()
            await write_task
            if goodbye is not None:
                writer.write(goodbye)
                await writer.drain()
        except asyncio.CancelledError:
            pass  # server shutdown cancelled an idle read loop
        except Exception:
            # Per-connection containment: nothing a single peer does
            # (or an injected fault) may take the acceptor down.
            pass
        finally:
            self._close_writer(writer)  # from here _queue() only releases
            if write_task is not None and not write_task.done():
                write_task.cancel()
                await asyncio.wait([write_task])
            self._release(conn.slots)  # replies queued, never written
            conn.slots = 0
            if counted:
                ob2 = obs.active()
                if ob2 is not None:
                    ob2.record_net_connection(-1)
            self._conns.discard(conn)

    async def _read_loop(self, conn: _Conn) -> Optional[bytes]:
        """Decode every complete frame of each chunk the socket yields —
        the QUERY frames as columns, a run of plain ones at a time — and
        admit the chunk's queries together.  Returns the encoded
        ``bad_request`` reply when a framing error ended the stream,
        else ``None``."""
        read = conn.reader.read
        plan = self._fault_plan
        buf = b""
        while not self._closing:
            if conn.backlog >= _CHUNK:
                # The peer is not reading its replies: stop reading its
                # requests until the writer's drain() has returned.
                conn.flushed.clear()
                await conn.flushed.wait()
            try:
                chunk = await read(_CHUNK)
            except (ConnectionResetError, BrokenPipeError):
                return None
            if not chunk:
                return None  # peer went away, perhaps mid-frame
            buf = buf + chunk if buf else chunk
            queries, goodbye = [], None
            pos, size = 0, len(buf)
            while goodbye is None and size - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(buf, pos)
                if length > self.max_frame:
                    # Reject before the body arrives: a hostile length
                    # prefix must not make the server buffer it.
                    goodbye = self._framing_error(
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame}-byte bound"
                    )
                    break
                end = pos + _LEN.size + length
                if end > size:
                    break
                try:
                    if plan is not None:  # fires per frame: runs of one
                        plan.fire(SITE_NET_DECODE)
                    run = decode_queries(
                        buf, pos, length, None if plan is None else 1
                    )
                    if run is None:  # traced, v1, not a QUERY, malformed
                        frame = decode_payload(buf[end - length : end])
                except ProtocolError as exc:
                    goodbye = self._framing_error(str(exc))
                except Exception as exc:  # injected net.decode fault
                    goodbye = self._framing_error(f"decode failed: {exc}")
                else:
                    if run is not None:
                        end = pos + len(run) * (end - pos)
                    elif type(frame) is QueryFrame:
                        run = QueryColumns.of(frame)
                    elif isinstance(frame, PingFrame):
                        self._queue(
                            conn, encode_frame(PongFrame(frame.request_id))
                        )
                    else:
                        self._queue(conn, encode_errors(
                            [frame.request_id], "bad_request",
                            f"unexpected {type(frame).__name__} from client",
                        ))
                    if run is not None:
                        queries.append(run)
                    pos = end
            if queries:
                await self._admit(conn, QueryColumns.concat(queries))
            if goodbye is not None:
                return goodbye
            buf = buf[pos:]
        return None

    def _framing_error(self, message: str) -> bytes:
        ob = obs.active()
        if ob is not None:
            ob.record_net_decode_error()
        return encode_errors([0], "bad_request", message)

    async def _write_loop(self, conn: _Conn) -> None:
        """The connection's only writer: one ``write`` and one
        ``drain()`` per burst of queued replies.  The burst's quota slots
        are released after ``drain()`` returns, so a peer that stops
        reading its answers keeps holding quota."""
        out, writer = conn.out, conn.writer
        while True:
            if not out:
                conn.flushed.set()
                if conn.read_closed and not conn.pending:
                    return
                conn.wake.clear()
                await conn.wake.wait()
                continue
            data, slots = b"".join(out), conn.slots
            out.clear()
            conn.slots = 0
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass  # peer is gone; nothing left to answer
            finally:
                conn.backlog -= len(data)
                self._release(slots)

    def _queue(self, conn: _Conn, data: bytes, slots: int = 0) -> None:
        """Hand encoded replies to *conn*'s writer; *slots* is how many
        of them answer a submitted query, whose quota slot they hold."""
        conn.pending -= slots
        if conn.writer.is_closing():  # peer lost, or the handler is done
            self._release(slots)
        else:
            conn.out.append(data)
            conn.slots += slots
            conn.backlog += len(data)
        conn.wake.set()

    def _release(self, slots: int) -> None:
        if slots:
            self._inflight -= slots
            self._slot_free.set()

    # ------------------------------------------------------------------ #
    # the request path
    # ------------------------------------------------------------------ #

    async def _admit(self, conn: _Conn, cols: QueryColumns) -> None:
        """Put one read chunk's queries through the traffic controls, a
        column at a time, and stage what passes, a quota slot each; what
        does not is answered with a typed error."""
        ctxs = None
        ob = obs.active()
        if ob is not None:
            ctxs = [
                self._trace_context(ob, trace)
                for trace in cols.traces or [None] * len(cols)
            ]
        chunk = _Chunk(conn, cols, self._clock(), ctxs)
        everything = np.arange(len(cols))
        if self._closing:
            return self._refuse(chunk, everything, *_CLOSING)
        served = self.service.mode
        bad_range = cols.st > cols.end
        live = ~bad_range & (
            (cols.mode == MODE_DEFAULT) | (cols.mode == MODE_CODES[served])
        )
        for i in np.flatnonzero(~live):
            self._refuse(chunk, everything[i : i + 1], "bad_request", (
                f"query must have st <= end (got [{cols.st[i]}, {cols.end[i]}])"
                if bad_range[i] else
                f"server executes mode {served!r}, "
                f"not {MODE_NAMES[cols.mode[i]]!r}"
            ))
        if self.admission is not None:
            for t, tenant in enumerate(cols.tenants):
                asking = np.flatnonzero(live & (cols.tenant_of == t))
                over = asking[self.admission.try_admit(tenant, len(asking)):]
                if len(over):
                    live[over] = False
                    self._refuse(chunk, over, "rate_limited", (
                        f"tenant {tenant!r} is over its admission rate"
                    ))
        # Global in-flight quota — the wire face of the service's
        # bounded staging queue.
        rows = np.flatnonzero(live)
        while len(rows):
            room = self.max_inflight - self._inflight
            if room > 0:
                self._submit(chunk, rows[:room])
                rows = rows[room:]
            elif self.backpressure == "reject":
                return self._refuse(chunk, rows, "overload", (
                    f"{self._inflight} queries in flight "
                    f"(quota {self.max_inflight})"
                ))
            else:
                # Block policy: the rest of the chunk and the socket
                # wait until a written burst of replies frees a slot.
                self._slot_free.clear()
                await self._slot_free.wait()
                if self._closing:
                    return self._refuse(chunk, rows, *_CLOSING)

    def _submit(self, chunk: _Chunk, rows: np.ndarray) -> None:
        """Take a slot for each of *rows* and stage them in the service,
        which reports back through :meth:`_on_done`."""
        cols = chunk.cols
        budget = cols.deadline_ms[rows]
        deadlines = traces = None
        if budget.any():
            deadlines = np.where(budget, chunk.t0 + budget / 1000.0, np.inf)
        if chunk.ctxs is not None:
            traces = [chunk.ctxs[i] for i in rows.tolist()]
        self._inflight += len(rows)
        chunk.conn.pending += len(rows)
        chunk.owed[rows] = True
        self._outstanding.add(chunk)
        on_done = partial(self._on_done, chunk, rows)
        try:
            self.service.submit_many(
                cols.st[rows], cols.end[rows], deadlines, traces,
                on_done=on_done,
            )
        except Exception as exc:  # nothing was staged
            on_done(np.arange(len(rows)), exc)

    def _on_done(self, chunk: _Chunk, rows, positions, outcome) -> None:
        """The service's report on ``rows[positions]`` of *chunk*, on
        whichever thread resolved them (the flusher, as a rule): one per
        flush and chunk, handed to the loop."""
        try:
            self._loop.call_soon_threadsafe(
                self._deliver, chunk, rows[positions], outcome
            )
        except RuntimeError:
            pass  # the loop is closed: the server stopped first

    def _deliver(self, chunk: _Chunk, rows: np.ndarray, outcome) -> None:
        """Encode the replies to *rows* of *chunk* into one buffer and
        queue it on the chunk's connection."""
        failed = isinstance(outcome, BaseException)
        owed = chunk.owed[rows]
        if not owed.all():
            # The timeout sweep answered some; drop their late results.
            if not owed.any():
                return
            if not failed:
                outcome = outcome.take(np.flatnonzero(owed))
            rows = rows[owed]
        self._settle(chunk, rows)
        if failed:
            return self._refuse(
                chunk, rows, *_classify(outcome), slots=len(rows)
            )
        data, unsent = encode_results(
            chunk.cols.request_id[rows], self.service.mode, outcome.counts,
            outcome.checksums, outcome.flat_ids, outcome.offsets,
            max_frame=max(self.max_frame, MAX_FRAME),
        )
        for i, why in unsent:
            self._refuse(
                chunk, rows[i : i + 1], "internal",
                f"result not sent: {why}", slots=1,
            )
        if unsent:
            rows = np.delete(rows, [i for i, _ in unsent])
        self._queue(chunk.conn, data, len(rows))
        self._record(chunk, rows, "ok")

    def _settle(self, chunk: _Chunk, rows: np.ndarray) -> None:
        """*rows* of *chunk* are being answered now."""
        chunk.owed[rows] = False
        if not chunk.owed.any():
            self._outstanding.discard(chunk)

    def _sweep(self) -> None:
        """``request_timeout``, as one periodic pass over the outstanding
        chunks instead of a timer per request."""
        self._sweeper = self._loop.call_later(
            min(1.0, self.request_timeout / 4), self._sweep
        )
        cutoff = self._clock() - self.request_timeout
        for chunk in [c for c in self._outstanding if c.t0 <= cutoff]:
            rows = np.flatnonzero(chunk.owed)
            self._settle(chunk, rows)
            self._refuse(
                chunk, rows, "internal",
                f"no result within {self.request_timeout:g}s",
                slots=len(rows),
            )

    def _refuse(
        self, chunk: _Chunk, rows: np.ndarray, code: str, message: str,
        slots: int = 0,
    ) -> None:
        """Answer *rows* of *chunk* with one typed error."""
        self._queue(
            chunk.conn,
            encode_errors(chunk.cols.request_id[rows], code, message),
            slots,
        )
        self._record(chunk, rows, code)

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _trace_context(ob, trace: Optional[TraceContext]) -> TraceContext:
        """A request's tracing identity: the client's (when its frame
        carried one) or a freshly minted one, re-parented under a span
        id reserved for this request's ``net.request`` root so every
        downstream span hangs off it."""
        if trace is not None:
            trace_id, sampled = trace.trace_id, trace.sampled
        else:
            trace_id, sampled = new_trace_id(), ob.sample_trace()
        return TraceContext(trace_id, ob.recorder.allocate_span_id(), sampled)

    def _record(self, chunk: _Chunk, rows: np.ndarray, status: str) -> None:
        """One ``net.request`` span and sample per answered request."""
        ob = obs.active()
        if ob is None:
            return
        cols = chunk.cols
        duration = self._clock() - chunk.t0
        for i in rows.tolist():
            ob.record_net_request(status, duration)
            attrs = {
                "tenant": cols.tenants[cols.tenant_of[i]],
                "status": status,
                "mode": self.service.mode,
                "st": int(cols.st[i]),
                "end": int(cols.end[i]),
            }
            span_id = trace_ids = None
            if chunk.ctxs is not None:
                ctx = chunk.ctxs[i]
                span_id = ctx.parent_span_id
                trace_ids = (ctx.trace_id,)
                attrs["trace_id"] = format_trace_id(ctx.trace_id)
                attrs["sampled"] = ctx.sampled
            ob.recorder.add(
                "net.request",
                duration,
                attrs=attrs,
                span_id=span_id,
                trace_ids=trace_ids,
            )

    def __repr__(self) -> str:
        state = "closing" if self._closing else (
            "listening" if self._server is not None else "new"
        )
        return (
            f"QueryServer({self.host}:{self.port}, "
            f"backpressure={self.backpressure!r}, "
            f"max_inflight={self.max_inflight}, {state})"
        )


def _classify(exc: BaseException):
    """Map a service-side exception onto (protocol code, message)."""
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded", str(exc)
    if isinstance(exc, QueueFullError):
        return "overload", str(exc)
    if isinstance(exc, ServiceClosedError):
        return "closing", str(exc)
    if isinstance(exc, ValueError):
        return "bad_request", str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


class ServerHandle:
    """A :class:`QueryServer` running on its own event-loop thread."""

    def __init__(
        self,
        server: QueryServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread
        self._closed = False

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self):
        return self.server.host, self.server.port

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the server, drain in-flight work, join the loop thread."""
        if self._closed:
            return
        self._closed = True
        stop = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain, timeout=timeout), self._loop
        )
        try:
            stop.result(timeout + 10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout + 10.0)
            if not self._thread.is_alive():
                self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve_in_thread(
    service: BatchingQueryService, **server_kwargs
) -> ServerHandle:
    """Start a :class:`QueryServer` on a dedicated event-loop thread.

    The synchronous embedding used by tests, benchmarks and the smoke
    harness: returns once the server is bound (its ephemeral port is
    readable from the handle), and ``handle.close()`` performs the full
    graceful shutdown from the calling thread.
    """
    server = QueryServer(service, **server_kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind failure etc.
            boot_error.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()
        # Drain loop callbacks scheduled during stop() before exiting.
        loop.run_until_complete(asyncio.sleep(0))

    thread = threading.Thread(target=run, name="repro-net-server", daemon=True)
    thread.start()
    if not started.wait(10.0):
        raise RuntimeError("server thread failed to start in time")
    if boot_error:
        thread.join(1.0)
        raise boot_error[0]
    return ServerHandle(server, loop, thread)
