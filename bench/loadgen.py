"""The socket driver: one thread, a few pipelined connections.

It speaks the wire protocol through ``repro.net.protocol``'s own codec
(``encode_frame`` / ``decode_payload``) over plain sockets, so the driver
costs a fraction of a core and can neither batch nor reorder for the
server.  Closed loop: each connection keeps a fixed number of requests in
flight.  Open loop: requests leave on a fixed schedule whatever the server
does, and each is timed from the instant it was *due*.
"""

from __future__ import annotations

import select
import socket
import struct
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Tuple

import numpy as np

from bench.metrics import BLOCK_S

_LEN = struct.Struct(">I")
REFUSED = ("overload", "rate_limited", "closing")
LATE_S = 0.001  # a send this long after its due time counts as late


class Frames:
    """Pre-encoded QUERY frames of a seeded stream; request id = position + 1."""

    def __init__(self, stream):
        from repro.net.protocol import QueryFrame, encode_frame

        self._stream = stream
        self._encode = lambda rid, s, e: encode_frame(QueryFrame(request_id=rid, st=s, end=e))
        self.st: List[int] = []
        self.end: List[int] = []
        self.data: List[bytes] = []

    def ensure(self, count: int) -> None:
        """Have at least *count* frames encoded (call outside timed phases)."""
        while len(self.data) < count:
            st, end = (a.tolist() for a in self._stream.next(4096))
            base = len(self.data)
            self.st.extend(st)
            self.end.extend(end)
            self.data.extend(
                self._encode(base + i + 1, s, e) for i, (s, e) in enumerate(zip(st, end))
            )


@dataclass
class Phase:
    """What one load phase observed; times are seconds since the phase began."""

    seconds: float
    sent: int = 0
    done_at: List[float] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)  # from due time (open) or send
    due_at: List[float] = field(default_factory=list)  # open loop
    lateness: List[float] = field(default_factory=list)  # open loop: send - due
    backlog_at_end: int = 0  # open loop: outstanding when the schedule ended
    errors: Dict[str, int] = field(default_factory=dict)
    answers: List[Tuple[int, object]] = field(default_factory=list)  # sampled (rid, value)
    #: closed loop: (instant, what the caller's sampler read) at each block
    #: edge, e.g. the server's CPU seconds so far
    samples: List[Tuple[float, float]] = field(default_factory=list)
    driver_cpu_share: float = 0.0

    @property
    def answered(self) -> int:
        return len(self.done_at)

    @property
    def refused(self) -> int:
        return sum(self.errors.get(code, 0) for code in REFUSED)

    @property
    def failed(self) -> int:
        return self.sent - self.answered

    @property
    def late_share(self) -> float:
        late = np.asarray(self.lateness)
        return float((late > LATE_S).mean()) if late.size else 0.0

    def late_windows_share(self, limit_s: float = 0.005) -> float:
        """Share of the 1 s windows whose median send lateness is >= *limit_s*."""
        due = np.asarray(self.due_at)
        late = np.asarray(self.lateness)
        if not due.size:
            return 0.0
        windows = np.floor(due).astype(int)
        bad = [np.median(late[windows == k]) >= limit_s for k in np.unique(windows)]
        return float(np.mean(bad))


class Driver:
    """Blocking sends, select()-driven reads, one thread."""

    def __init__(self, host: str, port: int, connections: int, frames: Frames,
                 sample_every: int):
        from repro.net.protocol import ResultFrame, decode_payload

        self._decode = decode_payload
        self._result = ResultFrame
        self.frames = frames
        self._sample_every = sample_every
        self._next = 0  # position of the next frame to send
        self._socks = []
        for _ in range(connections):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks.append(sock)
        self._buf = {s: bytearray() for s in self._socks}
        self._since: Dict[int, float] = {}  # request id -> instant latency counts from

    def close(self) -> None:
        for sock in self._socks:
            sock.close()

    # ------------------------------------------------------------------ #

    def _receive(self, sock, phase: Phase, t0: float) -> int:
        """Read what *sock* has; record every complete response."""
        data = sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        buf = self._buf[sock]
        buf += data
        now = perf_counter() - t0
        offset = got = 0
        while len(buf) - offset >= 4:
            (length,) = _LEN.unpack_from(buf, offset)
            if len(buf) - offset < 4 + length:
                break
            frame = self._decode(bytes(buf[offset + 4:offset + 4 + length]))
            offset += 4 + length
            got += 1
            since = self._since.pop(frame.request_id, None)
            if not isinstance(frame, self._result):
                code = getattr(frame, "code", "unexpected")
                phase.errors[code] = phase.errors.get(code, 0) + 1
            elif since is not None:  # else: answered after its phase gave up on it
                phase.done_at.append(now)
                phase.latency.append(now - since)
                if frame.request_id % self._sample_every == 0:
                    phase.answers.append((frame.request_id, frame.value))
        del buf[:offset]
        return got

    def _drain(self, phase: Phase, t0: float, timeout: float) -> None:
        """Wait (bounded) for the outstanding responses; the rest stay unanswered."""
        deadline = perf_counter() + timeout
        while self._since and perf_counter() < deadline:
            ready, _, _ = select.select(self._socks, [], [], 0.05)
            for sock in ready:
                self._receive(sock, phase, t0)
        self._since.clear()

    # ------------------------------------------------------------------ #

    def closed_loop(self, in_flight: int, seconds: float, expect_qps: float,
                    stop_after: int = 0, sampler=None) -> Phase:
        """Keep *in_flight* requests outstanding per connection for *seconds*
        (or, for a warm-up sized by work, until *stop_after* were sent).
        *sampler*, if given, is read at every block edge (``BLOCK_S``) into
        ``phase.samples``."""
        phase = Phase(seconds)
        frames, first = self.frames, self._next
        frames.ensure(first + int(expect_qps * seconds * 1.3) + in_flight * len(self._socks))
        c0 = process_time()
        t0 = perf_counter()

        def send(sock, count: int) -> None:
            lo = self._next
            if lo + count > len(frames.data):
                frames.ensure(lo + count + 4096)  # the estimate fell short
            self._next = lo + count
            now = perf_counter() - t0
            for pos in range(lo, lo + count):
                self._since[pos + 1] = now
            sock.sendall(b"".join(frames.data[lo:lo + count]))

        for sock in self._socks:
            send(sock, in_flight)
        next_sample = 0.0
        while (now := perf_counter() - t0) < seconds:
            if stop_after and self._next - first >= stop_after:
                break
            if sampler is not None and now >= next_sample:
                phase.samples.append((now, sampler()))
                next_sample += BLOCK_S
            ready, _, _ = select.select(self._socks, [], [], 0.05)
            for sock in ready:
                got = self._receive(sock, phase, t0)
                if got:
                    send(sock, got)
        phase.driver_cpu_share = (process_time() - c0) / (perf_counter() - t0)
        phase.sent = self._next - first
        self._drain(phase, t0, timeout=5.0)
        return phase

    def open_loop(self, rate: float, seconds: float, drain_s: float = 2.0) -> Phase:
        """Send at a fixed *rate* for *seconds*, whatever comes back."""
        phase = Phase(seconds)
        frames, first = self.frames, self._next
        n = int(rate * seconds)
        frames.ensure(first + n)
        due = np.arange(n) / rate
        k = len(self._socks)
        c0 = process_time()
        t0 = perf_counter()
        i = 0
        while i < n:
            now = perf_counter() - t0
            if due[i] <= now:
                j = int(np.searchsorted(due, now, side="right"))
                for pos in range(i, j):
                    self._since[first + pos + 1] = due[pos]
                    phase.lateness.append(now - due[pos])
                for c, sock in enumerate(self._socks):
                    chunk = frames.data[first + i + c:first + j:k]
                    if chunk:
                        sock.sendall(b"".join(chunk))
                i = j
                wait = 0.0
            else:
                wait = due[i] - now
            ready, _, _ = select.select(self._socks, [], [], wait)
            for sock in ready:
                self._receive(sock, phase, t0)
        self._next = first + n
        phase.sent = n
        phase.due_at = due.tolist()
        phase.backlog_at_end = len(self._since)
        phase.driver_cpu_share = (process_time() - c0) / (perf_counter() - t0)
        self._drain(phase, t0, timeout=drain_s)
        return phase
