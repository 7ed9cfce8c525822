"""Tests for trace contexts: wire format, protocol v2, scope, parenting.

Covers the 17-byte :class:`~repro.obs.tracecontext.TraceContext` wire
encoding and its protocol-v2 QUERY field (with v1 backward compat), the
recorder's thread-local trace scope, the pid/thread stamping of finished
spans (including the fork regression: a span finished in a forked child
must carry the *child's* pid), parenting of spans finished on pool
threads, trace-tree reconstruction, and the Chrome-trace exporter.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.obs as obs
from repro.net.protocol import (
    ProtocolError,
    QueryFrame,
    decode_frame,
    encode_frame,
)
from repro.obs.chrome_trace import to_chrome_trace
from repro.obs.spans import SpanRecorder
from repro.obs.tracecontext import (
    WIRE_SIZE,
    TraceContext,
    build_trace_tree,
    format_trace_id,
    list_traces,
    new_trace_id,
    parse_trace_id,
    render_trace_tree,
)

_U64 = (1 << 64) - 1


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs.configure(enabled=False)
    yield
    obs.configure(enabled=False)


# --------------------------------------------------------------------- #
# wire format
# --------------------------------------------------------------------- #


class TestWireFormat:
    @given(
        st.integers(1, _U64),
        st.integers(0, _U64),
        st.booleans(),
    )
    def test_roundtrip(self, trace_id, parent, sampled):
        ctx = TraceContext(trace_id, parent, sampled)
        wire = ctx.to_wire()
        assert len(wire) == WIRE_SIZE
        assert TraceContext.from_wire(wire) == ctx

    def test_zero_trace_id_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            TraceContext(0)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match="17 bytes"):
            TraceContext.from_wire(b"\x00" * (WIRE_SIZE - 1))

    def test_unknown_flags_rejected(self):
        wire = bytearray(TraceContext(7).to_wire())
        wire[-1] |= 0x80
        with pytest.raises(ValueError, match="unknown trace flags"):
            TraceContext.from_wire(bytes(wire))

    def test_child_reparents(self):
        ctx = TraceContext(9, 0, sampled=False)
        child = ctx.child(42)
        assert child == TraceContext(9, 42, sampled=False)

    @given(st.integers(1, _U64))
    def test_format_parse_roundtrip(self, tid):
        text = format_trace_id(tid)
        assert len(text) == 16
        assert parse_trace_id(text) == tid
        assert parse_trace_id("0x" + text) == tid

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_trace_id("not-hex")
        with pytest.raises(ValueError):
            parse_trace_id("0")

    def test_new_trace_id_nonzero(self):
        import random

        assert new_trace_id(random.Random(0)) != 0


# --------------------------------------------------------------------- #
# protocol v2
# --------------------------------------------------------------------- #


class TestProtocolV2:
    def test_query_trace_roundtrip(self):
        ctx = TraceContext(0xABCDEF, 77, sampled=True)
        frame = QueryFrame(1, st=10, end=20, trace=ctx)
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.trace == ctx
        assert (decoded.st, decoded.end) == (10, 20)

    def test_query_without_trace(self):
        decoded, _ = decode_frame(encode_frame(QueryFrame(1, st=10, end=20)))
        assert decoded.trace is None

    def test_v1_query_still_decodes(self):
        # A v1 QUERY is a v2 frame minus the flags byte and trace field.
        import struct

        encoded = bytearray(encode_frame(QueryFrame(3, st=5, end=9)))
        encoded[6] = 1  # version byte
        del encoded[-1]  # drop the v2 flags byte
        (length,) = struct.unpack(">I", encoded[:4])
        encoded[:4] = struct.pack(">I", length - 1)
        decoded, _ = decode_frame(bytes(encoded))
        assert (decoded.request_id, decoded.st, decoded.end) == (3, 5, 9)
        assert decoded.trace is None

    def test_unknown_query_flags_rejected(self):
        encoded = bytearray(encode_frame(QueryFrame(1, st=0, end=1)))
        encoded[-1] |= 0x40
        with pytest.raises(ProtocolError, match="flag"):
            decode_frame(bytes(encoded))

    def test_corrupt_trace_field_rejected(self):
        ctx = TraceContext(5)
        encoded = bytearray(encode_frame(QueryFrame(1, st=0, end=1, trace=ctx)))
        encoded[-1] |= 0x80  # last trace byte holds the trace flags
        with pytest.raises(ProtocolError):
            decode_frame(bytes(encoded))


# --------------------------------------------------------------------- #
# trace scope + tagging
# --------------------------------------------------------------------- #


class TestTraceScope:
    def test_spans_tagged_inside_scope(self):
        rec = SpanRecorder()
        with rec.trace_scope((11, 22)):
            with rec.span("a"):
                with rec.span("b"):
                    pass
        with rec.span("outside"):
            pass
        a, b = rec.spans("a")[0], rec.spans("b")[0]
        assert set(a.trace_ids) == {11, 22}
        assert set(b.trace_ids) == {11, 22}
        assert rec.spans("outside")[0].trace_ids == ()

    def test_scope_is_thread_local(self):
        rec = SpanRecorder()
        seen = {}

        def other():
            seen["ids"] = rec.current_trace_ids()

        with rec.trace_scope((5,)):
            t = threading.Thread(target=other)
            t.start()
            t.join()
            assert rec.current_trace_ids() == (5,)
        assert seen["ids"] == ()

    def test_nested_scope_restores(self):
        rec = SpanRecorder()
        with rec.trace_scope((1,)):
            with rec.trace_scope((2,)):
                assert rec.current_trace_ids() == (2,)
            assert rec.current_trace_ids() == (1,)
        assert rec.current_trace_ids() == ()


# --------------------------------------------------------------------- #
# pid / thread stamping (fork regression)
# --------------------------------------------------------------------- #


def _fork_child(queue):
    import os

    ob = obs.active()
    with ob.span("child.work"):
        pass
    sp = ob.recorder.spans("child.work")[-1]
    queue.put((sp.pid, os.getpid()))


class TestPidStamping:
    def test_finished_span_carries_pid_and_thread(self):
        import os

        rec = SpanRecorder()
        with rec.span("work"):
            pass
        sp = rec.spans("work")[0]
        assert sp.pid == os.getpid()
        assert sp.thread == threading.current_thread().name

    def test_pool_thread_span_keeps_its_thread_name(self):
        rec = SpanRecorder()

        def work():
            with rec.span("threaded"):
                pass

        t = threading.Thread(target=work, name="pool-thread-0")
        t.start()
        t.join()
        assert rec.spans("threaded")[0].thread == "pool-thread-0"

    def test_forked_child_span_carries_child_pid(self):
        # Regression: spans are stamped at *finish* time, so a recorder
        # inherited through fork() must label the child's spans with the
        # child's pid, not the parent's.
        import os

        if not hasattr(os, "fork"):
            pytest.skip("fork-only regression")
        obs.configure(enabled=True)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_fork_child, args=(queue,))
        proc.start()
        child_span_pid, child_pid = queue.get(timeout=30)
        proc.join(timeout=30)
        assert child_span_pid == child_pid
        assert child_span_pid != os.getpid()


# --------------------------------------------------------------------- #
# spans finished on pool threads
# --------------------------------------------------------------------- #


class TestPoolThreadParenting:
    def test_scope_parents_pool_thread_spans_under_dispatcher(self):
        rec = SpanRecorder()
        seen = {}
        with rec.trace_scope((7,)):
            with rec.span("engine.execute") as dispatch:
                traces = rec.current_trace_ids()
                parent = rec.current_span_id()

                def job():
                    with rec.trace_scope(traces, parent):
                        with rec.span("strategy.batch"):
                            pass
                    seen["after"] = rec.current_span_id()

                t = threading.Thread(target=job, name="repro-engine_0")
                t.start()
                t.join()
        (batch,) = rec.spans("strategy.batch")
        assert batch.parent_id == dispatch.span_id
        assert batch.trace_ids == (7,)
        assert batch.thread == "repro-engine_0"
        assert seen["after"] is None  # the borrowed parent is popped


# --------------------------------------------------------------------- #
# trace reconstruction + chrome export
# --------------------------------------------------------------------- #


def _state(span_id, name, parent=None, traces=(), started=0.0, dur=1e-3,
           pid=100, thread="t"):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent,
        "started": started,
        "duration": dur,
        "attrs": {},
        "trace_ids": tuple(traces),
        "pid": pid,
        "thread": thread,
    }


class TestBuildTraceTree:
    def test_simple_parenting(self):
        states = [
            _state(1, "net.request", traces=(7,), started=0.0),
            _state(2, "service.flush", parent=1, traces=(7, 8), started=0.1),
            _state(3, "engine.execute", parent=2, traces=(7, 8), started=0.2),
        ]
        tree = build_trace_tree(states, 7)
        assert tree["name"] == "net.request"
        assert tree["children"][0]["name"] == "service.flush"
        assert tree["children"][0]["children"][0]["name"] == "engine.execute"

    def test_foreign_parent_attaches_under_net_request(self):
        # The worker's batch span parents under the engine span of a
        # *different* process; when that parent is absent the subtree
        # must graft under the trace's net.request root.
        states = [
            _state(1, "net.request", traces=(7,), started=0.0),
            _state(9, "strategy.batch", parent=777, traces=(7,),
                   started=0.2, pid=200),
        ]
        tree = build_trace_tree(states, 7)
        assert tree["name"] == "net.request"
        assert [c["name"] for c in tree["children"]] == ["strategy.batch"]

    def test_membership_is_per_trace(self):
        states = [
            _state(1, "net.request", traces=(7,)),
            _state(2, "net.request", traces=(8,)),
            _state(3, "service.flush", parent=None, traces=(7, 8)),
        ]
        t7 = build_trace_tree(states, 7)
        names7 = {t7["name"]} | {c["name"] for c in t7["children"]}
        assert names7 == {"net.request", "service.flush"}
        assert build_trace_tree(states, 999) is None

    def test_render_and_list(self):
        states = [
            _state(1, "net.request", traces=(7,), started=0.0),
            _state(2, "service.flush", parent=1, traces=(7,), started=0.1),
        ]
        text = render_trace_tree(build_trace_tree(states, 7))
        assert "net.request" in text and "  service.flush" in text
        (summary,) = list_traces(states)
        assert summary["trace"] == format_trace_id(7)
        assert summary["spans"] == 2
        assert summary["root"] == "net.request"


class TestChromeTrace:
    def test_events_normalized_and_laned(self):
        states = [
            _state(1, "net.request", traces=(7,), started=10.0, dur=0.005,
                   pid=100, thread="main"),
            _state(2, "strategy.batch", parent=1, traces=(7,), started=10.001,
                   dur=0.003, pid=200, thread="w0"),
        ]
        out = to_chrome_trace(states, trace_id=7)
        xev = [e for e in out["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in out["traceEvents"] if e["ph"] == "M"]
        assert len(xev) == 2 and len(meta) == 2
        first = min(xev, key=lambda e: e["ts"])
        assert first["ts"] == 0.0
        assert {e["pid"] for e in xev} == {100, 200}
        assert xev[0]["args"]["traces"] == [format_trace_id(7)]
        assert out["otherData"]["trace_id"] == format_trace_id(7)

    def test_trace_filter(self):
        states = [
            _state(1, "a", traces=(7,)),
            _state(2, "b", traces=(8,)),
        ]
        out = to_chrome_trace(states, trace_id=7)
        assert [e["name"] for e in out["traceEvents"] if e["ph"] == "X"] == ["a"]
