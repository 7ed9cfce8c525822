"""End-to-end distributed tracing over a real socket.

The contract under test: a client-chosen ``trace_id`` sent in a
protocol-v2 QUERY frame must reappear on the spans of **every** layer it
crosses — ``net.request`` (event loop), ``service.flush`` (flusher
thread), ``engine.execute`` (dispatch), and the ``strategy.batch`` spans
that run on the engine's pool threads — and those spans must reconstruct
into one parented tree, the pool-thread spans under ``engine.execute``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import ExecutionEngine
from repro.hint.index import HintIndex
from repro.net import QueryClient, TraceContext, new_trace_id, serve_in_thread
from repro.obs.chrome_trace import to_chrome_trace
from repro.obs.tracecontext import build_trace_tree, format_trace_id
from repro.service import BatchingQueryService
from repro.shard import ShardedHint
from tests.conftest import random_collection

M = 10
TOP = (1 << M) - 1
LAYERS = ("net.request", "service.flush", "engine.execute", "strategy.batch")
POOL_PREFIX = "repro-engine"


@pytest.fixture(autouse=True)
def _obs_reset():
    obs.configure(enabled=False)
    yield
    obs.configure(enabled=False)


def _serve_traced_burst(backend, requests, *, sampled=True, workers=2, shards=0):
    """Run *requests* traced queries over a socket; return (ob, trace_ids).

    Every query straddles the middle of the domain, so on a 2-shard
    index each one is a job for both shards and runs on the pool."""
    rng = np.random.default_rng(11)
    coll = random_collection(rng, 5_000, TOP)
    ob = obs.configure(enabled=True)
    index = ShardedHint(coll, k=shards, m=M) if shards else HintIndex(coll, m=M)
    engine = ExecutionEngine(index, backend=backend, workers=workers)
    service = BatchingQueryService(
        engine, mode="count", max_batch=4, max_delay_ms=2.0
    )
    handle = serve_in_thread(service, owns_service=True)
    id_rng = random.Random(11)
    trace_ids = []
    try:
        with QueryClient(handle.host, handle.port) as client:
            for _ in range(requests):
                tid = new_trace_id(id_rng)
                trace_ids.append(tid)
                a = int(rng.integers(0, TOP // 2 - 1))
                b = int(rng.integers(TOP // 2 + 1, TOP))
                client.query(
                    a, b, trace=TraceContext(tid, sampled=sampled)
                )
    finally:
        handle.close()
        engine.close()
    return ob, trace_ids


def _walk(node, path=()):
    """Yield ``(node, names of its ancestors)`` over a trace tree."""
    yield node, path
    for child in node.get("children", ()):
        yield from _walk(child, path + (node["name"],))


class TestTraceEndToEnd:
    def test_every_layer_tagged_threads_two_shards(self):
        ob, trace_ids = _serve_traced_burst("threads", 10, shards=2)
        states = [sp.state() for sp in ob.recorder.spans()]
        for tid in trace_ids:
            tree = build_trace_tree(states, tid)
            assert tree is not None, f"trace {format_trace_id(tid)} has no spans"
            assert tree["name"] == "net.request"
            nodes = list(_walk(tree))
            names = {node["name"] for node, _ in nodes}
            missing = [layer for layer in LAYERS if layer not in names]
            assert not missing, (
                f"trace {format_trace_id(tid)} is missing layers {missing}"
            )
            # Work that finished on pool threads is parented, through
            # its spans' parent ids, under the dispatching engine.execute.
            pooled = [
                (node, path) for node, path in nodes
                if str(node.get("thread", "")).startswith(POOL_PREFIX)
            ]
            assert {node["name"] for node, _ in pooled} >= {"strategy.batch"}
            for node, path in pooled:
                assert "engine.execute" in path, (
                    f"{node['name']} on {node['thread']} hangs under {path}"
                )
            # The hex trace id is also stamped on the request span.
            assert tree["attrs"]["trace_id"] == format_trace_id(tid)
            # Chrome dump: every layer as a complete event, several lanes.
            events = to_chrome_trace(states, trace_id=tid)["traceEvents"]
            xevents = [e for e in events if e["ph"] == "X"]
            assert {e["name"] for e in xevents} >= set(LAYERS)
            assert len({(e["pid"], e["tid"]) for e in xevents}) >= 2

    def test_every_layer_tagged_threads_backend(self):
        ob, trace_ids = _serve_traced_burst("threads", 6)
        states = [sp.state() for sp in ob.recorder.spans()]
        for tid in trace_ids:
            tree = build_trace_tree(states, tid)
            assert tree["name"] == "net.request"
            names = {node["name"] for node, _ in _walk(tree)}
            assert all(layer in names for layer in LAYERS)

    def test_unsampled_traces_stop_at_the_request_span(self):
        # sampled=False: the request span is still recorded and tagged
        # (so the request count and latency stay truthful), but the
        # trace id does not propagate into the flush scope, so no pool
        # thread tags a span with it — sampling caps the trace cost at
        # one span.
        ob, trace_ids = _serve_traced_burst("threads", 6, sampled=False, shards=2)
        states = [sp.state() for sp in ob.recorder.spans()]
        for tid in trace_ids:
            tree = build_trace_tree(states, tid)
            assert {node["name"] for node, _ in _walk(tree)} == {"net.request"}
            assert tree["attrs"]["sampled"] is False

    def test_server_generates_trace_for_untraced_clients(self):
        # No client trace context: the server mints one per request so
        # every request is still reconstructable.
        rng = np.random.default_rng(13)
        coll = random_collection(rng, 3_000, TOP)
        ob = obs.configure(enabled=True)
        service = BatchingQueryService(
            HintIndex(coll, m=M), mode="count", max_batch=4, max_delay_ms=2.0
        )
        handle = serve_in_thread(service, owns_service=True)
        try:
            with QueryClient(handle.host, handle.port) as client:
                for _ in range(4):
                    client.query(5, 100)
        finally:
            handle.close()
        requests = ob.recorder.spans("net.request")
        assert len(requests) == 4
        tids = {sp.attrs["trace_id"] for sp in requests}
        assert len(tids) == 4  # one fresh trace per request
        for sp in requests:
            assert sp.trace_ids  # the span itself is a trace member
