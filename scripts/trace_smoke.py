"""Distributed-tracing smoke gate (``make trace-smoke``).

One serving burst, two checks — over a real socket, on a 2-shard index
behind the engine's ``threads`` backend, so a traced request
crosses every thread of the stack: client-stamped trace context →
protocol-v2 QUERY frame → admission → service staging → flush → engine
dispatch → shard jobs on the engine's pool threads.

1. **Complete parented traces** — every client-chosen ``trace_id`` must
   reconstruct into one parented tree containing every layer
   (``net.request`` → ``service.flush`` → ``engine.execute`` →
   ``strategy.batch``), and every span that finished on a pool thread
   must hang under ``engine.execute``.
2. **Chrome-trace export** — the Trace Event dump of each trace must
   carry complete (``X``) events for every layer on at least two thread
   lanes, loadable in ``chrome://tracing`` / Perfetto as-is.

Exits non-zero on any violation.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import repro.obs as obs
from repro.engine import ExecutionEngine
from repro.intervals.collection import IntervalCollection
from repro.net import QueryClient, TraceContext, new_trace_id, serve_in_thread
from repro.obs.chrome_trace import to_chrome_trace
from repro.obs.tracecontext import build_trace_tree, format_trace_id
from repro.service import BatchingQueryService
from repro.shard import ShardedHint

M = 12
REQUESTS = 24
LAYERS = ("net.request", "service.flush", "engine.execute", "strategy.batch")
POOL_PREFIX = "repro-engine"


def _walk(node, path=()):
    """Yield ``(node, names of its ancestors)`` over a trace tree."""
    yield node, path
    for child in node.get("children", ()):
        yield from _walk(child, path + (node["name"],))


def main() -> int:
    rng = np.random.default_rng(7)
    top = (1 << M) - 1
    st = rng.integers(0, top + 1, 20_000)
    end = np.minimum(st + rng.integers(0, 400, 20_000), top)
    coll = IntervalCollection(st, end)

    ob = obs.configure(enabled=True)
    engine = ExecutionEngine(
        ShardedHint(coll, k=2, m=M), backend="threads", workers=2
    )
    service = BatchingQueryService(
        engine, mode="count", max_batch=8, max_delay_ms=2.0
    )
    handle = serve_in_thread(service, owns_service=True)
    id_rng = random.Random(7)
    trace_ids = []
    try:
        with QueryClient(handle.host, handle.port) as client:
            for _ in range(REQUESTS):
                tid = new_trace_id(id_rng)
                trace_ids.append(tid)
                # Straddle the shard cut: every query is a job for both
                # shards, so its strategy spans finish on pool threads.
                a = int(rng.integers(0, top // 2 - 1))
                b = int(rng.integers(top // 2 + 1, top))
                client.query(a, b, trace=TraceContext(tid))
    finally:
        handle.close()
        engine.close()

    states = [sp.state() for sp in ob.recorder.spans()]

    # Check 1: every trace is one parented tree, pool spans included.
    pooled_total = 0
    for tid in trace_ids:
        tree = build_trace_tree(states, tid)
        if tree is None:
            raise SystemExit(f"trace {format_trace_id(tid)} left no spans at all")
        nodes = list(_walk(tree))
        names = {node["name"] for node, _ in nodes}
        missing = [layer for layer in LAYERS if layer not in names]
        if tree["name"] != "net.request" or missing:
            raise SystemExit(
                f"trace {format_trace_id(tid)} rooted at {tree['name']!r} "
                f"is missing layers {missing}"
            )
        pooled = [
            (node, path) for node, path in nodes
            if str(node.get("thread", "")).startswith(POOL_PREFIX)
        ]
        if not pooled:
            raise SystemExit(
                f"trace {format_trace_id(tid)} never reached a pool thread"
            )
        for node, path in pooled:
            if "engine.execute" not in path:
                raise SystemExit(
                    f"trace {format_trace_id(tid)}: {node['name']} on "
                    f"{node['thread']} hangs under {' > '.join(path)}, not "
                    "engine.execute"
                )
        pooled_total += len(pooled)
    print(
        f"trace-smoke: {len(trace_ids)}/{len(trace_ids)} traces complete, "
        f"{pooled_total} pool-thread spans under engine.execute"
    )

    # Check 2: the Chrome-trace dump of each trace spans >= 2 lanes.
    lanes_min = None
    for tid in trace_ids:
        events = to_chrome_trace(states, trace_id=tid)["traceEvents"]
        xevents = [e for e in events if e["ph"] == "X"]
        lanes = {(e["pid"], e["tid"]) for e in xevents}
        xnames = {e["name"] for e in xevents}
        if len(lanes) < 2 or not all(layer in xnames for layer in LAYERS):
            raise SystemExit(
                f"chrome-trace dump of {format_trace_id(tid)} incomplete: "
                f"lanes={len(lanes)}, layers={sorted(xnames)}"
            )
        lanes_min = len(lanes) if lanes_min is None else min(lanes_min, len(lanes))
    print(f"trace-smoke: chrome dumps ok (>= {lanes_min} thread lanes each)")
    print("trace-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
