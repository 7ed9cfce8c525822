"""Chrome-trace (``chrome://tracing`` / Perfetto) exporter for spans.

Converts span ``state()`` dicts into the Trace Event JSON object format
that ``chrome://tracing``, ``edge://tracing`` and https://ui.perfetto.dev
load directly: one ``X`` (complete) event per span with microsecond
timestamps, laid out in one lane per ``(pid, thread)`` so the threaded
structure of a batch is visible at a glance (the event loop, the
flusher and each engine pool thread get a lane of their own).

Span ``started`` values come from ``time.perf_counter()``, which on
Linux is the system-wide ``CLOCK_MONOTONIC`` — timestamps from every
thread share one clock, so events line up without adjustment.  Timestamps are normalized to the
earliest span so traces start near zero.

Use :func:`to_chrome_trace` for a whole recorder dump or a single trace
(``trace_id=...``); ``python -m repro.cli trace --chrome out.json``
wires it to the shell.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.tracecontext import format_trace_id

__all__ = ["to_chrome_trace", "chrome_trace_json"]


def to_chrome_trace(
    span_states: Iterable[dict],
    *,
    trace_id: Optional[int] = None,
    meta: Optional[dict] = None,
) -> dict:
    """Build a Trace Event Format object from span state dicts.

    With *trace_id*, only spans belonging to that trace are exported.
    Returns the JSON-able object (``{"traceEvents": [...], ...}``);
    :func:`chrome_trace_json` serializes it.
    """
    spans = [dict(s) for s in span_states]
    if trace_id is not None:
        tid_int = int(trace_id)
        spans = [s for s in spans if tid_int in s.get("trace_ids", ())]
    spans.sort(key=lambda s: (s.get("started", 0.0), s.get("span_id", 0)))
    t0 = min((s.get("started", 0.0) for s in spans), default=0.0)

    events = []
    lanes: Dict[Tuple[int, str], int] = {}
    for state in spans:
        pid = int(state.get("pid") or 0)
        thread = str(state.get("thread") or "?")
        lane_key = (pid, thread)
        if lane_key not in lanes:
            # Stable small integer per (pid, thread); named via a
            # metadata event so the viewer shows the thread name.
            lanes[lane_key] = len(lanes) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": lanes[lane_key],
                    "args": {"name": thread},
                }
            )
        args = dict(state.get("attrs", {}))
        args["span_id"] = state.get("span_id")
        if state.get("parent_id") is not None:
            args["parent_id"] = state.get("parent_id")
        traces = state.get("trace_ids", ())
        if traces:
            args["traces"] = [format_trace_id(t) for t in traces]
        events.append(
            {
                "name": state.get("name", "?"),
                "cat": str(state.get("name", "?")).split(".", 1)[0],
                "ph": "X",
                "ts": (state.get("started", 0.0) - t0) * 1e6,
                "dur": max(state.get("duration", 0.0), 0.0) * 1e6,
                "pid": pid,
                "tid": lanes[lane_key],
                "args": args,
            }
        )
    out = {"traceEvents": events, "displayTimeUnit": "ms"}
    other = dict(meta or {})
    if trace_id is not None:
        other["trace_id"] = format_trace_id(trace_id)
    if other:
        out["otherData"] = other
    return out


def chrome_trace_json(
    span_states: Iterable[dict],
    *,
    trace_id: Optional[int] = None,
    meta: Optional[dict] = None,
    indent: Optional[int] = None,
) -> str:
    """JSON text of :func:`to_chrome_trace` (what the CLI writes)."""
    return json.dumps(
        to_chrome_trace(span_states, trace_id=trace_id, meta=meta),
        indent=indent,
    )
