"""Trace context: the request identity that crosses every boundary.

A :class:`TraceContext` is the compact W3C-traceparent-style triple
``(trace_id, parent_span_id, sampled)`` that links one client request to
every span it causes — across processes (client → server over the wire)
and across threads (net event loop → service flusher → engine pool
threads).  It travels:

* **on the wire** as an optional 17-byte field of a protocol-v2 QUERY
  frame (:mod:`repro.net.protocol`), so a client-chosen ``trace_id``
  reappears on every server-side span of that request;
* **through the service** on each staged query
  (:class:`~repro.service.BatchingQueryService` keeps it on the pending
  entry), and into the flusher thread via
  :meth:`~repro.obs.spans.SpanRecorder.trace_scope`;
* **onto pool threads** the same way: the dispatching thread hands its
  trace ids and open span to each chunk or shard job, so spans that
  finish on a pool thread keep the trace and their parent.

Because one *flush* answers many requests, spans carry a **set** of
trace ids (``Span.trace_ids``) rather than a single one: the span tree
of trace ``T`` is all spans containing ``T``, parented by ``parent_id``
where the parent is also in ``T`` — :func:`build_trace_tree` performs
that reconstruction, and :mod:`repro.obs.chrome_trace` renders it.

This module is dependency-free on purpose: the wire protocol imports it
without dragging in the rest of the observability plane.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = [
    "TraceContext",
    "WIRE_SIZE",
    "new_trace_id",
    "format_trace_id",
    "parse_trace_id",
    "build_trace_tree",
    "render_trace_tree",
    "list_traces",
]

_WIRE = struct.Struct(">QQB")  # trace_id, parent_span_id, flags
_FLAG_SAMPLED = 0x01
_U64_MASK = (1 << 64) - 1

#: Encoded byte size of one context on the wire.
WIRE_SIZE = _WIRE.size


def new_trace_id(rng: Optional[random.Random] = None) -> int:
    """A fresh nonzero 64-bit trace id."""
    r = rng if rng is not None else random
    while True:
        tid = r.getrandbits(64)
        if tid:
            return tid


def format_trace_id(trace_id: int) -> str:
    """Canonical hex rendering (16 lowercase hex digits)."""
    return f"{int(trace_id) & _U64_MASK:016x}"


def parse_trace_id(text: str) -> int:
    """Inverse of :func:`format_trace_id`; accepts bare decimal too."""
    text = text.strip().lower()
    if text.startswith("0x"):
        text = text[2:]
    try:
        value = int(text, 16)
    except ValueError:
        raise ValueError(f"not a trace id: {text!r}") from None
    if not 0 < value <= _U64_MASK:
        raise ValueError(f"trace id out of u64 range: {text!r}")
    return value


@dataclass(frozen=True)
class TraceContext:
    """One request's tracing identity, as propagated between layers.

    ``trace_id``
        Nonzero 64-bit id shared by every span of the request.
    ``parent_span_id``
        Span id of the nearest enclosing span in the *sending* process
        (0 = no parent): a client stamps its own span, the server
        stamps the ``net.request`` root for everything downstream.
    ``sampled``
        Head-based sampling verdict.  An unsampled request keeps its
        ``net.request`` span, but its trace id does not propagate into
        the flush scope, so no layer below tags a span with it.
    """

    trace_id: int
    parent_span_id: int = 0
    sampled: bool = True

    def __post_init__(self):
        if not 0 < int(self.trace_id) <= _U64_MASK:
            raise ValueError(f"trace_id must be a nonzero u64: {self.trace_id}")
        if not 0 <= int(self.parent_span_id) <= _U64_MASK:
            raise ValueError(
                f"parent_span_id out of u64 range: {self.parent_span_id}"
            )

    def child(self, parent_span_id: int) -> "TraceContext":
        """The same trace, re-parented under *parent_span_id*."""
        return TraceContext(self.trace_id, int(parent_span_id), self.sampled)

    def to_wire(self) -> bytes:
        """The 17-byte wire encoding (:data:`WIRE_SIZE`)."""
        flags = _FLAG_SAMPLED if self.sampled else 0
        return _WIRE.pack(int(self.trace_id), int(self.parent_span_id), flags)

    @classmethod
    def from_wire(cls, data: bytes) -> "TraceContext":
        """Decode :meth:`to_wire` output; raises ``ValueError`` on any
        violation (the protocol layer maps that to ``ProtocolError``)."""
        if len(data) != WIRE_SIZE:
            raise ValueError(
                f"trace context must be {WIRE_SIZE} bytes, got {len(data)}"
            )
        trace_id, parent, flags = _WIRE.unpack(data)
        if flags & ~_FLAG_SAMPLED:
            raise ValueError(f"unknown trace flags 0x{flags:02X}")
        return cls(trace_id, parent, bool(flags & _FLAG_SAMPLED))

    def __repr__(self) -> str:
        return (
            f"TraceContext({format_trace_id(self.trace_id)}, "
            f"parent={self.parent_span_id}, sampled={self.sampled})"
        )


# --------------------------------------------------------------------- #
# trace reconstruction (over span state dicts)
# --------------------------------------------------------------------- #


def _in_trace(state: dict, trace_id: int) -> bool:
    return trace_id in state.get("trace_ids", ())


def build_trace_tree(
    span_states: Iterable[dict], trace_id: int
) -> Optional[dict]:
    """Reconstruct trace *trace_id* as one parented tree.

    Input is span ``state()`` dicts (e.g. a snapshot's ``spans.recent``
    section, or a recorder's ring).  Membership is by
    ``trace_ids``; a member parents under its ``parent_id`` when that
    span is also a member, otherwise it attaches under the trace root.
    The root is the earliest-started member named ``net.request`` when
    one exists (the wire entry point), else the earliest parentless
    member.  Returns the root node — each node is the state dict plus a
    ``children`` list sorted by start time — or ``None`` when the trace
    has no spans.
    """
    members = [s for s in span_states if _in_trace(s, trace_id)]
    if not members:
        return None
    members.sort(key=lambda s: (s.get("started", 0.0), s.get("span_id", 0)))
    nodes: Dict[int, dict] = {}
    for state in members:
        node = dict(state)
        node["children"] = []
        nodes[state["span_id"]] = node
    roots: List[dict] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    if len(roots) == 1:
        return roots[0]
    primary = next(
        (r for r in roots if r["name"] == "net.request"), roots[0]
    )
    for node in roots:
        if node is not primary:
            primary["children"].append(node)
    return primary


def render_trace_tree(root: dict, *, indent: int = 0) -> str:
    """Indented text rendering of a :func:`build_trace_tree` tree."""
    pid = root.get("pid")
    where = f" pid={pid}" if pid is not None else ""
    attrs = {
        k: v for k, v in root.get("attrs", {}).items() if k != "trace_id"
    }
    line = (
        f"{'  ' * indent}{root['name']} "
        f"{root.get('duration', 0.0) * 1000:.3f}ms{where}"
        + (f" {attrs}" if attrs else "")
    )
    parts = [line]
    for child in root.get("children", ()):
        parts.append(render_trace_tree(child, indent=indent + 1))
    return "\n".join(parts)


def list_traces(span_states: Iterable[dict]) -> List[dict]:
    """Summarize every trace present in *span_states*.

    Returns one ``{"trace_id", "trace", "spans", "root", "duration",
    "started"}`` dict per distinct trace id (``trace`` is the hex form),
    most recently started first.
    """
    by_trace: Dict[int, List[dict]] = {}
    for state in span_states:
        for tid in state.get("trace_ids", ()):
            by_trace.setdefault(int(tid), []).append(state)
    out = []
    for tid, members in by_trace.items():
        root = build_trace_tree(members, tid)
        out.append(
            {
                "trace_id": tid,
                "trace": format_trace_id(tid),
                "spans": len(members),
                "root": root["name"] if root else "?",
                "duration": root.get("duration", 0.0) if root else 0.0,
                "started": min(s.get("started", 0.0) for s in members),
            }
        )
    out.sort(key=lambda t: t["started"], reverse=True)
    return out
