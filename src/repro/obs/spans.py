"""Hierarchical tracing spans with a bounded ring buffer.

The paper's whole argument is about *where time goes* inside a batch —
levels, partitions, flushes.  A :class:`SpanRecorder` captures that live:
instrumented code opens spans (``strategy.batch`` → ``strategy.level`` →
``strategy.partition``, ``service.flush``, ``dynamic.rebuild``,
``service.swap_index``, ``parallel.chunk``), parenting is automatic via
a per-thread stack, and finished spans land in a fixed-capacity ring
buffer — a long-running service never grows memory for tracing.

Two derived products make the spans operational:

* every finished span feeds the ``repro_span_seconds{span=...}``
  histogram of the attached :class:`~repro.obs.metrics.MetricsRegistry`
  (the span-derived latency metrics exporters expose);
* spans slower than the configured threshold are copied into a separate
  bounded **slow log**, the first place to look when p99 moves.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

__all__ = ["Span", "SpanRecorder", "SPAN_LATENCY_METRIC"]

#: Histogram fed with every finished span's duration, labeled by name.
SPAN_LATENCY_METRIC = "repro_span_seconds"


class Span:
    """One finished (or in-flight) span.

    ``trace_ids`` is the (possibly empty) tuple of request trace ids the
    span belongs to — a batch-grained span (one flush answers many
    requests) is a member of every sampled trace in its batch.  ``pid``
    and ``thread`` identify the recording process/thread: a forked child
    that inherited the recorder stamps its own pid, and spans finished on
    pool threads carry that thread's name (one lane each in a Chrome
    trace).
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "started",
        "duration",
        "attrs",
        "trace_ids",
        "pid",
        "thread",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        started: float,
        duration: float,
        attrs: Dict[str, object],
        trace_ids: Tuple[int, ...] = (),
        pid: Optional[int] = None,
        thread: Optional[str] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started = started
        self.duration = duration
        self.attrs = attrs
        self.trace_ids = trace_ids
        self.pid = pid
        self.thread = thread

    def state(self) -> dict:
        """JSON-able view."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started": self.started,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "trace_ids": list(self.trace_ids),
            "pid": self.pid,
            "thread": self.thread,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration * 1000:.3f}ms)"
        )


class SpanRecorder:
    """Bounded recorder of hierarchical spans.

    Parameters
    ----------
    capacity:
        Ring-buffer size for finished spans (oldest evicted first).
    slow_threshold_s:
        Spans at least this long are also copied to the slow log.
        Per-name overrides via *slow_overrides* (e.g. a tighter bound for
        ``service.flush`` than for ``dynamic.rebuild``).
    slow_capacity:
        Bound of the slow log.
    registry:
        Optional :class:`MetricsRegistry`; when given, every finished
        span observes ``repro_span_seconds{span=<name>}``.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        *,
        capacity: int = 4096,
        slow_threshold_s: float = 0.1,
        slow_overrides: Optional[Mapping[str, float]] = None,
        slow_capacity: int = 256,
        registry: Optional[MetricsRegistry] = None,
        clock=time.perf_counter,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if slow_capacity < 1:
            raise ValueError("slow_capacity must be positive")
        if slow_threshold_s < 0:
            raise ValueError("slow_threshold_s must be non-negative")
        self.capacity = int(capacity)
        self.slow_threshold_s = float(slow_threshold_s)
        self.slow_overrides = dict(slow_overrides or {})
        self._ring: deque = deque(maxlen=self.capacity)
        self._slow: deque = deque(maxlen=int(slow_capacity))
        self._registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._started = 0
        self._finished = 0
        self._dropped = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def allocate_span_id(self) -> int:
        """Reserve a span id before the span's work runs.

        Lets a layer hand the id to downstream workers as their remote
        parent (via :class:`~repro.obs.tracecontext.TraceContext`) and
        later record the span itself with ``add(..., span_id=...)`` —
        the net front end does exactly this for ``net.request``.
        """
        return next(self._ids)

    # -- trace scoping ------------------------------------------------- #

    def current_trace_ids(self) -> Tuple[int, ...]:
        """The trace ids active on this thread (empty tuple when none)."""
        return getattr(self._local, "traces", ())

    @contextmanager
    def trace_scope(
        self, trace_ids: Sequence[int], parent_id: Optional[int] = None
    ):
        """Tag every span this thread records inside the block with
        *trace_ids* — how the flusher stamps one batch's spans with the
        trace ids of every sampled request it answers.  *parent_id*
        parents the block's outermost spans under a span open on another
        thread: a pool thread running work its dispatcher timed."""
        prev = getattr(self._local, "traces", ())
        self._local.traces = tuple(int(t) for t in trace_ids)
        stack = self._stack()
        if parent_id is not None:
            stack.append(parent_id)
        try:
            yield
        finally:
            if parent_id is not None:
                stack.pop()
            self._local.traces = prev

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a span; yields the mutable :class:`Span` so callers can
        attach attributes (e.g. an error tag) before it closes."""
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(
            name,
            span_id,
            parent,
            self._clock(),
            0.0,
            attrs,
            trace_ids=self.current_trace_ids(),
        )
        stack.append(span_id)
        with self._lock:
            self._started += 1
        try:
            yield sp
        except BaseException as exc:
            sp.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            stack.pop()
            sp.duration = self._clock() - sp.started
            self._finish(sp)

    def add(
        self,
        name: str,
        duration: float,
        *,
        attrs: Optional[Dict[str, object]] = None,
        parent_id: Optional[int] = None,
        span_id: Optional[int] = None,
        trace_ids: Optional[Sequence[int]] = None,
    ) -> Span:
        """Record an externally timed, already-finished span.

        The parent defaults to the innermost open span of the calling
        thread, so ``add`` inside a ``with recorder.span(...)`` block
        nests naturally.  *span_id* installs an id previously reserved
        with :meth:`allocate_span_id`; *trace_ids* overrides the
        thread's active :meth:`trace_scope` (for spans recorded on a
        different thread than the work they time, e.g. shard sub-batches
        run on pool threads).
        """
        if parent_id is None:
            parent_id = self.current_span_id()
        if trace_ids is None:
            trace_ids = self.current_trace_ids()
        sp = Span(
            name,
            span_id if span_id is not None else next(self._ids),
            parent_id,
            self._clock() - duration,
            float(duration),
            attrs or {},
            trace_ids=tuple(int(t) for t in trace_ids),
        )
        with self._lock:
            self._started += 1
        self._finish(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        if sp.pid is None:
            # Stamp the recording process/thread at finish time: a
            # forked worker that inherited this recorder stamps its own
            # pid, which is what keeps its ring/slow-log entries
            # attributable (the fork-start-method hazard).
            sp.pid = os.getpid()
            sp.thread = threading.current_thread().name
        threshold = self.slow_overrides.get(sp.name, self.slow_threshold_s)
        with self._lock:
            self._finished += 1
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(sp)
            if sp.duration >= threshold:
                self._slow.append(sp)
        if self._registry is not None:
            self._registry.histogram(
                SPAN_LATENCY_METRIC,
                buckets=LATENCY_BUCKETS,
                labels={"span": sp.name},
                help="Distribution of span durations, labeled by span name.",
            ).observe(sp.duration)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Retained finished spans, oldest first (optionally one name)."""
        with self._lock:
            out = list(self._ring)
        if name is not None:
            out = [sp for sp in out if sp.name == name]
        return out

    def slow(self) -> List[Span]:
        """The slow log, oldest first."""
        with self._lock:
            return list(self._slow)

    def children(self, span_id: int) -> List[Span]:
        """Retained spans whose parent is *span_id*."""
        return [sp for sp in self.spans() if sp.parent_id == span_id]

    def trace(self, trace_id: int) -> List[Span]:
        """Retained spans belonging to *trace_id*, oldest first."""
        tid = int(trace_id)
        return [sp for sp in self.spans() if tid in sp.trace_ids]

    def summary(self) -> Dict[str, dict]:
        """Per-name aggregate over the retained ring: count / total /
        max duration (seconds)."""
        out: Dict[str, dict] = {}
        for sp in self.spans():
            agg = out.setdefault(sp.name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += sp.duration
            agg["max_s"] = max(agg["max_s"], sp.duration)
        return out

    def counts(self) -> Tuple[int, int, int]:
        """(started, finished, dropped-from-ring) span counts."""
        with self._lock:
            return self._started, self._finished, self._dropped

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._slow.clear()
            self._started = self._finished = self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        started, finished, dropped = self.counts()
        return (
            f"SpanRecorder(retained={len(self)}/{self.capacity}, "
            f"finished={finished}, dropped={dropped})"
        )
