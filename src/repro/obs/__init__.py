"""repro.obs — the unified runtime observability plane.

One subsystem shared by every layer of the stack: the batch strategies,
the parallel executor, the micro-batching service, the dynamic index and
the fault injector all publish into the same
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.spans.SpanRecorder`, exported via Prometheus text or
JSON (:mod:`repro.obs.export`) and rendered by ``python -m repro.cli
stats``.

The plane is **off by default** and instrumentation is a no-op when
disabled: every hook site starts with ``ob = obs.active()`` and does
nothing when that returns ``None`` — one attribute load, one call, one
``is None`` check per *batch-grained* operation (never per query).  The
``make obs-smoke`` benchmark enforces the <5 % overhead policy on the
tier-1 strategies with the plane off.

Usage::

    from repro import obs

    obs.configure(enabled=True)           # turn the plane on
    ...run strategies / the service...
    print(obs.render())                   # human table
    text = obs.prometheus()               # exposition format
    obs.configure(enabled=False)          # back to zero-cost

Span hierarchy: ``strategy.batch`` → ``strategy.level`` →
``strategy.partition`` (partition detail only with
``trace_partitions=True``), plus ``service.flush``,
``service.swap_index``, ``dynamic.rebuild`` and ``parallel.chunk``.
Metric names are documented in ``docs/observability.md``.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    POW2_BUCKETS,
)
from repro.obs.spans import SPAN_LATENCY_METRIC, Span, SpanRecorder
from repro.obs.tracecontext import (
    TraceContext,
    format_trace_id,
    new_trace_id,
    parse_trace_id,
)
from repro.obs.export import (
    render_table,
    snapshot_dict,
    to_json,
    to_prometheus,
)

__all__ = [
    "Observability",
    "ObsConfig",
    "configure",
    "active",
    "enabled",
    "registry",
    "recorder",
    "reset",
    "snapshot",
    "render",
    "prometheus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "new_trace_id",
    "format_trace_id",
    "parse_trace_id",
    "LATENCY_BUCKETS",
    "POW2_BUCKETS",
    "SPAN_LATENCY_METRIC",
]

# Canonical metric names of the strategy layer (one place, so tests and
# docs cannot drift from the instrumentation).
STRATEGY_BATCHES = "repro_strategy_batches_total"
STRATEGY_QUERIES = "repro_strategy_queries_total"
STRATEGY_BATCH_SECONDS = "repro_strategy_batch_seconds"
STRATEGY_LEVEL_SECONDS = "repro_strategy_level_seconds"
STRATEGY_PARTITION_TOUCHES = "repro_strategy_partition_touches_total"
PARALLEL_CHUNKS = "repro_parallel_chunks_total"
PARALLEL_CHUNK_SECONDS = "repro_parallel_chunk_seconds"
FAULTS_INJECTED = "repro_faults_injected_total"
SHARD_BATCHES = "repro_shard_batches_total"
SHARD_QUERIES = "repro_shard_queries_total"
SHARD_SPILL_QUERIES = "repro_shard_spill_queries_total"
SHARD_BATCH_SECONDS = "repro_shard_batch_seconds"
ENGINE_BATCHES = "repro_engine_batches_total"
ENGINE_QUERIES = "repro_engine_queries_total"
ENGINE_BATCH_SECONDS = "repro_engine_batch_seconds"
CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
CACHE_SHARED = "repro_cache_shared_total"
CACHE_EVICTIONS = "repro_cache_evictions_total"
CACHE_INVALIDATIONS = "repro_cache_invalidations_total"
CACHE_FLUSHES = "repro_cache_flushes_total"
CACHE_BYTES = "repro_cache_bytes_resident"
CACHE_ENTRIES = "repro_cache_entries"
NET_REQUESTS = "repro_net_requests_total"
NET_REQUEST_SECONDS = "repro_net_request_seconds"
NET_CONNECTIONS = "repro_net_connections_total"
NET_CONNECTIONS_ACTIVE = "repro_net_connections_active"
NET_DEADLINE_DROPPED = "repro_net_deadline_dropped_total"
NET_ADMISSION_REJECTED = "repro_net_admission_rejected_total"
NET_OVERLOAD_SHED = "repro_net_overload_shed_total"
NET_DECODE_ERRORS = "repro_net_decode_errors_total"
SLO_LATENCY_QUANTILE = "repro_slo_latency_quantile_seconds"
SLO_LATENCY_TARGET = "repro_slo_latency_target_seconds"
SLO_BURN_RATE = "repro_slo_error_budget_burn_rate"
SLO_VIOLATIONS = "repro_slo_violations_total"


class ObsConfig:
    """Configuration of the plane (immutable once applied)."""

    __slots__ = (
        "enabled",
        "trace_partitions",
        "span_capacity",
        "slow_threshold_s",
        "slow_overrides",
        "trace_sample_rate",
    )

    def __init__(
        self,
        *,
        enabled: bool = False,
        trace_partitions: bool = False,
        span_capacity: int = 4096,
        slow_threshold_s: float = 0.1,
        slow_overrides: Optional[Mapping[str, float]] = None,
        trace_sample_rate: float = 1.0,
    ):
        self.enabled = bool(enabled)
        self.trace_partitions = bool(trace_partitions)
        self.span_capacity = int(span_capacity)
        self.slow_threshold_s = float(slow_threshold_s)
        self.slow_overrides = dict(slow_overrides or {})
        if not 0.0 <= float(trace_sample_rate) <= 1.0:
            raise ValueError("trace_sample_rate must lie in [0, 1]")
        self.trace_sample_rate = float(trace_sample_rate)

    def __repr__(self) -> str:
        return (
            f"ObsConfig(enabled={self.enabled}, "
            f"trace_partitions={self.trace_partitions}, "
            f"span_capacity={self.span_capacity})"
        )


class Observability:
    """The live plane: one registry + one span recorder + helpers.

    Instrumented modules call the ``record_*`` helpers below rather than
    naming metrics inline, which keeps series names consistent across
    layers (and in ``docs/observability.md``).
    """

    def __init__(self, config: ObsConfig):
        self.config = config
        self.registry = MetricsRegistry()
        self.recorder = SpanRecorder(
            capacity=config.span_capacity,
            slow_threshold_s=config.slow_threshold_s,
            slow_overrides=config.slow_overrides,
            registry=self.registry,
        )

    # -------------------------------------------------------------- #
    # generic helpers
    # -------------------------------------------------------------- #

    def span(self, name: str, **attrs):
        """Open a span (context manager yielding the mutable span)."""
        return self.recorder.span(name, **attrs)

    def sample_trace(self) -> bool:
        """Head-based sampling verdict for a fresh trace.

        Decided once at the entry point (the query server) and carried
        on the :class:`TraceContext` from there on.
        """
        rate = self.config.trace_sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return random.random() < rate

    # -------------------------------------------------------------- #
    # strategy instrumentation
    # -------------------------------------------------------------- #

    @contextmanager
    def strategy_span(self, strategy: str, queries: int, mode: str):
        """Wraps one batch-strategy execution: the ``strategy.batch``
        span plus the batch/query counters and latency histogram."""
        reg = self.registry
        reg.counter(
            STRATEGY_BATCHES,
            labels={"strategy": strategy},
            help="Batches executed, by strategy.",
        ).inc()
        reg.counter(
            STRATEGY_QUERIES,
            labels={"strategy": strategy},
            help="Queries executed, by strategy.",
        ).inc(int(queries))
        t0 = time.perf_counter()
        try:
            with self.recorder.span(
                "strategy.batch", strategy=strategy, queries=int(queries), mode=mode
            ) as sp:
                yield sp
        finally:
            reg.histogram(
                STRATEGY_BATCH_SECONDS,
                buckets=LATENCY_BUCKETS,
                labels={"strategy": strategy},
                help="End-to-end batch execution latency, by strategy.",
            ).observe(time.perf_counter() - t0)

    def record_level(
        self,
        strategy: str,
        level: int,
        *,
        f=None,
        l=None,
        touches: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> int:
        """Per-level accounting of one strategy pass.

        *f* and *l* are the first/last relevant partition prefixes of
        every query at this level (arrays); the partition-touch count is
        ``sum(l - f + 1)`` — exactly the number of ``recorder.record``
        calls the reference implementation
        (:mod:`repro.analysis.trace`) makes at this level, so live
        counters and offline traces agree verbatim.  Callers that
        accumulate the count themselves (the per-query strategy) pass
        *touches* directly instead of the arrays.
        """
        if f is not None:
            f = np.asarray(f)
            l = np.asarray(l)
        if touches is None:
            if f is None:
                raise ValueError("record_level needs either touches or f/l")
            touches = int(np.sum(l - f + 1)) if f.size else 0
        self.registry.counter(
            STRATEGY_PARTITION_TOUCHES,
            labels={"strategy": strategy, "level": level},
            help="Partition touches per level (matches AccessRecorder).",
        ).inc(touches)
        span_id = None
        if duration is not None:
            self.registry.histogram(
                STRATEGY_LEVEL_SECONDS,
                buckets=LATENCY_BUCKETS,
                labels={"strategy": strategy},
                help="Per-level pass latency, by strategy.",
            ).observe(duration)
            sp = self.recorder.add(
                "strategy.level",
                duration,
                attrs={"strategy": strategy, "level": level, "touches": touches},
            )
            span_id = sp.span_id
        if self.config.trace_partitions and f is not None and f.size:
            self._record_partitions(strategy, level, f, l, span_id)
        return touches

    def _record_partitions(self, strategy, level, f, l, parent_id) -> None:
        """Partition-grained detail: one ``strategy.partition`` span per
        touched partition of the level (ascending, like Algorithm 4's
        sweep), carrying how many queries touch it."""
        size = int(l.max()) + 2
        diff = np.bincount(f, minlength=size) - np.bincount(l + 1, minlength=size)
        counts = np.cumsum(diff[:-1])
        parts = np.flatnonzero(counts)
        for part in parts:
            self.recorder.add(
                "strategy.partition",
                0.0,
                attrs={
                    "strategy": strategy,
                    "level": int(level),
                    "partition": int(part),
                    "queries": int(counts[part]),
                },
                parent_id=parent_id,
            )

    # -------------------------------------------------------------- #
    # other layers
    # -------------------------------------------------------------- #

    def record_parallel_chunk(
        self,
        strategy: str,
        worker: int,
        queries: int,
        duration: float,
        *,
        trace_ids: Optional[Sequence[int]] = None,
        parent_id: Optional[int] = None,
    ) -> None:
        """*trace_ids*/*parent_id* are passed explicitly because chunk
        spans are recorded from pool threads, outside the dispatching
        thread's :meth:`~repro.obs.spans.SpanRecorder.trace_scope`."""
        self.registry.counter(
            PARALLEL_CHUNKS,
            labels={"strategy": strategy},
            help="Chunks executed by the parallel executor.",
        ).inc()
        self.registry.histogram(
            PARALLEL_CHUNK_SECONDS,
            buckets=LATENCY_BUCKETS,
            labels={"strategy": strategy},
            help="Per-worker chunk latency of the parallel executor.",
        ).observe(duration)
        self.recorder.add(
            "parallel.chunk",
            duration,
            attrs={"strategy": strategy, "worker": int(worker), "queries": int(queries)},
            parent_id=parent_id,
            trace_ids=trace_ids,
        )

    def record_shard_batch(
        self,
        shard: int,
        queries: int,
        spill: int,
        duration: float,
        *,
        trace_ids: Optional[Sequence[int]] = None,
        parent_id: Optional[int] = None,
    ) -> None:
        """Per-shard accounting of one sharded-batch execution.

        *queries* are the shard's primary queries (starts in the shard),
        *spill* the boundary-spanning queries fanned in from earlier
        shards.  Every series carries a ``shard`` label so skew between
        shards — the straggler that bounds the whole batch — is visible
        live.  *trace_ids*/*parent_id* are passed explicitly because
        shard spans are recorded from pool threads, outside the
        dispatching thread's trace scope.
        """
        labels = {"shard": int(shard)}
        self.registry.counter(
            SHARD_BATCHES,
            labels=labels,
            help="Sub-batches executed, by shard.",
        ).inc()
        self.registry.counter(
            SHARD_QUERIES,
            labels=labels,
            help="Primary queries routed to each shard.",
        ).inc(int(queries))
        if spill:
            self.registry.counter(
                SHARD_SPILL_QUERIES,
                labels=labels,
                help="Boundary-spanning queries fanned into each shard.",
            ).inc(int(spill))
        self.registry.histogram(
            SHARD_BATCH_SECONDS,
            buckets=LATENCY_BUCKETS,
            labels=labels,
            help="Per-shard sub-batch execution latency.",
        ).observe(duration)
        self.recorder.add(
            "shard.batch",
            duration,
            attrs={"shard": int(shard), "queries": int(queries), "spill": int(spill)},
            parent_id=parent_id,
            trace_ids=trace_ids,
        )

    def record_engine_batch(
        self, backend: str, queries: int, duration: float
    ) -> None:
        """Per-batch accounting of one :class:`~repro.engine.
        ExecutionEngine` execution, labelled by the backend that
        actually ran it (``serial`` / ``threads`` — the *resolved*
        backend, so an ``auto`` engine's batches read ``serial``)."""
        labels = {"backend": backend}
        self.registry.counter(
            ENGINE_BATCHES,
            labels=labels,
            help="Batches executed by the execution engine, by backend.",
        ).inc()
        self.registry.counter(
            ENGINE_QUERIES,
            labels=labels,
            help="Queries executed by the execution engine, by backend.",
        ).inc(int(queries))
        self.registry.histogram(
            ENGINE_BATCH_SECONDS,
            buckets=LATENCY_BUCKETS,
            labels=labels,
            help="End-to-end engine batch latency, by backend.",
        ).observe(duration)

    def record_cache_batch(
        self,
        *,
        hits: int,
        misses: int,
        shared: int,
        evictions: int,
        invalidated: int,
        flushes: int,
        bytes_resident: int,
        entries: int,
    ) -> None:
        """Per-execute accounting of a :class:`~repro.cache.
        CachingExecutor` batch: hit/miss/eviction/invalidation **deltas**
        for this execution plus the current residency gauges."""
        reg = self.registry
        if hits:
            reg.counter(
                CACHE_HITS, help="Result-tier cache hits."
            ).inc(int(hits))
        if misses:
            reg.counter(
                CACHE_MISSES, help="Result-tier cache misses."
            ).inc(int(misses))
        if shared:
            reg.counter(
                CACHE_SHARED,
                help="Result-tier hits answered by another query of the "
                "same batch (subset of hits).",
            ).inc(int(shared))
        if evictions:
            reg.counter(
                CACHE_EVICTIONS, help="Result-tier LRU evictions."
            ).inc(int(evictions))
        if invalidated:
            reg.counter(
                CACHE_INVALIDATIONS,
                help="Cache entries dropped by invalidation.",
            ).inc(int(invalidated))
        if flushes:
            reg.counter(
                CACHE_FLUSHES,
                help="Full cache flushes (backend swap, lost history, "
                "failed selective invalidation).",
            ).inc(int(flushes))
        reg.gauge(
            CACHE_BYTES, help="Bytes resident in the result tier."
        ).set(int(bytes_resident))
        reg.gauge(
            CACHE_ENTRIES, help="Entries resident in the result tier."
        ).set(int(entries))

    def record_net_connection(self, delta: int) -> None:
        """A network connection opened (``+1``) or closed (``-1``)."""
        if delta > 0:
            self.registry.counter(
                NET_CONNECTIONS,
                help="TCP connections accepted by the query server.",
            ).inc(delta)
        self.registry.gauge(
            NET_CONNECTIONS_ACTIVE,
            help="Currently open query-server connections.",
        ).inc(delta)

    def record_net_request(self, status: str, duration: float) -> None:
        """One wire request finished with *status* (the protocol-level
        outcome: ``ok`` or an error-code name in lowercase).  Statuses
        with a dedicated shedding counter (deadline drops, overload,
        admission rejections) bump that series too, so the tests and
        dashboards that watch a single control each have one number."""
        self.registry.counter(
            NET_REQUESTS,
            labels={"status": status},
            help="Wire requests answered, by protocol status.",
        ).inc()
        self.registry.histogram(
            NET_REQUEST_SECONDS,
            buckets=LATENCY_BUCKETS,
            labels={"status": status},
            help="Server-side request latency (decode to response write).",
        ).observe(duration)
        if status == "deadline_exceeded":
            self.registry.counter(
                NET_DEADLINE_DROPPED,
                help="Queries dropped unexecuted after their propagated "
                "client deadline expired.",
            ).inc()
        elif status == "overload":
            self.registry.counter(
                NET_OVERLOAD_SHED,
                help="Queries shed with a typed OVERLOAD response.",
            ).inc()
        elif status == "rate_limited":
            self.registry.counter(
                NET_ADMISSION_REJECTED,
                help="Queries rejected by per-tenant token-bucket "
                "admission.",
            ).inc()

    def record_net_decode_error(self) -> None:
        """A received frame failed to decode (malformed, oversized,
        wrong magic/version, or an injected ``net.decode`` fault)."""
        self.registry.counter(
            NET_DECODE_ERRORS,
            help="Received frames that failed to decode.",
        ).inc()

    def record_fault(self, site: str, action: str) -> None:
        self.registry.counter(
            FAULTS_INJECTED,
            labels={"site": site, "action": action},
            help="Faults fired by an installed FaultPlan, by site/action.",
        ).inc()


# --------------------------------------------------------------------- #
# the module-level gate
# --------------------------------------------------------------------- #

_lock = threading.Lock()
_active: Optional[Observability] = None


def configure(
    enabled: bool = True,
    *,
    trace_partitions: bool = False,
    span_capacity: int = 4096,
    slow_threshold_s: float = 0.1,
    slow_overrides: Optional[Mapping[str, float]] = None,
    trace_sample_rate: float = 1.0,
) -> Optional[Observability]:
    """(Re)configure the plane; returns the live plane or ``None``.

    ``configure(enabled=True)`` installs a **fresh** registry and
    recorder (previous series are dropped — snapshot first if you need
    them); ``configure(enabled=False)`` tears the plane down, returning
    every hook site to its zero-cost path.  ``trace_sample_rate`` is the
    head-based sampling probability applied to traces born at the query
    server (see :meth:`Observability.sample_trace`).
    """
    global _active
    with _lock:
        if not enabled:
            _active = None
            return None
        _active = Observability(
            ObsConfig(
                enabled=True,
                trace_partitions=trace_partitions,
                span_capacity=span_capacity,
                slow_threshold_s=slow_threshold_s,
                slow_overrides=slow_overrides,
                trace_sample_rate=trace_sample_rate,
            )
        )
        return _active


def active() -> Optional[Observability]:
    """The live plane, or ``None`` when disabled — THE hot-path gate."""
    return _active


def enabled() -> bool:
    return _active is not None


def registry() -> MetricsRegistry:
    """The live registry; raises when the plane is disabled."""
    ob = _active
    if ob is None:
        raise RuntimeError("observability is disabled; call obs.configure() first")
    return ob.registry


def recorder() -> SpanRecorder:
    """The live span recorder; raises when the plane is disabled."""
    ob = _active
    if ob is None:
        raise RuntimeError("observability is disabled; call obs.configure() first")
    return ob.recorder


def reset() -> None:
    """Drop all recorded series and spans, keeping the configuration."""
    global _active
    with _lock:
        if _active is not None:
            _active = Observability(_active.config)


def snapshot(*, meta: Optional[dict] = None) -> dict:
    """JSON-able snapshot of the live plane (metrics + spans)."""
    ob = _active
    if ob is None:
        raise RuntimeError("observability is disabled; call obs.configure() first")
    return snapshot_dict(ob.registry, ob.recorder, meta=meta)


def render(*, meta: Optional[dict] = None) -> str:
    """Human-readable table of the live plane."""
    return render_table(snapshot(meta=meta))


def prometheus() -> str:
    """Prometheus text exposition of the live registry."""
    return to_prometheus(registry())
