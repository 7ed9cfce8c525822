"""Operational metrics of the micro-batching query service.

The batch strategies answer "how fast is a batch"; a serving layer must
also answer "what batches did the admission policy actually form".
:class:`ServiceMetrics` is the thread-safe instrumentation object
:class:`~repro.service.BatchingQueryService` feeds: arrival and
completion counters, flush counts split by trigger (size / deadline /
idle / forced / drain), a power-of-two batch-size histogram, queue-depth
tracking, how long each batch took to form, and a bounded window of
flush latencies from which p50/p99 are computed.

Since the observability plane (:mod:`repro.obs`) exists, the object is
an **adapter over a** :class:`~repro.obs.metrics.MetricsRegistry`: every
counter, gauge and histogram is a registry series (names in
``docs/observability.md``), so the same numbers the in-process
:class:`ServiceSnapshot` reports are exported by the Prometheus/JSON
exporters and ``repro stats``.  By default the adapter publishes into
the process-wide registry when ``repro.obs`` is enabled at construction
time and into a private registry otherwise — either way the
:class:`ServiceSnapshot` API is unchanged.

Thread-safety: the service calls ``record_*`` from the flusher thread
and from many client threads at once, possibly while another thread
snapshots.  Every mutation *and* every read of the latency window
happens under one object lock, so :meth:`ServiceMetrics.snapshot` can
never observe the window mid-mutation (two services flushing into one
adapter is the regression test for this).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.obs.metrics import LATENCY_BUCKETS, POW2_BUCKETS, MetricsRegistry

__all__ = ["ServiceMetrics", "ServiceSnapshot", "batch_size_bucket"]

#: Flush triggers recorded by :meth:`ServiceMetrics.record_flush`.
FLUSH_REASONS = ("size", "deadline", "idle", "forced", "drain")

# Registry series names (the export surface of the service layer).
SUBMITTED = "repro_service_submitted_total"
COMPLETED = "repro_service_completed_total"
FAILED = "repro_service_failed_total"
REJECTED = "repro_service_rejected_total"
DEADLINE_DROPPED = "repro_service_deadline_dropped_total"
FLUSHES = "repro_service_flushes_total"
INDEX_SWAPS = "repro_service_index_swaps_total"
QUEUE_DEPTH = "repro_service_queue_depth"
QUEUE_DEPTH_MAX = "repro_service_queue_depth_max"
BATCH_SIZE = "repro_service_batch_size"
FLUSH_SECONDS = "repro_service_flush_seconds"
FORMATION_WAIT = "repro_service_formation_wait_seconds"


def batch_size_bucket(size: int) -> int:
    """Histogram bucket (smallest power of two >= *size*) of a batch."""
    if size < 1:
        raise ValueError("batch size must be positive")
    return 1 << (size - 1).bit_length()


@dataclass(frozen=True)
class ServiceSnapshot:
    """Immutable view of a :class:`ServiceMetrics` at one point in time."""

    submitted: int
    completed: int
    failed: int
    rejected: int
    flushes: int
    flushes_by_reason: Dict[str, int]
    index_swaps: int
    queue_depth: int
    max_queue_depth: int
    deadline_dropped: int = 0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    mean_batch_size: float = 0.0
    p50_flush_latency: Optional[float] = None
    p99_flush_latency: Optional[float] = None
    p50_formation_wait: Optional[float] = None

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"queries    submitted={self.submitted} completed={self.completed}"
            f" failed={self.failed} rejected={self.rejected}"
            f" deadline_dropped={self.deadline_dropped}",
            f"flushes    total={self.flushes} "
            + " ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.flushes_by_reason.items())
            ),
            f"queue      depth={self.queue_depth} max={self.max_queue_depth}",
            f"index      swaps={self.index_swaps}",
            f"batch size mean={self.mean_batch_size:.1f} histogram="
            + (
                " ".join(
                    f"<={bucket}:{count}"
                    for bucket, count in sorted(self.batch_size_histogram.items())
                )
                or "(empty)"
            ),
        ]
        if self.p50_flush_latency is not None:
            lines.append(
                f"flush lat  p50={self.p50_flush_latency * 1000:.2f}ms "
                f"p99={self.p99_flush_latency * 1000:.2f}ms"
            )
        if self.p50_formation_wait is not None:
            lines.append(
                f"formation  wait p50={self.p50_formation_wait * 1000:.2f}ms"
            )
        return "\n".join(lines)


class ServiceMetrics:
    """Registry-backed counters/histograms for a batching query service.

    Parameters
    ----------
    latency_window:
        Number of most recent flush latencies retained for the
        percentile estimates (a bounded window keeps the object
        lightweight on long-running services; the registry histogram
        keeps the full distribution in buckets).
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` the series are
        registered in.  Default: the process-wide registry when
        :mod:`repro.obs` is enabled at construction time, else a fresh
        private one (exposed as :attr:`registry`).  Note that two
        adapters sharing one registry share series — their counts
        aggregate, which is what a scrape of one process should see.
    """

    def __init__(
        self,
        *,
        latency_window: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ):
        if latency_window < 1:
            raise ValueError("latency_window must be positive")
        if registry is None:
            ob = obs.active()
            registry = ob.registry if ob is not None else MetricsRegistry()
        self.registry = registry
        self._lock = threading.Lock()
        self._latency_window = int(latency_window)
        # The latency window: only ever mutated AND iterated under
        # self._lock (a deque's appends are atomic, but iteration during
        # rotation is not — snapshot() copies under the lock).
        self._latencies: deque = deque(maxlen=self._latency_window)
        self._c_submitted = registry.counter(
            SUBMITTED, help="Queries accepted into the staging queue."
        )
        self._c_completed = registry.counter(
            COMPLETED, help="Queries answered by a successful flush."
        )
        self._c_failed = registry.counter(
            FAILED, help="Queries resolved with an error by a failed flush."
        )
        self._c_rejected = registry.counter(
            REJECTED, help="Queries rejected by reject-mode backpressure."
        )
        self._c_deadline_dropped = registry.counter(
            DEADLINE_DROPPED,
            help="Queries dropped unexecuted because their client "
            "deadline expired while staged.",
        )
        self._c_flushes = {
            reason: registry.counter(
                FLUSHES,
                labels={"reason": reason},
                help="Flushes executed, by closing trigger.",
            )
            for reason in FLUSH_REASONS
        }
        self._c_swaps = registry.counter(
            INDEX_SWAPS, help="Atomic index swaps installed."
        )
        self._g_depth = registry.gauge(
            QUEUE_DEPTH, help="Currently staged (unflushed) queries."
        )
        self._g_depth_max = registry.gauge(
            QUEUE_DEPTH_MAX, help="High watermark of the staging queue."
        )
        self._h_batch = registry.histogram(
            BATCH_SIZE,
            buckets=POW2_BUCKETS,
            help="Formed batch sizes (power-of-two buckets).",
        )
        self._h_flush = registry.histogram(
            FLUSH_SECONDS,
            buckets=LATENCY_BUCKETS,
            help="Flush execution latency.",
        )
        self._h_formation = registry.histogram(
            FORMATION_WAIT,
            buckets=LATENCY_BUCKETS,
            help="Flush start minus the oldest staged query's arrival.",
        )
        self._batch_total = 0
        self._histogram: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # recording (called by the service)
    # ------------------------------------------------------------------ #

    def record_submitted(self, queue_depth: int, count: int = 1) -> None:
        with self._lock:
            self._c_submitted.inc(int(count))
            self._g_depth.set(int(queue_depth))
            self._g_depth_max.set_max(int(queue_depth))

    def record_rejected(self, count: int = 1) -> None:
        with self._lock:
            self._c_rejected.inc(int(count))

    def record_deadline_dropped(self, count: int = 1) -> None:
        with self._lock:
            self._c_deadline_dropped.inc(int(count))

    def record_flush(
        self,
        reason: str,
        batch_size: int,
        latency: float,
        *,
        failed: bool = False,
        queue_depth: int = 0,
        formation_wait: Optional[float] = None,
    ) -> None:
        if reason not in FLUSH_REASONS:
            raise ValueError(
                f"unknown flush reason {reason!r}; expected one of {FLUSH_REASONS}"
            )
        bucket = batch_size_bucket(batch_size)
        with self._lock:
            self._c_flushes[reason].inc()
            if failed:
                self._c_failed.inc(batch_size)
            else:
                self._c_completed.inc(batch_size)
            self._batch_total += batch_size
            self._histogram[bucket] = self._histogram.get(bucket, 0) + 1
            self._h_batch.observe(batch_size)
            self._h_flush.observe(latency)
            self._latencies.append(float(latency))
            self._g_depth.set(int(queue_depth))
            if formation_wait is not None:
                self._h_formation.observe(formation_wait)

    def record_swap(self) -> None:
        with self._lock:
            self._c_swaps.inc()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    @property
    def submitted(self) -> int:
        return self._c_submitted.value

    @property
    def completed(self) -> int:
        return self._c_completed.value

    @property
    def failed(self) -> int:
        return self._c_failed.value

    @property
    def rejected(self) -> int:
        return self._c_rejected.value

    @property
    def deadline_dropped(self) -> int:
        return self._c_deadline_dropped.value

    @property
    def flushes(self) -> int:
        return sum(c.value for c in self._c_flushes.values())

    @property
    def flushes_by_reason(self) -> Dict[str, int]:
        return {reason: c.value for reason, c in self._c_flushes.items()}

    @property
    def index_swaps(self) -> int:
        return self._c_swaps.value

    @property
    def queue_depth(self) -> int:
        return int(self._g_depth.value)

    @property
    def max_queue_depth(self) -> int:
        return int(self._g_depth_max.value)

    def flush_latency_percentiles(self, *ps: float) -> Tuple[float, ...]:
        """Percentiles (0-100) over the retained flush latencies."""
        with self._lock:
            window = np.asarray(self._latencies, dtype=np.float64)
        if window.size == 0:
            raise ValueError("no flushes recorded yet")
        return tuple(float(v) for v in np.percentile(window, ps))

    def snapshot(self) -> ServiceSnapshot:
        """Consistent, immutable view of all metrics."""
        with self._lock:
            window = np.asarray(self._latencies, dtype=np.float64)
            histogram = dict(self._histogram)
            batch_total = self._batch_total
            flushes_by_reason = {
                reason: c.value for reason, c in self._c_flushes.items()
            }
            flushes = sum(flushes_by_reason.values())
            p50 = p99 = None
            if window.size:
                p50, p99 = (float(v) for v in np.percentile(window, (50, 99)))
            return ServiceSnapshot(
                submitted=self._c_submitted.value,
                completed=self._c_completed.value,
                failed=self._c_failed.value,
                rejected=self._c_rejected.value,
                flushes=flushes,
                flushes_by_reason=flushes_by_reason,
                index_swaps=self._c_swaps.value,
                queue_depth=int(self._g_depth.value),
                max_queue_depth=int(self._g_depth_max.value),
                deadline_dropped=self._c_deadline_dropped.value,
                batch_size_histogram=histogram,
                mean_batch_size=(batch_total / flushes if flushes else 0.0),
                p50_flush_latency=p50,
                p99_flush_latency=p99,
                p50_formation_wait=self._h_formation.quantile(0.5),
            )

    def __repr__(self) -> str:
        return (
            f"ServiceMetrics(submitted={self.submitted}, "
            f"completed={self.completed}, flushes={self.flushes}, "
            f"queue_depth={self.queue_depth})"
        )
