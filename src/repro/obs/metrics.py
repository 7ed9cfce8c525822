"""Metric primitives of the observability plane.

Three metric kinds, matching the Prometheus data model the exporter
(:mod:`repro.obs.export`) renders:

* :class:`Counter` — monotonically increasing count (queries served,
  partitions touched, faults injected);
* :class:`Gauge` — a value that goes both ways (queue depth, buffered
  inserts);
* :class:`Histogram` — fixed-bucket distribution with cumulative bucket
  counts, a sum and a count (flush latency, batch size).

A :class:`MetricsRegistry` owns the metrics: ``counter`` / ``gauge`` /
``histogram`` get-or-create by ``(name, labels)``, so instrumentation
sites never coordinate — two call sites asking for the same series share
one object.  Every mutation takes the metric's own lock; registries are
safe to write from the service flusher, worker pools and client threads
at once, and :meth:`MetricsRegistry.snapshot` produces a plain-data,
JSON-able view without stopping writers.

The registry is deliberately independent of the global on/off gate in
:mod:`repro.obs`: subsystems (e.g. :class:`~repro.analysis.service_stats.
ServiceMetrics`) may own a private registry that works whether or not
the process-wide plane is enabled.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "POW2_BUCKETS",
]

#: Seconds-scale latency buckets (50us .. 10s), used for every duration
#: histogram in the plane.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Power-of-two buckets (1 .. 2**17), used for batch-size histograms.
POW2_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(18))

LabelPairs = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, object]]) -> LabelPairs:
    """Normalize a label mapping into a hashable, sorted key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared name/labels/lock plumbing of the three metric kinds."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelPairs, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def __repr__(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name}{{{labels}}})"


class Counter(_Metric):
    """Monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs, help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def state(self) -> dict:
        return {
            "name": self.name,
            "labels": self.label_dict,
            "value": self.value,
            "help": self.help,
        }


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs, help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if it is below it (high-watermark)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def state(self) -> dict:
        return {
            "name": self.name,
            "labels": self.label_dict,
            "value": self.value,
            "help": self.help,
        }


class Histogram(_Metric):
    """Fixed-bucket histogram with a sum and a total count.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest (Prometheus semantics: the
    exporter renders *cumulative* ``le`` counts, this object stores
    per-bucket counts).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelPairs,
        buckets: Sequence[float],
        help: str = "",
    ):
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("the +Inf bucket is implicit; pass finite bounds")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        pos = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[pos] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return None
        rank = q * total
        seen = 0.0
        lower = 0.0
        for pos, count in enumerate(counts):
            upper = self.bounds[pos] if pos < len(self.bounds) else self.bounds[-1]
            if seen + count >= rank:
                if count == 0:
                    return upper
                frac = (rank - seen) / count
                return lower + frac * (upper - lower)
            seen += count
            lower = upper
        return self.bounds[-1]

    def state(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "labels": self.label_dict,
                "buckets": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "help": self.help,
            }


class MetricsRegistry:
    """Thread-safe, get-or-create home of a set of metrics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, LabelPairs], _Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # get-or-create
    # ------------------------------------------------------------------ #

    def _get(self, kind, cls, name, labels, help, **kwargs):
        key = (kind, name, _freeze_labels(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                known = self._kinds.get(name)
                if known is not None and known != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {known}, "
                        f"not {kind}"
                    )
                metric = cls(
                    name, key[2], help=help or self._help.get(name, ""), **kwargs
                )
                self._metrics[key] = metric
                self._kinds[name] = kind
                if help:
                    self._help[name] = help
            return metric

    def counter(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, object]] = None,
        help: str = "",
    ) -> Counter:
        return self._get("counter", Counter, name, labels, help)

    def gauge(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, object]] = None,
        help: str = "",
    ) -> Gauge:
        return self._get("gauge", Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labels: Optional[Mapping[str, object]] = None,
        help: str = "",
    ) -> Histogram:
        return self._get(
            "histogram", Histogram, name, labels, help, buckets=buckets
        )

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def collect(self) -> List[_Metric]:
        """All registered metrics, sorted by (name, labels)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda m: (m.name, m.labels))

    def snapshot(self) -> dict:
        """Plain-data view: ``{"counters": [...], "gauges": [...],
        "histograms": [...]}``, each entry JSON-able."""
        out: Dict[str, List[dict]] = {"counters": [], "gauges": [], "histograms": []}
        for metric in self.collect():
            out[metric.kind + "s"].append(metric.state())
        return out

    def find(self, name: str, **labels) -> Optional[_Metric]:
        """The registered metric with *name* whose labels include
        **labels** (first match in sorted order), or ``None``."""
        wanted = {str(k): str(v) for k, v in labels.items()}
        for metric in self.collect():
            if metric.name != name:
                continue
            have = metric.label_dict
            if all(have.get(k) == v for k, v in wanted.items()):
                return metric
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} series)"
