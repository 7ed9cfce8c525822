"""Calibrated, online-corrected per-plan cost model.

The analytical HINT cost model (:mod:`repro.hint.cost`) says a batch's
work decomposes linearly: every query touches ``O(m)`` partitions plus
``O(extent / 2^(m-l))`` per level — i.e. total incidences are an affine
function of the batch size and the summed query extent.  Each *plan*
(strategy × backend × mode) turns an incidence into wall time at its
own rate and pays its own fixed dispatch overhead, so one plan's batch
latency is modelled as::

    cost(plan, batch) = fixed + per_query * |batch| + per_extent * sum(extent)

The three coefficients come from a ~100 ms startup **micro-calibration**
(a seeded probe suite per plan, non-negative least-squares fit),
persisted to ``results/planner-calibration.json`` and reloadable so
later runs skip the probes.  The model keeps the samples each entry
was fitted from, so the planner can add the first batches of a size the
suite never timed and fit again through :meth:`CostModel.fit`.  Online,
every other executed batch feeds :meth:`CostModel.observe`, which
maintains a per-plan EWMA of the observed/predicted ratio — a
multiplicative drift correction of what :meth:`CostModel.predict`
reports, whose log is the predicted-vs-observed error histogram exported
to the obs plane.  The planner ranks plans on the fitted coefficients,
not on the ratio, which only the plan in use ever has.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PlanCost", "CostModel", "DEFAULT_CALIBRATION_PATH", "probe_points"]

#: Where :meth:`CostModel.save` writes by default (and the CLI and the
#: planner smoke look for a reusable calibration).
DEFAULT_CALIBRATION_PATH = os.path.join("results", "planner-calibration.json")

_FORMAT_VERSION = 1

Sample = Tuple[int, int, float]  # (queries, total extent, seconds)


def probe_points(top: int) -> List[Tuple[int, int]]:
    """The start-up probe suite as ``(queries, widest extent)`` points over
    the domain ``[0, top]``: small/narrow isolates the fixed cost,
    large/narrow the per-query marginal, large/wide the per-extent one."""
    narrow = max(top // 512, 1)
    wide = max(top // 32, 2)
    return [(48, narrow), (192, narrow), (192, wide)]


@dataclass(frozen=True)
class PlanCost:
    """Calibrated coefficients of one plan's linear cost model."""

    fixed_s: float
    per_query_s: float
    per_extent_s: float
    probes: int = 0

    def predict(self, n: int, total_extent: int) -> float:
        return (
            self.fixed_s
            + self.per_query_s * float(n)
            + self.per_extent_s * float(total_extent)
        )


def _fit(samples: Sequence[Tuple[int, int, float]]) -> PlanCost:
    """Non-negative least-squares fit of (fixed, per_query, per_extent).

    A coefficient the unconstrained fit drives negative is not merely
    zeroed: its column is dropped and the others are fitted again, until
    every remaining coefficient is non-negative (active-set NNLS; three
    columns, so at most three rounds).  Zeroing alone keeps the others at
    values that were compensating for the negative one, which inflates
    every prediction made from the entry.  A negative marginal cost is
    never kept: it would let the optimizer "pay itself" with huge
    batches.  With fewer probes than columns lstsq returns the
    minimum-norm solution of what is left.
    """
    a = np.array([[1.0, float(n), float(e)] for n, e, _ in samples])
    y = np.array([max(float(s), 0.0) for _, _, s in samples])
    coef = np.zeros(3)
    active = [0, 1, 2]
    while active:
        solution, *_ = np.linalg.lstsq(a[:, active], y, rcond=None)
        if solution.min() >= 0.0:
            coef[active] = solution
            break
        del active[int(solution.argmin())]
    return PlanCost(*map(float, coef), probes=len(samples))


class CostModel:
    """Per-plan calibrated costs plus the online EWMA drift correction.

    Thread-safe: the serving path predicts and observes from the
    flusher and client threads concurrently.
    """

    def __init__(self, *, ewma_alpha: float = 0.25, meta: Optional[dict] = None):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in (0, 1]")
        self.ewma_alpha = float(ewma_alpha)
        self.meta: dict = dict(meta or {})
        self.created_at: Optional[float] = None
        self._lock = threading.Lock()
        self._entries: Dict[str, PlanCost] = {}
        self._samples: Dict[str, List[Sample]] = {}
        self._ratio: Dict[str, float] = {}  # EWMA of observed/predicted
        self._observations: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #

    def fit(self, key: str, samples: Sequence[Sample]) -> PlanCost:
        """(Re)fit one plan from ``(n, total_extent, seconds)`` probes,
        which the model keeps (:meth:`samples`)."""
        if not samples:
            raise ValueError("cannot fit a plan cost from zero probes")
        cost = _fit(samples)
        with self._lock:
            self._entries[key] = cost
            self._samples[key] = list(samples)
            self._ratio.pop(key, None)  # fresh fit resets drift state
            if self.created_at is None:
                self.created_at = time.time()
        return cost

    @property
    def calibrated(self) -> bool:
        with self._lock:
            return bool(self._entries)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entry(self, key: str) -> Optional[PlanCost]:
        with self._lock:
            return self._entries.get(key)

    def samples(self, key: str) -> List[Sample]:
        """The probes *key* was last fitted from (a copy)."""
        with self._lock:
            return list(self._samples.get(key, ()))

    def timed_near(self, key: str, n: int) -> bool:
        """Whether *key* was ever timed on a batch within a factor of two
        of *n* queries; beyond that a prediction is an extrapolation."""
        with self._lock:
            return any(
                n <= 2 * size and size <= 2 * n
                for size, _, _ in self._samples.get(key, ())
            )

    def age_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since calibration, or ``None`` when never calibrated."""
        with self._lock:
            if self.created_at is None:
                return None
            return max((now if now is not None else time.time()) - self.created_at, 0.0)

    # ------------------------------------------------------------------ #
    # prediction + online feedback
    # ------------------------------------------------------------------ #

    def predict(self, key: str, n: int, total_extent: int) -> Optional[float]:
        """Predicted seconds for *key*, or ``None`` when uncalibrated.

        The calibrated linear prediction is scaled by the plan's EWMA
        observed/predicted ratio, so persistent drift (a swapped index,
        warmed kernels) is corrected without refitting.
        """
        with self._lock:
            cost = self._entries.get(key)
            ratio = self._ratio.get(key, 1.0)
        if cost is None:
            return None
        return cost.predict(n, total_extent) * ratio

    def observe(
        self, key: str, n: int, total_extent: int, seconds: float
    ) -> Optional[float]:
        """Fold one observed batch latency in; return the relative error.

        The returned ``|observed - predicted| / observed`` (predicted
        *before* this update) feeds the ``repro_planner_cost_error``
        histogram; ``None`` when the plan is uncalibrated or the
        observation is degenerate.
        """
        if seconds <= 0.0 or n <= 0:
            return None
        with self._lock:
            cost = self._entries.get(key)
            if cost is None:
                return None
            ratio = self._ratio.get(key, 1.0)
            predicted = cost.predict(n, total_extent) * ratio
            raw = cost.predict(n, total_extent)
            if raw > 0.0:
                sample = float(seconds) / raw
                self._ratio[key] = ratio + self.ewma_alpha * (sample - ratio)
            self._observations[key] = self._observations.get(key, 0) + 1
        if predicted <= 0.0:
            return None
        return abs(float(seconds) - predicted) / float(seconds)

    def observations(self, key: str) -> int:
        with self._lock:
            return self._observations.get(key, 0)

    def drift(self, key: str) -> float:
        """Current observed/predicted EWMA ratio (1.0 = on model)."""
        with self._lock:
            return self._ratio.get(key, 1.0)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "version": _FORMAT_VERSION,
                "created_at": self.created_at,
                "ewma_alpha": self.ewma_alpha,
                "meta": dict(self.meta),
                "entries": {
                    key: {
                        "fixed_s": cost.fixed_s,
                        "per_query_s": cost.per_query_s,
                        "per_extent_s": cost.per_extent_s,
                        "probes": cost.probes,
                    }
                    for key, cost in sorted(self._entries.items())
                },
            }

    def save(self, path: str = DEFAULT_CALIBRATION_PATH) -> str:
        """Write the calibration JSON (atomic rename); returns *path*."""
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "CostModel":
        if payload.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported calibration version {payload.get('version')!r}"
            )
        model = cls(
            ewma_alpha=float(payload.get("ewma_alpha", 0.25)),
            meta=payload.get("meta") or {},
        )
        model.created_at = payload.get("created_at")
        # The file holds coefficients only.  What they were fitted from is
        # the probe suite, so an entry's samples are read back off its own
        # plane at the suite's feature points (exact for a three-probe fit).
        m = int((model.meta.get("index") or {}).get("m") or 16)
        points = [
            (n, n * extent * 3 // 4) for n, extent in probe_points((1 << m) - 1)
        ]
        for key, entry in (payload.get("entries") or {}).items():
            cost = model._entries[key] = PlanCost(
                fixed_s=float(entry["fixed_s"]),
                per_query_s=float(entry["per_query_s"]),
                per_extent_s=float(entry["per_extent_s"]),
                probes=int(entry.get("probes", 0)),
            )
            model._samples[key] = [(n, e, cost.predict(n, e)) for n, e in points]
        return model

    @classmethod
    def load(cls, path: str = DEFAULT_CALIBRATION_PATH) -> "CostModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._entries)
        age = self.age_seconds()
        return (
            f"CostModel(plans={n}, "
            f"age={'-' if age is None else f'{age:.0f}s'})"
        )
