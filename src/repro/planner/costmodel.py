"""What each plan has been seen to cost, from the batches it ran.

The model holds, per plan key (strategy × backend × mode), the timings
the planner kept of real batches: one ``(queries, seconds)`` sample per
size at which the plan was handed a batch to learn from (the better of
two, :mod:`repro.planner.planner`).  Nothing is probed at start-up and
nothing is written to disk — a process learns its own machine.

A prediction is local: the plan's per-query rate at its kept sample
nearest the batch size, scaled to the batch.  It exists only within a
factor of two of a timing; beyond that, a batch of that size has not
been seen and the planner hands one over instead of extrapolating.
Across three decades of batch size a plan's cost is not one line (a
sweep's per-level set-up is fixed, its per-query part is not linear),
so a fit over every size mis-ranks plans at the sizes that matter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["CostModel", "Sample", "near"]

Sample = Tuple[int, float]  # (queries, seconds)


def near(size: int, n: int) -> bool:
    """Two batch sizes within a factor of two of each other."""
    return n <= 2 * size and size <= 2 * n


class CostModel:
    """Kept timings per plan key.

    Not locked: its owner, :class:`~repro.planner.planner.AdaptivePlanner`,
    reads and changes it only under its own lock.
    """

    def __init__(self):
        self._samples: Dict[str, List[Sample]] = {}

    def add(self, key: str, sample: Sample) -> None:
        """Keep one timing of *key* (queries > 0, seconds >= 0)."""
        n, seconds = int(sample[0]), float(sample[1])
        if n <= 0 or seconds < 0.0:
            raise ValueError(f"not a batch timing: {sample!r}")
        self._samples.setdefault(key, []).append((n, seconds))

    def keys(self) -> List[str]:
        return sorted(self._samples)

    def samples(self, key: str) -> List[Sample]:
        """The timings kept of *key* (a copy)."""
        return list(self._samples.get(key, ()))

    def timed_near(self, key: str, n: int) -> bool:
        """Whether *key* was timed on a batch within a factor of two of
        *n* queries."""
        return any(near(size, n) for size, _ in self._samples.get(key, ()))

    def predict(self, key: str, n: int) -> Optional[float]:
        """Seconds for *n* queries on *key*, from its nearest kept timing
        within a factor of two; ``None`` when there is none."""
        close = [s for s in self._samples.get(key, ()) if near(s[0], n)]
        if not close:
            return None
        size, seconds = min(close, key=lambda s: max(s[0], n) / min(s[0], n))
        return seconds * n / size

    def forget_near(self, key: str, n: int) -> None:
        """Drop every timing of *key* within a factor of two of *n*."""
        kept = [s for s in self._samples.get(key, ()) if not near(s[0], n)]
        if kept:
            self._samples[key] = kept
        else:
            self._samples.pop(key, None)

    def __repr__(self) -> str:
        n = sum(map(len, self._samples.values()))
        return f"CostModel(plans={len(self._samples)}, samples={n})"
