"""Plans and the plan space.

A :class:`Plan` is one point of the execution cross-product the paper's
experiments sweep by hand: **strategy × engine backend**.

:func:`plan_space` enumerates the *legal* plans for a machine,
described by :class:`BackendCaps`: every strategy on ``serial``, and on
``threads`` where the machine has several cores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.strategies import STRATEGIES

__all__ = ["Plan", "BackendCaps", "plan_space", "plan_key"]


def plan_key(strategy: str, backend: str, mode: str) -> str:
    """The cost-model key of one (strategy, backend, mode) point."""
    return f"{strategy}|{backend}|{mode}"


@dataclass(frozen=True)
class Plan:
    """One executable plan: a strategy run on one engine backend."""

    strategy: str
    backend: str

    def key(self, mode: str) -> str:
        return plan_key(self.strategy, self.backend, mode)

    def describe(self) -> str:
        return f"{self.strategy} on {self.backend}"


@dataclass(frozen=True)
class BackendCaps:
    """What the machine can legally run."""

    cpus: int = 1
    workers: int = 1

    @classmethod
    def from_index(
        cls,
        *,
        cpus: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> "BackendCaps":
        """The caps of this machine: ``os.cpu_count()`` cores unless
        *cpus* says otherwise, and as many workers unless *workers* does.
        No property of the installed index enters the plan space."""
        ncpu = int(cpus) if cpus is not None else (os.cpu_count() or 1)
        return cls(cpus=ncpu, workers=int(workers) if workers is not None else ncpu)

    def backends(self) -> List[str]:
        """Legal engine backends on this machine, for every strategy and
        mode."""
        if self.cpus > 1 and self.workers > 1:
            return ["serial", "threads"]
        return ["serial"]


#: Default strategy candidates the planner scores when the caller does
#: not pin one: the paper's overall winner and its large-batch
#: challenger.  The query-based baselines are deliberately left out —
#: they never win for multi-query batches (the paper's core finding),
#: and every plan costs first-sight batches at every new batch size.
DEFAULT_STRATEGIES = ("partition-based", "join-based")


def plan_space(
    caps: BackendCaps,
    *,
    strategies: Optional[Sequence[str]] = None,
) -> List[Plan]:
    """Enumerate the legal plans for *caps*, the same in every mode.

    *strategies* restricts the strategy dimension (a caller-pinned
    strategy passes a singleton); defaults to
    :data:`DEFAULT_STRATEGIES`.
    """
    names = tuple(strategies) if strategies is not None else DEFAULT_STRATEGIES
    for name in names:
        if name not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
            )
    return [
        Plan(strategy=s, backend=b)
        for s in names
        for b in caps.backends()
    ]
