"""Plans and the plan space.

A :class:`Plan` is one point of the execution cross-product the paper's
experiments sweep by hand: **strategy × engine backend** (the backend
carries the kernel path — ``compiled`` / ``threads+compiled`` run the
:mod:`repro.kernels` hot loops).

:func:`plan_space` enumerates the *legal* plans for an installed index
and machine, described by :class:`BackendCaps` — e.g. the compiled
backends are only enumerated where the kernels genuinely accelerate
(the partition-based ids sweep; elsewhere ``compiled_run`` runs what
``serial`` runs — the interpreted strategy, or the prefix-fold gathers
of a partition-based count or checksum — so those plans would duplicate
``serial`` and a planner would trade one for its twin on noise), and
the parallel backends only exist on multi-core machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.strategies import STRATEGIES
from repro.hint.index import HintIndex

__all__ = ["Plan", "BackendCaps", "plan_space", "plan_key"]

#: Strategies the compiled kernels accelerate, in ids mode (everything
#: else runs what ``serial`` runs — see ``kernels/compiled.py``).
COMPILED_STRATEGIES = frozenset({"partition-based"})


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
    """What the installed index and machine can legally run."""

    cpus: int = 1
    workers: int = 1
    sharded: bool = False
    compiled_ok: bool = True

    @classmethod
    def from_index(
        cls,
        index,
        *,
        cpus: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> "BackendCaps":
        import os

        from repro.shard.sharded import ShardedHint

        sharded = isinstance(index, ShardedHint)
        # The kernels only run HINT layouts: a bare HintIndex, or a
        # sharded one whose per-shard primaries are HintIndexes (the
        # per-shard runner path).
        compiled_ok = isinstance(index, HintIndex) or sharded
        ncpu = int(cpus) if cpus is not None else (os.cpu_count() or 1)
        return cls(
            cpus=ncpu,
            workers=int(workers) if workers is not None else ncpu,
            sharded=sharded,
            compiled_ok=compiled_ok,
        )

    def backends_for(self, strategy: str, mode: Optional[str] = None) -> List[str]:
        """Legal engine backends for *strategy* in *mode* (any mode when
        omitted) on this machine."""
        kernels = self.compiled_ok and strategy in COMPILED_STRATEGIES
        kernels = kernels and mode in (None, "ids")
        backends = ["serial"]
        if kernels:
            backends.append("compiled")
        if self.cpus > 1 and self.workers > 1:
            backends.append("threads")
            if kernels:
                backends.append("threads+compiled")
        return backends


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
    mode: Optional[str] = None,
) -> List[Plan]:
    """Enumerate the legal plans for *caps* in *mode* (any mode when
    omitted).

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
        for b in caps.backends_for(s, mode)
    ]
