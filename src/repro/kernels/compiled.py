"""``compiled_run``: the name of the retired compiled execution path.

The partition-based strategy on a :class:`~repro.hint.index.HintIndex`
leaves no kernel work to do — every row of the index covers its
partition whole, so a batch is gathers from the index's prefix folds
and id runs in every mode — and the other strategies are per-query
Python by design.  So :func:`compiled_run` is
:func:`~repro.core.strategies.run_strategy`: same signature, same
result.
"""

from __future__ import annotations

from repro.core.result import BatchResult
from repro.core.strategies import run_strategy

__all__ = ["compiled_run"]


def compiled_run(
    name: str,
    index,
    batch,
    *,
    mode: str = "count",
) -> BatchResult:
    """:func:`~repro.core.strategies.run_strategy` under its old name."""
    # bench/probes.py times this name until ROADMAP item 1 retires the probe.
    return run_strategy(name, index, batch, mode=mode)
