"""The ``compiled`` execution path: kernel-backed strategy evaluation.

:func:`compiled_run` is a drop-in for
:func:`repro.core.strategies.run_strategy` — same signature, same
result and ordering contract — that routes the partition-based
strategy through the :mod:`repro.kernels.ops` kernels (Numba when
available, the NumPy fallback otherwise) where a kernel has work to do:

* **count / checksum** — none: both are two gathers per level of the
  index's prefix folds, :func:`~repro.core.strategies.fold_batch`, the
  same function the serial path runs;
* **ids** — the packed-column cuts of
  :func:`~repro.core.strategies.partition_level_sweep` run on the
  kernels, inside a two-phase *plan-then-gather* pipeline: phase one runs
  the sweep once, recording every contributing row range and eagerly
  filtering the masked first-partition rows; phase two is
  :meth:`BatchResult.merge <repro.core.result.BatchResult.merge>`, which
  sizes **one** flat ids array plus offsets from the plan and replays it
  through the scatter kernels with per-query cursors — no per-fragment
  ``concatenate``, no per-query Python loop.

Other strategies (whose inner loops are per-query Python by design —
they exist as the paper's baselines) delegate to ``run_strategy``
unchanged, as does any non-:class:`~repro.hint.index.HintIndex` index;
the contract is "never worse, never different".

Each batch reports ``repro_kernel_*`` obs series: per-kernel invocation
deltas, the cumulative warm-up (compile) seconds, and whether the
fallback backend served the batch.
"""

from __future__ import annotations

from typing import List

import numpy as np

import repro.obs as obs
from repro.core.result import MODES, BatchResult
from repro.core.strategies import (
    STRATEGIES,
    _prepare,
    fold_batch,
    partition_level_sweep,
    run_strategy,
)
from repro.hint.index import HintIndex
from repro.kernels import ops

__all__ = ["compiled_run"]


class _IdsPlanAccumulator:
    """Plan-then-gather ids accumulator.

    The packed-column cuts run on the kernels.  During the sweep every
    ``add_ranges`` records ``(query slots, ids column, lo, hi)`` — a
    view, no copy — and every ``add_masked_ranges`` runs the masked
    gather kernel eagerly keeping its compact flat output.  The records
    are :meth:`BatchResult.merge` contributions: ``finalize`` hands it
    the plan, and it sizes one flat array and replays the plan through
    the scatter kernels, so each result id is written exactly once at
    its final position.
    """

    def __init__(self, n: int):
        self._all = np.arange(n, dtype=np.int64)
        self._plan: List[tuple] = []

    def prefix_range(self, table, parts, values):
        lo = table.offsets[parts]
        hi = ops.packed_prefix_cut(table.comp, parts, values, table.key_bits)
        return lo, hi

    def suffix_range(self, table, parts, values):
        lo = ops.packed_suffix_cut(table.comp, parts, values, table.key_bits)
        return lo, table.offsets[parts + 1]

    def _slots(self, sel) -> np.ndarray:
        if isinstance(sel, slice):
            return self._all
        return sel

    def add_ranges(self, sel, table, lo, hi) -> None:
        self._plan.append((self._slots(sel), None, None, (table.ids, lo, hi)))

    def add_masked_ranges(self, sel, table, lo, hi, thresholds) -> None:
        _, flat, offsets = ops.masked_gather_end_geq(
            table.end, table.ids, lo, hi, thresholds
        )
        self._plan.append((self._slots(sel), None, None, (flat, offsets, None)))

    def finalize(self, order: np.ndarray) -> BatchResult:
        return BatchResult.merge(order.size, "ids", self._plan, order)


def _partition_based_compiled(
    index: HintIndex, batch, mode: str, ob
) -> BatchResult:
    if mode != "ids":
        return fold_batch(index, batch, mode, ob)
    work, q_st, q_end = _prepare(index, batch.sorted_by_start(), sort=False)
    acc = _IdsPlanAccumulator(len(work))
    partition_level_sweep(index, q_st, q_end, acc, ob)
    return acc.finalize(work.order)


def compiled_run(
    name: str,
    index,
    batch,
    *,
    mode: str = "count",
) -> BatchResult:
    """Run strategy *name* through the compiled kernels.

    Drop-in for :func:`~repro.core.strategies.run_strategy`: same
    strategy names, same result modes, results in caller order.  The
    partition-based strategy runs kernel-backed; everything else (and
    any non-``HintIndex`` index) delegates to the interpreted path —
    identical results either way, which the differential tests enforce.
    """
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        )
    if mode not in MODES:
        raise ValueError(
            f"unknown result mode {mode!r}; expected one of {MODES}"
        )
    if name != "partition-based" or not isinstance(index, HintIndex):
        return run_strategy(name, index, batch, mode=mode)
    ops.warmup()
    ob = obs.active()
    if ob is None:
        return _partition_based_compiled(index, batch, mode, None)
    before = ops.invocation_counts()
    with ob.strategy_span("partition-based", len(batch), mode):
        result = _partition_based_compiled(index, batch, mode, ob)
    after = ops.invocation_counts()
    delta = {
        kernel: after[kernel] - before.get(kernel, 0)
        for kernel in after
        if after[kernel] != before.get(kernel, 0)
    }
    ob.record_kernel_batch(
        ops.kernel_backend(), delta, ops.compile_seconds()
    )
    return result
