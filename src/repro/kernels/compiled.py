"""The ``compiled`` execution path: kernel-backed strategy evaluation.

:func:`compiled_run` is a drop-in for
:func:`repro.core.strategies.run_strategy` — same signature, same
result and ordering contract.  The partition-based strategy on a
:class:`~repro.hint.index.HintIndex` leaves no kernel work to do: every
row of the index covers its partition whole, so a batch owes no cut in
any mode, and :func:`~repro.core.strategies.fold_batch` — the function
the serial path runs — answers it with gathers from the index's prefix
folds (count, checksum) and id runs (ids).  ``compiled`` and
``threads+compiled`` therefore run what ``serial`` and ``threads`` run.

Other strategies (whose inner loops are per-query Python by design —
they exist as the paper's baselines) delegate to ``run_strategy``
unchanged, as does any non-:class:`~repro.hint.index.HintIndex` index;
the contract is "never worse, never different".

Each batch reports ``repro_kernel_*`` obs series: per-kernel invocation
deltas, the cumulative warm-up (compile) seconds, and whether the
fallback backend served the batch.
"""

from __future__ import annotations

import repro.obs as obs
from repro.core.result import MODES, BatchResult
from repro.core.strategies import STRATEGIES, fold_batch, run_strategy
from repro.hint.index import HintIndex
from repro.kernels import ops

__all__ = ["compiled_run"]


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
    partition-based strategy on a ``HintIndex`` runs
    :func:`~repro.core.strategies.fold_batch`, as the serial path does;
    everything else delegates to the interpreted path — identical
    results either way, which the differential tests enforce.
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
        return fold_batch(index, batch, mode, None)
    before = ops.invocation_counts()
    with ob.strategy_span("partition-based", len(batch), mode):
        result = fold_batch(index, batch, mode, ob)
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
