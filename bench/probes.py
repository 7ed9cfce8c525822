"""Outside probes: layer costs that no span inside a run can give.

Each probe replays the same seeded batches through two code paths and
reports the ratio or the difference, on fixed work (so a probe's cost does
not depend on ``--seconds``).  A probe whose layer is gone returns nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from bench.stacks import STRATEGY, Stack, optional
from bench.workloads import QueryStream, Workload

PROBE_BATCHES = 8  # x 1024 ids-mode queries on six backends is already ~5 s


def _seconds(fn: Callable, batches: List, repeat: int = 1) -> float:
    """Median seconds of ``fn(batch)`` over *batches* (best of *repeat* each)."""
    times = []
    for batch in batches:
        best = None
        for _ in range(repeat):
            t0 = perf_counter()
            fn(batch)
            dt = perf_counter() - t0
            best = dt if best is None else min(best, dt)
        times.append(best)
    return float(np.median(times))


def plain_index(w: Workload, collection, stack: Stack):
    """One static HintIndex over the collection (the stack's own if it is one)."""
    import repro

    hint = stack.layers.get("hint")
    if type(hint).__name__ == "HintIndex":
        return hint
    return repro.HintIndex(collection, m=w.m)


def in_process(w: Workload, collection, stack: Stack, rng) -> Dict[str, float]:
    """core / kernels / engine / shard probes for ``batch-*`` and ``churn-*``."""
    from repro.core.strategies import run_strategy
    from repro.intervals import QueryBatch

    stream = QueryStream(w, rng)
    batches = [QueryBatch(*stream.next()) for _ in range(PROBE_BATCHES)]
    small = [QueryBatch(*stream.next(min(w.batch_size, 512))) for _ in range(4)]
    index = plain_index(w, collection, stack)
    out: Dict[str, float] = {}

    counts = [run_strategy(STRATEGY, index, b, mode="count").counts for b in batches[:8]]
    out["core.ids_per_query"] = float(np.concatenate(counts).mean())
    out["kernels.jit_active"] = float(bool(jit_active()))
    if w.kind == "churn":
        return out

    def bare(strategy: str):
        return lambda b: run_strategy(strategy, index, b, mode=w.mode)

    partition = _seconds(bare(STRATEGY), batches)
    out["core.us_per_query"] = 1e6 * partition / w.batch_size
    partition_small = _seconds(bare(STRATEGY), small, repeat=2)
    out["core.level_over_partition"] = _seconds(bare("level-based"), small) / partition_small
    out["core.query_over_partition"] = _seconds(bare("query-based"), small) / partition_small

    compiled_run = optional("repro.kernels.compiled", "compiled_run")
    if compiled_run is not None:
        compiled = _seconds(lambda b: compiled_run(STRATEGY, index, b, mode=w.mode), batches)
        out["kernels.compiled_over_serial"] = compiled / partition

    sharded = stack.layers.get("shard")
    if sharded is not None:
        through = _seconds(lambda b: sharded.execute(b, strategy=STRATEGY, mode=w.mode), batches)
        out["shard.overhead_us_per_query"] = 1e6 * (through - partition) / w.batch_size

    out.update(_engine_probe(w, stack, batches))
    return out


def jit_active() -> bool:
    jit_available = optional("repro.kernels", "jit_available")
    fallback_active = optional("repro.kernels", "fallback_active")
    if jit_available is None:
        return False
    return bool(jit_available()) and not (fallback_active and fallback_active())


def _engine_probe(w: Workload, stack: Stack, batches: List) -> Dict[str, float]:
    """The same batches on ``backend='auto'`` against every forced backend."""
    engine_cls = optional("repro.engine", "ExecutionEngine")
    backends = optional("repro.engine", "BACKENDS")
    if engine_cls is None or backends is None or "auto" not in backends:
        return {}
    index = stack.layers.get("shard") or stack.layers["hint"]
    forced = [b for b in backends if not b.startswith("auto")]
    engine = engine_cls(index, backend="auto")
    try:
        def on(backend):
            return lambda b: engine.execute(b, strategy=STRATEGY, mode=w.mode, backend=backend)

        # One untimed pass per backend first: pools start, the auto ledger
        # sees every size bucket, lazily built tables exist.
        for backend in forced + ["auto"]:
            for b in batches[:4]:
                on(backend)(b)
        best = min(_seconds(on(backend), batches) for backend in forced)
        auto = _seconds(on("auto"), batches)
    finally:
        engine.close()
    return {"engine.auto_over_best": auto / best}
