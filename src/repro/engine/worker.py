"""Worker-process side of the execution engine.

Each process of an :class:`~repro.engine.ExecutionEngine` pool runs
:func:`init_worker` exactly once (as the pool initializer): it attaches
the shared-memory arena, rebuilds the index as numpy views over it, and
parks both in module globals.  Per-batch tasks then only carry the
chunk's query endpoint arrays plus ``(strategy, mode)`` — a few KB —
and return the compact encodings below instead of
:class:`~repro.core.result.BatchResult` objects: the arrays a result
is made of, which pickle as one buffer each.

Everything here must stay importable under the ``spawn`` start method:
module-level code only defines functions and constants, and all state
lives in :data:`_STATE`, populated by the initializer.

**Telemetry.** When the parent's observability plane is on, each task
carries a small *telemetry request* (the sampled trace ids of the batch
plus the parent's span-recorder thresholds).  The worker then runs the
task under a fresh per-task plane of its own — never the parent's
fork-inherited one — and returns ``(payload, telemetry)`` instead of
the bare payload, where the second element is a compact
:func:`repro.obs.aggregate.telemetry_delta` the parent merges back
under a ``worker=<pid>`` label.  Without a request the signatures and
return shapes are exactly as before.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import BatchResult
from repro.core.strategies import run_strategy
from repro.engine.arena import attach_index
from repro.intervals.batch import QueryBatch

__all__ = [
    "init_worker",
    "ping",
    "run_hint_chunk",
    "run_shard_primary",
    "encode_result",
    "decode_result",
]

# Populated by init_worker; one arena attach per worker process, reused
# for every task the worker ever runs.
_STATE: Dict[str, object] = {"shm": None, "index": None, "shards": None}


def init_worker(manifest: dict, pinned: Optional[List[int]] = None) -> None:
    """Pool initializer: attach the arena once, keep views for life.

    ``pinned`` restricts a sharded manifest to the shard numbers this
    worker serves (shard-affinity pools); ``None`` attaches everything.
    The segment mapping (``shm``) is parked alongside the views — the
    worker never closes it; the OS reclaims the mapping at process exit
    and only the owning process unlinks.
    """
    obj, shm = attach_index(manifest, shards=pinned)
    _STATE["shm"] = shm
    if manifest["kind"] == "hint":
        _STATE["index"] = obj
        _STATE["shards"] = None
    elif pinned is None:
        _STATE["index"] = obj  # a full ShardedHint
        _STATE["shards"] = obj.shards
    else:
        _STATE["index"] = None
        _STATE["shards"] = obj  # sparse list: _Shard at pinned slots


def ping() -> int:
    """Warm-up no-op; returns the worker pid (spawns + attaches eagerly)."""
    return os.getpid()


# --------------------------------------------------------------------- #
# compact result encoding
# --------------------------------------------------------------------- #


def encode_result(result: BatchResult, mode: str) -> Tuple[np.ndarray, ...]:
    """A chunk's :class:`BatchResult` as the plain arrays it is made of.

    ``count`` → ``(counts,)``; ``checksum`` → ``(counts, checksums)``;
    ``ids`` → ``(counts, flat_ids, offsets)`` with query ``i`` of the
    chunk owning ``flat_ids[offsets[i]:offsets[i+1]]``.
    """
    if mode == "count":
        return (result.counts,)
    if mode == "checksum":
        return (result.counts, result.checksums)
    return (result.counts, result.flat_ids, result.offsets)


def decode_result(payload: Tuple[np.ndarray, ...], mode: str) -> BatchResult:
    """Inverse of :func:`encode_result`."""
    if mode == "checksum":
        return BatchResult(payload[0], checksums=payload[1])
    return BatchResult(*payload)


# --------------------------------------------------------------------- #
# worker-side telemetry
# --------------------------------------------------------------------- #


def _run_with_telemetry(telemetry: dict, fn):
    """Run *fn* under a fresh worker-local plane; ship what it recorded.

    A fresh :func:`repro.obs.configure` per task means the baseline is
    empty (the delta is exactly this task's work) and the worker never
    writes into a plane inherited across ``fork`` — the parent's ring
    cannot be polluted, and fork-inherited counts cannot leak into the
    shipped delta.  The plane is torn back down afterwards so tasks
    without a telemetry request stay on the zero-cost path.
    """
    import repro.obs as obs
    from repro.obs import aggregate

    ob = obs.configure(
        enabled=True,
        trace_partitions=bool(telemetry.get("trace_partitions", False)),
        slow_threshold_s=float(telemetry.get("slow_threshold_s", 0.1)),
        slow_overrides=telemetry.get("slow_overrides"),
    )
    traces = tuple(telemetry.get("traces", ()))
    try:
        with ob.recorder.trace_scope(traces):
            payload = fn()
        delta = aggregate.telemetry_delta(
            ob.registry,
            recorder=ob.recorder,
            trace_ids=traces,
            max_spans=int(telemetry.get("max_spans", 64)),
        )
    finally:
        obs.configure(enabled=False)
    return payload, {"worker": os.getpid(), "delta": delta}


# --------------------------------------------------------------------- #
# task entry points (run in the worker process)
# --------------------------------------------------------------------- #


def run_hint_chunk(
    st: np.ndarray,
    end: np.ndarray,
    strategy: str,
    mode: str,
    telemetry: Optional[dict] = None,
):
    """Execute one contiguous chunk of the sorted batch on the index.

    With a *telemetry* request, returns ``(payload, telemetry_dict)``
    instead of the bare payload (see the module docstring).
    """
    def task():
        result = run_strategy(
            strategy, _STATE["index"], QueryBatch(st, end), mode=mode
        )
        return encode_result(result, mode)

    if telemetry is None:
        return task()
    return _run_with_telemetry(telemetry, task)


def run_shard_primary(
    j: int,
    st: np.ndarray,
    end: np.ndarray,
    strategy: str,
    mode: str,
    telemetry: Optional[dict] = None,
):
    """Execute shard *j*'s pre-clipped primary sub-batch.

    The parent already routed the batch and clipped the slice into the
    shard's local domain (:meth:`ShardedHint._primary_local_batch`);
    replica/spill probes stay parent-side — they are single vectorized
    ``searchsorted`` calls, cheaper than a round-trip.  *telemetry* as
    in :func:`run_hint_chunk`.
    """
    def task():
        shard = _STATE["shards"][j]
        result = run_strategy(
            strategy, shard.index, QueryBatch(st, end), mode=mode
        )
        return encode_result(result, mode)

    if telemetry is None:
        return task()
    return _run_with_telemetry(telemetry, task)
