"""The metric registry and the statistics every runner shares.

``BENCHMARK.json`` is generated from this module (``manifest()``), and
``--selftest`` checks the committed file still matches it, so a name,
unit or direction lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Number of sub-windows the run-health metrics (drift, spread) cut a timed
#: window into.
SUBWINDOWS = 5

#: Every timed end-to-end metric is read off short *blocks* of the run (a
#: fixed number of batches, or BLOCK_S seconds of socket traffic) at the
#: QUIET-th percentile from the fast side: what the program does while the
#: host's other tenants leave it alone.  Their bursts last from a fraction
#: of a second to minutes and slow pure-CPU code by up to 1.6x, so a mean or
#: a median over the run follows the neighbours (quartile spread 0.15-0.25
#: over ten runs) where this follows the program (0.03-0.05); see README,
#: "Noise".
QUIET = 10.0
BLOCK_S = 0.25

#: Value reported for a per-layer metric whose layer the workload does
#: not exercise (or a later PR removed).  Every run prints every name, so
#: "absent" needs a number no measurement can produce.
ABSENT = -1.0

BATCH_COUNT = "batch-count-short"
BATCH_IDS = "batch-ids-long"
CHURN = "churn-ids-zipf"
SERVE = "serve-count-short"
ALL = (BATCH_COUNT, BATCH_IDS, CHURN, SERVE)
IN_PROCESS = (BATCH_COUNT, BATCH_IDS, CHURN)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    meaning: str
    bound: Optional[float] = None  # end-to-end metrics only
    workloads: Tuple[str, ...] = ALL  # where it is measured; ABSENT elsewhere
    moves: str = ""  # the end-to-end metric/workload a layer metric should move


# Bounds: max(floor, 2 x the largest relative deviation from the median in
# bench/NOISE.md), floor 0.10 (0.15 for setup_s, 0.05 for peak_rss_mb), capped
# at the contract's 0.25.  The committed same-seed table alone would give
# 0.25 / 0.15 / 0.10 / 0.15 / 0.22; every bound sits at the cap because the
# ten-seed table (bench/NOISE-seeds.md) and the other recordings made on this
# host reached quartile spreads of 0.10-0.20 and medians 19-24 % apart on the
# served workload an hour later (README, "Noise"), and a bound the benchmark
# cannot hold rejects honest changes.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "collection arrays in memory -> stack ready (index build, planner "
           "calibration, server bound); quiet percentile of 8 set-ups", bound=0.25),
    Metric("qps", "1/s", "higher",
           "queries answered per second, quiet percentile of the blocks: inside "
           "execute() for batch-*, inside execute() plus the mutation calls for "
           "churn-*, closed loop over the socket for serve-*", bound=0.25),
    Metric("p50_ms", "ms", "lower",
           "latency of the unit a caller waits for, quiet percentile of the "
           "block medians: one batch (batch-*), one round (churn-*), one request "
           "at a fixed open-loop 500 req/s timed from the instant it was due "
           "(serve-*)", bound=0.25),
    Metric("cpu_us_per_query", "us", "lower",
           "CPU (all threads) of the process that holds the stack per answered "
           "query, inside the timed calls; quiet percentile of the blocks",
           bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the process that holds the stack", bound=0.25),
]

_SERVE = (SERVE,)
_CHURN = (CHURN,)
_STACKED = (BATCH_COUNT, BATCH_IDS, SERVE)  # planner -> engine under the cache

PER_LAYER: List[Metric] = [
    # --- net ---------------------------------------------------------- #
    Metric("net.cpu_us_per_query", "us", "lower",
           "event-loop thread CPU per answered query, closed loop (/proc)",
           workloads=_SERVE, moves="qps, cpu_us_per_query on serve-count-short"),
    Metric("net.self_ms_p50", "ms", "lower",
           "median client latency minus median submit->done span, open loop",
           workloads=_SERVE, moves="p50_ms on serve-count-short"),
    Metric("net.codec_us_per_frame", "us", "lower",
           "encode_frame(RESULT) + decode_payload(QUERY), outside probe",
           workloads=_SERVE, moves="qps, cpu_us_per_query on serve-count-short"),
    Metric("net.refused", "count", "lower",
           "requests answered with overload/rate_limited/closing",
           workloads=_SERVE, moves="error accounting on serve-count-short"),
    # --- service ------------------------------------------------------ #
    Metric("service.batch_size_p50", "count", "higher",
           "median queries per flush, closed loop", workloads=_SERVE,
           moves="qps on serve-count-short"),
    Metric("service.formation_wait_ms_p50", "ms", "lower",
           "median submit -> start of the flush that answered it, open loop",
           workloads=_SERVE, moves="p50_ms on serve-count-short"),
    Metric("service.self_us_per_query", "us", "lower",
           "flusher-thread CPU outside backend.execute per query, closed loop",
           workloads=_SERVE, moves="qps on serve-count-short"),
    Metric("service.inproc_qps", "1/s", "higher",
           "submit()->result() with no socket, 256 in flight; splits the served "
           "gap between net and service", workloads=_SERVE,
           moves="qps on serve-count-short"),
    # --- cache -------------------------------------------------------- #
    Metric("cache.hit_rate", "ratio", "higher",
           "hits / (hits + misses) over the traced window",
           moves="qps on batch-ids-long, churn-ids-zipf"),
    Metric("cache.self_us_per_query", "us", "lower",
           "cache span minus the part its children cover, per query",
           moves="qps on batch-count-short (pure overhead there), batch-ids-long"),
    Metric("cache.evictions_per_kq", "count", "lower",
           "LRU evictions per 1000 queries", moves="qps on batch-ids-long"),
    Metric("cache.resident_mb", "MiB", "lower",
           "accounted result bytes at the end of the traced window",
           moves="peak_rss_mb on batch-count-short"),
    Metric("cache.invalidated_per_round", "count", "lower",
           "entries dropped by selective invalidation per round",
           workloads=_CHURN, moves="qps on churn-ids-zipf"),
    # --- planner ------------------------------------------------------ #
    Metric("planner.self_us_per_batch", "us", "lower",
           "planner span minus children (decide + observe + split merge)",
           workloads=_STACKED, moves="qps on batch-ids-long"),
    Metric("planner.modal_plan_share", "ratio", "higher",
           "share of batches run on the most frequent plan; < 1 exposes a "
           "bimodal run", workloads=_STACKED, moves="run health"),
    Metric("planner.split_share", "ratio", "higher",
           "share of batches run as an extent-split plan",
           workloads=_STACKED, moves="qps on batch-ids-long"),
    Metric("planner.calibrate_s", "s", "lower",
           "start-up probe suite", workloads=_STACKED, moves="setup_s everywhere"),
    # --- engine ------------------------------------------------------- #
    Metric("engine.self_us_per_batch", "us", "lower",
           "engine span minus children (dispatch + stitch)",
           workloads=_STACKED, moves="qps on batch-ids-long"),
    Metric("engine.auto_over_best", "ratio", "lower",
           "time of 8 batches on backend=auto over the best forced backend "
           "(>= 1)", workloads=(BATCH_COUNT, BATCH_IDS), moves="qps on batch-*"),
    Metric("engine.setup_s", "s", "lower", "ExecutionEngine construction",
           workloads=_STACKED, moves="setup_s"),
    # --- shard -------------------------------------------------------- #
    Metric("shard.overhead_us_per_query", "us", "lower",
           "ShardedHint(k=2).execute minus run_strategy on one HintIndex, "
           "same batches", workloads=(BATCH_IDS,), moves="qps on batch-ids-long"),
    # --- core --------------------------------------------------------- #
    Metric("core.us_per_query", "us", "lower",
           "bare run_strategy('partition-based'), the floor",
           workloads=(BATCH_COUNT, BATCH_IDS, SERVE),
           moves="qps on batch-count-short; ~nothing on serve-count-short"),
    Metric("core.self_us_per_query", "us", "lower",
           "run_strategy/compiled_run spans inside the stack, per query",
           workloads=(BATCH_COUNT, BATCH_IDS, SERVE),
           moves="qps on batch-count-short"),
    Metric("core.level_over_partition", "ratio", "higher",
           "level-based time over partition-based, same batches (paper "
           "ordering, >= 1)", workloads=(BATCH_COUNT, BATCH_IDS),
           moves="paper claim"),
    Metric("core.query_over_partition", "ratio", "higher",
           "query-based time over partition-based, same batches (>= 1)",
           workloads=(BATCH_COUNT, BATCH_IDS), moves="paper claim"),
    Metric("core.ids_per_query", "count", "lower",
           "mean result size on the probe batches; repeats exactly per seed",
           moves="work per query"),
    # --- kernels ------------------------------------------------------ #
    Metric("kernels.jit_active", "count", "higher",
           "1 when numba kernels run; 0 = every compiled number is the NumPy "
           "fallback", moves="context for every compiled number"),
    Metric("kernels.compiled_over_serial", "ratio", "lower",
           "compiled_run time over run_strategy time, same batches",
           workloads=(BATCH_COUNT, BATCH_IDS), moves="qps on batch-ids-long"),
    # --- hint --------------------------------------------------------- #
    Metric("hint.build_s", "s", "lower", "index construction", moves="setup_s"),
    Metric("hint.insert_us", "us", "lower",
           "median DynamicHint.insert without a rebuild", workloads=_CHURN,
           moves="qps on churn-ids-zipf"),
    Metric("hint.delete_us", "us", "lower", "median DynamicHint.delete",
           workloads=_CHURN, moves="qps on churn-ids-zipf"),
    Metric("hint.rebuild_ms", "ms", "lower",
           "median insert that triggered a merge-and-rebuild", workloads=_CHURN,
           moves="qps on churn-ids-zipf"),
    Metric("hint.rebuilds", "count", "lower", "rebuilds in the traced window",
           workloads=_CHURN, moves="qps on churn-ids-zipf"),
    Metric("hint.dynamic_query_us", "us", "lower",
           "median DynamicHint.query", workloads=_CHURN,
           moves="qps on churn-ids-zipf"),
    Metric("hint.writes_per_s", "1/s", "higher",
           "inserts + deletes per second of time spent in those calls, "
           "rebuilds included", workloads=_CHURN, moves="qps on churn-ids-zipf"),
    # --- obs ---------------------------------------------------------- #
    Metric("obs.traced_over_untraced", "ratio", "higher",
           "traced qps over untraced qps in the same process: the cost of the "
           "benchmark's own tracing", moves="trust in the per-layer numbers"),
    # --- run health --------------------------------------------------- #
    Metric("e2e.unattributed_us_per_query", "us", "lower",
           "1/qps minus the attributed layer self times", moves="budget"),
    Metric("e2e.unattributed_share", "ratio", "lower",
           "the same as a share of 1/qps (must stay <= 0.25)", moves="budget"),
    Metric("e2e.qps_drift", "ratio", "higher",
           "last sub-window qps over the first", moves="run health"),
    Metric("e2e.window_spread", "ratio", "lower",
           "(max - min) / median of the sub-window qps", moves="run health"),
    Metric("e2e.batch_ms_p50", "ms", "lower",
           "median batch (flush on serve-*) duration", moves="p50_ms"),
    Metric("e2e.tail_ms", "ms", "lower",
           "latency at the highest percentile with >= 10 samples beyond it",
           moves="tail of p50_ms"),
    Metric("e2e.p99_ms", "ms", "lower",
           "p99 of the p50_ms series (demoted: see README)", moves="tail"),
    Metric("e2e.max_rate_in_limit", "1/s", "higher",
           "highest rung of 1k/2k/4k/8k/16k req/s with p99 <= 25 ms and no "
           "growing backlog", workloads=_SERVE, moves="capacity under a limit"),
    Metric("e2e.error_rate", "ratio", "lower",
           "(failed + refused + unanswered + oracle-mismatched) / attempted; "
           "must be 0", moves="correctness"),
    Metric("driver.late_share", "ratio", "lower",
           "open-loop sends made more than 1 ms after they were due",
           workloads=_SERVE, moves="validity of p50_ms on serve-count-short"),
    Metric("driver.cpu_share", "ratio", "lower",
           "driver-process CPU over wall time; a serve run with >= 0.9 is "
           "invalid", workloads=_SERVE, moves="validity of the run"),
]

def manifest(run_seconds: int, workloads: Sequence[Tuple[str, str]]) -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def fill(measured: Dict[str, float], metrics: Sequence[Metric]) -> Dict[str, dict]:
    """Every metric of *metrics* by name; ABSENT where nothing was measured."""
    unknown = set(measured) - {m.name for m in metrics}
    if unknown:
        raise KeyError(f"metrics not in the registry: {sorted(unknown)}")
    return {
        m.name: {"value": float(measured.get(m.name, ABSENT)), "unit": m.unit}
        for m in metrics
    }


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), linear interpolation."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(arr, q))


def tail(values) -> Tuple[float, float]:
    """``(q, value)`` at the highest percentile with >= 10 samples beyond it."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size < 11:
        return 100.0 * (arr.size - 1) / max(arr.size, 1), float(arr[-1])
    idx = arr.size - 11
    return 100.0 * (idx + 1) / arr.size, float(arr[idx])


def window_edges(t0: float, seconds: float, k: int = SUBWINDOWS) -> np.ndarray:
    return t0 + np.linspace(0.0, seconds, k + 1)


def busy_rates(starts, busy, counts, edges) -> np.ndarray:
    """Per sub-window: work done over the time spent inside the timed calls.

    A unit belongs to the sub-window its start falls into.
    """
    starts = np.asarray(starts, dtype=np.float64)
    busy = np.asarray(busy, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    which = np.searchsorted(edges, starts, side="right") - 1
    k = len(edges) - 1
    rates = []
    for w in range(k):
        sel = which == w
        spent = busy[sel].sum()
        if spent > 0:
            rates.append(counts[sel].sum() / spent)
    return np.asarray(rates)


def wall_rates(done_times, edges) -> np.ndarray:
    """Per sub-window: completions per wall second (closed loop)."""
    hist, _ = np.histogram(np.asarray(done_times, dtype=np.float64), bins=edges)
    return hist / np.diff(edges)


def window_medians(at, values, edges) -> np.ndarray:
    """Each window's median of *values* (a sample belongs to the window its
    instant *at* falls into; a window without samples is left out)."""
    at = np.asarray(at, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    which = np.searchsorted(edges, at, side="right") - 1
    return np.asarray([np.median(values[which == w]) for w in range(len(edges) - 1)
                       if np.any(which == w)])


def quiet(per_block, better: str = "lower") -> float:
    """A metric's value on a quiet machine: the QUIET-th percentile of its
    per-block values, counted from the good side (fast, cheap)."""
    return percentile(per_block, QUIET if better == "lower" else 100.0 - QUIET)


def fold(values, size: int) -> np.ndarray:
    """*values* as rows of *size* consecutive entries (a ragged tail is dropped)."""
    arr = np.asarray(values, dtype=np.float64)
    return arr[:arr.size // size * size].reshape(-1, size)


def spread(values) -> float:
    """(max - min) / median."""
    arr = np.asarray(values, dtype=np.float64)
    return float((arr.max() - arr.min()) / np.median(arr))


def largest_deviation(values) -> float:
    """max |v - median| / median."""
    arr = np.asarray(values, dtype=np.float64)
    med = np.median(arr)
    return float(np.abs(arr - med).max() / med)
