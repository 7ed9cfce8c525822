"""``batch-*`` and ``churn-*``: one thread drives the stack in this process.

A *unit* is one batch (``batch-*``) or one round of writes followed by one
batch (``churn-*``).  Only the calls into the stack are timed; input
generation and oracle checks sit between them.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

import numpy as np

from bench import budget, host, metrics as M, probes
from bench.oracle import Mirror, Oracle
from bench.stacks import Stack, build_repeatedly, compose
from bench import trace
from bench.workloads import (
    MutationStream, QueryStream, Workload, make_collection, sub_seeds,
)

SETUPS = 8  # setup_s is the quiet percentile of this many set-ups


@dataclass
class Report:
    measured: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)


@dataclass
class UnitLog:
    """One row per timed unit."""

    start: List[float] = field(default_factory=list)
    busy: List[float] = field(default_factory=list)  # seconds inside timed calls
    cpu: List[float] = field(default_factory=list)  # process CPU inside them
    queries: List[int] = field(default_factory=list)
    read: List[float] = field(default_factory=list)  # the execute() part
    write: List[float] = field(default_factory=list)  # the mutation calls
    failed: int = 0


class Driver:
    """Generates units, runs them against a stack, checks sampled answers."""

    def __init__(self, w: Workload, seed: int):
        from repro.intervals import QueryBatch

        self.w = w
        self._batch = QueryBatch
        coll_seed, q_rng, m_rng, self.probe_rng = sub_seeds(seed)
        self.collection = make_collection(w, coll_seed)
        self.stream = QueryStream(w, q_rng)
        self.oracle = Oracle(self.collection)
        self.mutations = self.mirror = None
        if w.kind == "churn":
            self.mutations = MutationStream(w, self.collection, m_rng)
            self.mirror = Mirror(self.collection)
        self.stack: Optional[Stack] = None
        self.checked = 0
        self.mismatched = 0
        self.rounds_applied = 0

    def unit(self, log: UnitLog, sample: int = 0) -> None:
        """Run one unit, append its row to *log*, oracle-check *sample* answers."""
        w, stack = self.w, self.stack
        write = 0.0
        cpu = 0.0
        t_start = perf_counter()
        if self.mutations is not None:
            index = stack.layers["hint"]
            ins_ids, ins_st, ins_end, del_ids = self.mutations.next()
            c0 = process_time()
            t0 = perf_counter()
            for i, s, e in zip(ins_ids, ins_st, ins_end):
                index.insert(s, e, id=i)
            for i in del_ids:
                index.delete(i)
            write = perf_counter() - t0
            cpu = process_time() - c0
            self.mirror.apply(ins_ids, ins_st, ins_end, del_ids)
            self.rounds_applied += 1
        st, end = self.stream.next()
        batch = self._batch(st, end)
        c0 = process_time()
        t0 = perf_counter()
        try:
            result = stack.execute(batch, w.mode)
            answered = len(result.counts)  # consume inside the timed region
        except Exception:
            traceback.print_exc()
            answered = -1
        read = perf_counter() - t0
        cpu += process_time() - c0
        if answered != len(batch):
            log.failed += len(batch)
            return
        log.start.append(t_start)
        log.busy.append(write + read)
        log.cpu.append(cpu)
        log.queries.append(len(batch))
        log.read.append(read)
        log.write.append(write)
        if sample:
            positions = np.linspace(0, len(st) - 1, sample).astype(int)
            oracle = self.mirror.oracle() if self.mirror is not None else self.oracle
            self.mismatched += oracle.check_result(st, end, w.mode, result, positions)
            self.checked += len(positions)

    def run_units(self, count: int, sample: int = 0) -> int:
        """*count* untimed units (warm-up); returns the queries that failed."""
        log = UnitLog()
        for _ in range(count):
            self.unit(log, sample)
        return log.failed

    def run_window(self, seconds: float) -> "tuple[UnitLog, float]":
        """Units back to back for *seconds*; returns the log and its start."""
        log = UnitLog()
        every = self.w.oracle_every
        t0 = perf_counter()
        deadline = t0 + seconds
        n = 0
        while perf_counter() < deadline:
            n += 1
            self.unit(log, self.w.oracle_sample if n % every == 0 else 0)
        return log, t0


def _window_metrics(log: UnitLog, t0: float, seconds: float, block: int) -> Dict[str, float]:
    """The timed metrics, read off blocks of *block* consecutive units."""
    edges = M.window_edges(t0, seconds)
    rates = M.busy_rates(log.start, log.busy, log.queries, edges)
    block = max(1, min(block, len(log.queries)))  # a window shorter than a block
    busy, cpu, queries = (M.fold(col, block) for col in (log.busy, log.cpu, log.queries))
    busy_ms = np.asarray(log.busy) * 1e3
    return {
        "qps": M.quiet(queries.sum(axis=1) / busy.sum(axis=1), "higher"),
        "p50_ms": M.quiet(np.median(busy, axis=1) * 1e3),
        "p99_ms": M.percentile(busy_ms, 99),
        "tail_ms": M.tail(busy_ms)[1],
        "cpu_us_per_query": M.quiet(1e6 * cpu.sum(axis=1) / queries.sum(axis=1)),
        "qps_drift": float(rates[-1] / rates[0]),
        "window_spread": M.spread(rates),
    }


def run(w: Workload, seed: int, seconds: float, traced: bool) -> Report:
    driver = Driver(w, seed)
    stack, setup_times = build_repeatedly(
        lambda: compose(w, driver.collection), 1 if traced else SETUPS
    )
    driver.stack = stack
    try:
        # Before timing: one unit checked four times as densely as a timed one,
        # then the warm-up, sized by work (see Workload.warmup_units).
        warm_failed = driver.run_units(1, sample=4 * w.oracle_sample)
        warm_failed += driver.run_units(w.warmup_units)
        if traced:
            measured, log = _traced(driver, seconds)
        else:
            log, t0 = driver.run_window(seconds)
            win = _window_metrics(log, t0, seconds, w.block_units)
            measured = {
                "setup_s": M.quiet(setup_times),
                "qps": win["qps"],
                "p50_ms": win["p50_ms"],
                "cpu_us_per_query": win["cpu_us_per_query"],
                "peak_rss_mb": host.peak_rss_mb(),
            }
    finally:
        stack.close()
    attempted = sum(log.queries) + log.failed + warm_failed
    failed = log.failed + driver.mismatched + warm_failed
    if traced:
        measured["e2e.error_rate"] = failed / attempted
    decision = getattr(stack.layers.get("planner"), "last_decision", None)
    plan = getattr(decision, "plan", None)
    return Report(measured, attempted, failed, [
        f"units={len(log.queries)} oracle_checked={driver.checked} "
        f"last_plan={plan.describe() if hasattr(plan, 'describe') else plan}"
    ])


def _traced(driver: Driver, seconds: float) -> "tuple[Dict[str, float], UnitLog]":
    """Untraced quarter, traced half, then the outside probes."""
    w, stack = driver.w, driver.stack
    plain_log, plain_t0 = driver.run_window(seconds * 0.25)
    plain = _window_metrics(plain_log, plain_t0, seconds * 0.25, w.block_units)

    tracer = trace.Tracer()
    tracer.install()
    cache = stack.layers.get("cache")
    stats0 = cache.stats() if cache is not None else None
    rounds0 = driver.rounds_applied
    try:
        driver.run_units(4)
        tracer.spans.clear()
        tracer.plans.clear()
        span = seconds * 0.5
        log, t0 = driver.run_window(span)
    finally:
        tracer.uninstall()
    win = _window_metrics(log, t0, span, w.block_units)
    nq = sum(log.queries)
    nb = len(log.queries)
    selfs = trace.self_times(tracer.spans, "wall")

    out: Dict[str, float] = {
        "obs.traced_over_untraced": win["qps"] / plain["qps"],
        "e2e.qps_drift": win["qps_drift"],
        "e2e.window_spread": win["window_spread"],
        "e2e.batch_ms_p50": M.percentile(np.asarray(log.read) * 1e3, 50),
        "e2e.tail_ms": win["tail_ms"],
        "e2e.p99_ms": win["p99_ms"],
        "hint.build_s": stack.setup.get("hint.build_s", M.ABSENT),
    }
    for key in ("engine.setup_s", "planner.calibrate_s"):
        if key in stack.setup:
            out[key] = stack.setup[key]
    if "cache" in selfs:
        out["cache.self_us_per_query"] = 1e6 * selfs["cache"] / nq
    if "core" in selfs:
        out["core.self_us_per_query"] = 1e6 * selfs["core"] / nq
    for layer in ("planner", "engine"):
        if layer in selfs:
            out[f"{layer}.self_us_per_batch"] = 1e6 * selfs[layer] / nb
    attributed = sum(selfs.values())
    busy = sum(log.busy)
    out["e2e.unattributed_us_per_query"] = 1e6 * (busy - attributed) / nq
    out["e2e.unattributed_share"] = (busy - attributed) / busy
    budget.write_budget(
        w.name, nq / busy,
        {**{layer: 1e6 * s / nq for layer, s in selfs.items()},
         "unattributed": 1e6 * (busy - attributed) / nq},
        clock="wall",
    )

    if stats0 is not None:
        stats1 = cache.stats()
        hits = stats1.hits - stats0.hits
        misses = stats1.misses - stats0.misses
        out["cache.hit_rate"] = hits / max(hits + misses, 1)
        out["cache.evictions_per_kq"] = 1e3 * (stats1.evictions - stats0.evictions) / nq
        out["cache.resident_mb"] = stats1.bytes_resident / (1 << 20)
        if w.kind == "churn":
            out["cache.invalidated_per_round"] = (
                stats1.invalidated_entries - stats0.invalidated_entries
            ) / max(driver.rounds_applied - rounds0, 1)
    out.update(trace.plan_shares(tracer.plans))
    if w.kind == "churn":
        inserts = trace.durations(tracer.spans, "hint.insert", "")
        rebuilds = trace.durations(tracer.spans, "hint.insert", "rebuild")
        out["hint.insert_us"] = M.percentile(inserts * 1e6, 50)
        for metric, layer in (("hint.delete_us", "hint.delete"),
                              ("hint.dynamic_query_us", "hint.query")):
            out[metric] = M.percentile(trace.durations(tracer.spans, layer) * 1e6, 50)
        out["hint.rebuilds"] = float(rebuilds.size)
        if rebuilds.size:
            out["hint.rebuild_ms"] = M.percentile(rebuilds * 1e3, 50)
        out["hint.writes_per_s"] = 2 * w.writes * nb / sum(log.write)

    out.update(probes.in_process(w, driver.collection, stack, driver.probe_rng))
    tracer.dump(w.name)
    # The timed log the report counts is the traced one.
    return out, log
