"""``serve-*``: the server lives in a child process, this process drives it.

Phase A, closed loop (2 connections x 128 in flight) gives ``qps`` and the
server's CPU per query; phase B, open loop at a fixed 4000 req/s, gives the
latency a client sees, each request timed from the instant it was due.  The
traced run adds the span wrappers inside the child, a rate ladder and the
outside probes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

import numpy as np

from bench import budget, host, metrics as M
from bench.inprocess import SETUPS, Report
from bench.loadgen import Driver, Frames, Phase
from bench.metrics import SERVE
from bench.oracle import Oracle
from bench.trace import plan_shares
from bench.workloads import (
    SERVE_CONNECTIONS, SERVE_IN_FLIGHT, SERVE_LADDER, SERVE_LIMIT_MS,
    SERVE_OPEN_RATE, SERVE_OPEN_WARMUP, QueryStream, Workload, make_collection, sub_seeds,
)

CPU_SHARE_LIMIT = 0.9  # a driver this busy may be the bottleneck itself
LATE_WINDOWS_LIMIT = 0.5


class Child:
    """The server process and its one-line JSON command channel."""

    def __init__(self, w: Workload, seed: int, setups: int):
        # One core each, server on the last and driver on the first.  The
        # server's threads hand one GIL back and forth; left to the scheduler
        # they land on different cores of this VM for seconds to whole runs at
        # a time, where every hand-over is a cross-core wake-up: 7k q/s at
        # 147 us of CPU per query instead of 13k at 74.  (The child inherits
        # the affinity this thread has when it is started.)
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[-1]})
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "bench.server_child", w.name, str(seed), str(setups)],
                cwd=host.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        finally:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[0]})

    def cpu(self) -> float:
        """CPU seconds the server process has used so far (read from /proc:
        asking the child would make its busy threads yield to answer)."""
        return host.process_cpu(self._proc.pid)

    def read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self._proc.wait()}")
        return json.loads(line)

    def ask(self, cmd: str, **fields) -> dict:
        self._proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self._proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Ask the child to exit, and wait until it has."""
        try:
            if self._proc.poll() is None:
                self.ask("stop")
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def _invalid(phases: List[Phase]) -> List[str]:
    """Why this set of phases cannot be trusted (empty = valid)."""
    reasons = []
    busiest = max(p.driver_cpu_share for p in phases)
    if busiest >= CPU_SHARE_LIMIT:
        reasons.append(f"driver.cpu_share {busiest:.2f} >= {CPU_SHARE_LIMIT}")
    for p in phases:
        late = p.late_windows_share()
        if late > LATE_WINDOWS_LIMIT:
            reasons.append(f"{late:.0%} of the open-loop windows ran >= 5 ms late")
    return reasons


def _open_loop(driver: Driver, seconds: float) -> Phase:
    """The timed open loop, after an untimed stretch at the same rate (the
    planner and the flusher settle on small batches within a few seconds)."""
    driver.open_loop(SERVE_OPEN_RATE, SERVE_OPEN_WARMUP / SERVE_OPEN_RATE)
    return driver.open_loop(SERVE_OPEN_RATE, seconds)


def _p50_ms(opened: Phase) -> float:
    """Quiet percentile of the median latency of each BLOCK_S of the open loop."""
    sent_at = np.asarray(opened.done_at) - np.asarray(opened.latency)
    edges = np.arange(0.0, opened.seconds + M.BLOCK_S / 2, M.BLOCK_S)
    return M.quiet(M.window_medians(sent_at, np.asarray(opened.latency) * 1e3, edges))


def _closed_blocks(closed: Phase):
    """Per block of the closed loop: requests answered, seconds it lasted and
    server CPU seconds spent (blocks that answered nothing are left out)."""
    at, cpu = np.asarray(closed.samples).T
    answered, _ = np.histogram(closed.done_at, bins=at)
    keep = answered > 0
    return answered[keep], np.diff(at)[keep], np.diff(cpu)[keep]


def _thread_delta(before: dict, after: dict, names: List[str]) -> float:
    return sum(after["threads"].get(n, 0.0) - before["threads"].get(n, 0.0) for n in names)


def run(w: Workload, seed: int, seconds: float, traced: bool) -> Report:
    child = Child(w, seed, 1 if traced else SETUPS)
    driver = None
    try:
        # The child sets up while this process prepares its own inputs.
        coll_seed, q_rng, _mutations, _probes = sub_seeds(seed)
        oracle = Oracle(make_collection(w, coll_seed))
        frames = Frames(QueryStream(w, q_rng))
        warm_requests = w.warmup_units * w.batch_size
        frames.ensure(warm_requests)
        hello = child.read()
        driver = Driver("127.0.0.1", hello["port"], SERVE_CONNECTIONS, frames,
                        sample_every=w.oracle_every)
        warm = driver.closed_loop(SERVE_IN_FLIGHT, 60.0, 0.0, stop_after=warm_requests)
        rate = warm.answered / max(warm.done_at[-1], 1e-9) if warm.done_at else 1e4
        phases = [warm]
        notes: List[str] = []
        run_phases = _traced if traced else _untraced
        measured, valid = run_phases(child, driver, hello, seconds, rate, phases, notes)
    finally:
        if driver is not None:
            driver.close()
        child.stop()

    for phase in phases:
        for rid, value in phase.answers:
            oracle.check_value(frames.st[rid - 1], frames.end[rid - 1], w.mode, value)
    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed for p in phases) + oracle.mismatched
    if not valid:
        failed = max(failed, 1)  # an invalid run that a rerun did not cure
    if traced:
        measured["e2e.error_rate"] = failed / attempted
        measured["net.refused"] = float(sum(p.refused for p in phases))
    notes.append(f"requests={attempted} oracle_checked={oracle.checked}")
    return Report(measured, attempted, failed, notes)


def _untraced(child, driver, hello, seconds, rate, phases, notes):
    half = seconds / 2
    for attempt in (1, 2):
        closed = driver.closed_loop(SERVE_IN_FLIGHT, half, rate, sampler=child.cpu)
        opened = _open_loop(driver, half)
        reasons = _invalid([closed, opened])
        if not reasons or attempt == 2:
            break
        # Never silently kept: say so, and measure again.
        notes.append("INVALID (rerunning): " + "; ".join(reasons))
    phases += [closed, opened]
    answered, lasted, server_cpu = _closed_blocks(closed)
    measured = {
        "setup_s": M.quiet(hello["setup_times"]),
        "qps": M.quiet(answered / lasted, "higher"),
        "p50_ms": _p50_ms(opened),
        "cpu_us_per_query": M.quiet(1e6 * server_cpu / answered),
        "peak_rss_mb": child.ask("stats")["peak_rss_mb"],
    }
    notes.append(
        f"driver_cpu_share closed={closed.driver_cpu_share:.2f} "
        f"open={opened.driver_cpu_share:.2f} late_share={opened.late_share:.3f}"
    )
    if reasons:
        notes.append("INVALID after a rerun: " + "; ".join(reasons))
    return measured, not reasons


def _traced(child, driver, hello, seconds, rate, phases, notes):
    threads = hello["threads"]
    plain = driver.closed_loop(SERVE_IN_FLIGHT, seconds * 0.15, rate)
    plain_qps = float(np.median(M.wall_rates(plain.done_at, M.window_edges(0.0, plain.seconds))))

    child.ask("trace", on=True, requests=False)
    driver.closed_loop(SERVE_IN_FLIGHT, 0.3, rate)  # let the wrappers settle
    child.ask("report")
    before = child.ask("stats")
    closed = driver.closed_loop(SERVE_IN_FLIGHT, seconds * 0.3, rate)
    after = child.ask("stats")
    spans = child.ask("report")
    # Per-request submit()->done records cost the event loop a few us each:
    # on only where they are read, the open loop.
    child.ask("trace", on=True, requests=True)
    driver.open_loop(SERVE_OPEN_RATE, SERVE_OPEN_WARMUP / SERVE_OPEN_RATE)
    child.ask("report")
    opened = driver.open_loop(SERVE_OPEN_RATE, seconds * 0.2)
    open_spans = child.ask("report")
    child.ask("trace", on=False, requests=False)
    phases += [plain, closed, opened]

    rates = M.wall_rates(closed.done_at, M.window_edges(0.0, closed.seconds))
    qps = float(np.median(rates))
    answered = closed.answered
    out: Dict[str, float] = {
        "obs.traced_over_untraced": qps / plain_qps,
        "e2e.qps_drift": float(rates[-1] / rates[0]),
        "e2e.window_spread": M.spread(rates),
        "driver.cpu_share": max(p.driver_cpu_share for p in (plain, closed, opened)),
        "driver.late_share": opened.late_share,
    }
    latency_ms = np.asarray(opened.latency) * 1e3
    out["e2e.tail_ms"] = M.tail(latency_ms)[1]
    out["e2e.p99_ms"] = M.percentile(latency_ms, 99)

    # Attribution on the closed loop, in CPU: the server's two threads share
    # one GIL, so wall spans would count each other's waits.
    net = _thread_delta(before, after, threads["loop"]) / answered
    flusher = _thread_delta(before, after, threads["flusher"])
    service = (flusher - spans["root_cpu"]) / answered
    out["net.cpu_us_per_query"] = 1e6 * net
    out["service.self_us_per_query"] = 1e6 * service
    attributed = net + service
    per_query = {"net": 1e6 * net, "service": 1e6 * service}
    queries, flushes = max(spans["queries"], 1), max(spans["flushes"], 1)
    for layer, seconds_self in spans["self_cpu"].items():
        attributed += seconds_self / queries
        per_query[layer] = 1e6 * seconds_self / queries
        if layer in ("cache", "core"):
            out[f"{layer}.self_us_per_query"] = 1e6 * seconds_self / queries
        elif layer in ("planner", "engine"):
            out[f"{layer}.self_us_per_batch"] = 1e6 * seconds_self / flushes
    out["e2e.unattributed_us_per_query"] = 1e6 * (1.0 / qps - attributed)
    out["e2e.unattributed_share"] = 1.0 - attributed * qps
    per_query["unattributed"] = out["e2e.unattributed_us_per_query"]
    budget.write_budget(SERVE, qps, per_query, clock="cpu")
    if "batch_size_p50" in spans:
        out["service.batch_size_p50"] = spans["batch_size_p50"]
        out["e2e.batch_ms_p50"] = spans["flush_ms_p50"]
    out.update(plan_shares(spans["plans"]))
    if before["cache"] is not None:
        c0, c1 = before["cache"], after["cache"]
        hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
        out["cache.hit_rate"] = hits / max(hits + misses, 1)
        out["cache.evictions_per_kq"] = 1e3 * (c1["evictions"] - c0["evictions"]) / answered
        out["cache.resident_mb"] = c1["bytes_resident"] / (1 << 20)
    if "formation_wait_ms_p50" in open_spans:
        out["service.formation_wait_ms_p50"] = open_spans["formation_wait_ms_p50"]
        out["net.self_ms_p50"] = M.percentile(latency_ms, 50) - open_spans["submit_done_ms_p50"]
    for key, value in hello["layer_setup"].items():
        out[key] = value

    # The rate ladder stops at the first rung that misses the limit: every
    # higher rung would only queue behind it.  A missed rung is a finding,
    # not a failed operation, so only the rungs that held are accounted.
    best = 0.0
    for rung in SERVE_LADDER:
        step = driver.open_loop(rung, 1.0, drain_s=5.0)
        p99 = M.percentile(np.asarray(step.latency) * 1e3, 99) if step.latency else np.inf
        held = (step.failed == 0 and p99 <= SERVE_LIMIT_MS
                and step.backlog_at_end <= rung * SERVE_LIMIT_MS / 1e3)
        notes.append(f"ladder {rung} req/s: p99={p99:.2f} ms backlog={step.backlog_at_end} "
                     f"{'ok' if held else 'miss'}")
        if not held:
            break
        phases.append(step)
        best = float(rung)
    out["e2e.max_rate_in_limit"] = best
    out.update(child.ask("probe"))
    reasons = _invalid([plain, closed, opened])
    if reasons:
        # No rerun here: the per-layer numbers carry no bound, and
        # driver.cpu_share / driver.late_share above already show it.
        notes.append("INVALID: " + "; ".join(reasons))
    return out, True
