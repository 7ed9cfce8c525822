"""``--selftest``: the benchmark checks itself, in under a minute.

* ``BENCHMARK.json`` names, units, directions and bounds match ``metrics.py``,
  and ``README.md`` describes every metric;
* the generators are deterministic per seed;
* the percentile and sub-window helpers give hand-computed values;
* the span arithmetic (self time, parallel children) is right;
* a deliberately wrong answer is caught by the oracle, also under mutation;
* an artificially late open-loop send is counted in ``driver.late_share``;
* a removed wrapper reads absent instead of failing, and a ``repro.build_stack``
  composition root is preferred when one exists;
* an orphaned grandchild and the resource tracker are ended and waited for;
* a small copy of each in-process workload runs end to end in both modes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import time
import traceback
from typing import Callable, List

import numpy as np

from bench import host, loadgen, metrics as M
from bench.workloads import (
    WORKLOADS, MutationStream, QueryStream, Workload, make_collection, sub_seeds,
)


def _small(w: Workload) -> Workload:
    """The same workload over a collection small enough to build in milliseconds."""
    return dataclasses.replace(
        w, cardinality=min(w.cardinality, 20_000), batch_size=min(w.batch_size, 256),
        templates=min(w.templates, 1024), warmup_units=2, oracle_every=2,
    )


def check_manifest() -> None:
    from bench.cli import RUN_SECONDS

    with open(os.path.join(host.ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    expected = M.manifest(RUN_SECONDS, [(w.name, w.why) for w in WORKLOADS.values()])
    assert committed == expected, "BENCHMARK.json differs from bench/metrics.py: " \
        "regenerate it with `python3 -m bench --manifest`"
    names = [m.name for m in M.END_TO_END + M.PER_LAYER]
    assert len(names) == len(set(names)), "a metric name is used twice"
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in M.END_TO_END)
    assert all(m.bound is not None and 0 < m.bound <= 0.25 for m in M.END_TO_END)
    with open(os.path.join(host.ROOT, "bench", "README.md")) as fh:
        readme = fh.read()
    undocumented = [n for n in names if f"`{n}`" not in readme]
    assert not undocumented, f"bench/README.md does not describe {undocumented}"


def check_generators() -> None:
    for w in map(_small, WORKLOADS.values()):
        def inputs(seed):
            coll_seed, q_rng, m_rng, _ = sub_seeds(seed)
            coll = make_collection(w, coll_seed)
            stream = QueryStream(w, q_rng)
            out = [coll.st, coll.end, *stream.next(), *stream.next()]
            if w.kind == "churn":
                mutations = MutationStream(w, coll, m_rng)
                out += [np.asarray(part) for part in mutations.next() + mutations.next()]
            return out

        a, b, other = inputs(5), inputs(5), inputs(6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b)), f"{w.name}: seed not honoured"
        assert not all(np.array_equal(x, y) for x, y in zip(a, other)), \
            f"{w.name}: two seeds gave the same inputs"
        st, end = a[2], a[3]
        assert np.all(st <= end) and st.min() >= 0 and end.max() < (1 << w.m)


def check_statistics() -> None:
    assert M.percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert M.percentile(range(101), 99) == 99.0
    q, value = M.tail(range(1000))  # 10 samples beyond index 989
    assert value == 989.0 and abs(q - 99.0) < 1e-9
    edges = M.window_edges(10.0, 4.0, k=2)
    assert edges.tolist() == [10.0, 12.0, 14.0]
    # window 0: 30 queries in 3 s busy; window 1: 10 queries in 0.5 s busy
    rates = M.busy_rates([10.1, 11.9, 12.5], [1.0, 2.0, 0.5], [10, 20, 10], edges)
    assert rates.tolist() == [10.0, 20.0]
    assert M.wall_rates([10.5, 11.0, 13.0], edges).tolist() == [1.0, 0.5]
    assert M.window_medians([10.5, 11.0, 11.5, 13.0], [1, 2, 9, 4], edges).tolist() == [2.0, 4.0]
    assert M.fold([1, 2, 3, 4, 5], 2).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    costs = np.arange(101.0)  # percentiles of 0..100 are themselves
    assert M.quiet(costs) == M.QUIET and M.quiet(costs, "higher") == 100.0 - M.QUIET
    assert M.spread([9, 10, 12]) == 0.3
    assert M.largest_deviation([9, 10, 12]) == 0.2
    filled = M.fill({"qps": 5.0}, M.END_TO_END)
    assert filled["qps"]["value"] == 5.0 and filled["setup_s"]["value"] == M.ABSENT
    try:
        M.fill({"no.such.metric": 1.0}, M.END_TO_END)
    except KeyError:
        pass
    else:
        raise AssertionError("an unregistered metric name was accepted")


def check_spans() -> None:
    from bench import trace
    from bench.trace import Tracer

    tracer = Tracer()
    # id, layer, t0, t1, c0, c1, parent, batch, queries, tag
    tracer.spans = [
        (1, "cache", 0.0, 10.0, 0.0, 10.0, 0, 1, 8, ""),
        (2, "shard", 1.0, 9.0, 1.0, 9.0, 1, 1, 8, ""),
        (3, "core", 2.0, 6.0, 0.0, 4.0, 2, 1, 4, ""),  # two pool threads,
        (4, "core", 3.0, 8.0, 0.0, 5.0, 2, 1, 4, ""),  # overlapping in time
    ]
    wall = trace.self_times(tracer.spans, "wall")
    assert wall == {"cache": 2.0, "shard": 2.0, "core": 9.0}, wall
    assert [sp[0] for sp in trace.roots(tracer.spans)] == [1]

    calls: List[str] = []

    class Layer:
        def execute(self, batch):
            calls.append("in")
            return len(batch)

    tracer.spans.clear()
    wrapped = tracer._wrap("cache", Layer.execute)
    assert wrapped(Layer(), [1, 2, 3]) == 3 and calls == ["in"]
    assert len(tracer.spans) == 1 and tracer.spans[0][1] == "cache"


def check_oracle() -> None:
    from bench.inprocess import Driver
    from bench.stacks import compose

    for name in (M.BATCH_COUNT, M.CHURN):
        w = _small(WORKLOADS[name])
        driver = Driver(w, seed=3)
        stack = compose(w, driver.collection)
        driver.stack = stack
        try:
            assert driver.run_units(3, sample=8) == 0
            assert driver.checked == 24 and driver.mismatched == 0, \
                f"{name}: a right answer was flagged"
            honest = stack.top.execute

            def lying(batch, **kwargs):
                result = honest(batch, **kwargs)
                counts = np.array(result.counts)
                counts[0] += 1
                if w.mode == "count":
                    return type(result)(counts)
                ids = [result.ids(i) for i in range(len(counts))]
                ids[0] = np.append(ids[0], -7)
                return type(result)(counts, ids)

            stack.top.execute = lying
            driver.run_units(1, sample=8)
            assert driver.mismatched == 1, f"{name}: a wrong answer was not caught"
        finally:
            stack.close()


def check_late_send() -> None:
    """One select() that oversleeps by 30 ms must show up as late sends."""
    from bench.stacks import compose, serve

    w = _small(WORKLOADS[M.SERVE])
    coll_seed, q_rng, _, _ = sub_seeds(4)
    served = serve(compose(w, make_collection(w, coll_seed)), w)
    driver = None
    real_select = select.select
    state = {"calls": 0}

    def oversleeping(r, w_, x, timeout=None):
        state["calls"] += 1
        if state["calls"] == 20:
            time.sleep(0.03)
        return real_select(r, w_, x, timeout)

    try:
        frames = loadgen.Frames(QueryStream(w, q_rng))
        driver = loadgen.Driver("127.0.0.1", served.port, 2, frames, sample_every=1)
        on_time = driver.open_loop(500, 0.4)
        assert on_time.failed == 0 and on_time.sent == 200
        loadgen.select.select = oversleeping
        late = driver.open_loop(500, 0.4)
    finally:
        loadgen.select.select = real_select
        if driver is not None:
            driver.close()
        served.close()
    assert late.failed == 0
    # The 30 ms sleep starts up to one send gap (2 ms) before the next due
    # time, and delays the ~15 sends that fall due while it lasts.
    assert max(late.lateness) >= 0.025 and late.late_share >= 10 / 200 > on_time.late_share, \
        "an oversleeping send loop was not counted as late"


def check_end_to_end() -> None:
    from bench import inprocess

    for name in M.IN_PROCESS:
        w = _small(WORKLOADS[name])
        for traced, registry in ((False, M.END_TO_END), (True, M.PER_LAYER)):
            report = inprocess.run(w, seed=2, seconds=1.0, traced=traced)
            assert report.failed == 0 and report.attempted > 0, f"{name}: failures"
            filled = M.fill(report.measured, registry)
            for metric in registry:
                measured = filled[metric.name]["value"] != M.ABSENT
                # Every metric registered for this workload must be measured
                # (a removed layer is the one legitimate reason not to).
                if name in metric.workloads and not measured:
                    raise AssertionError(f"{name}: {metric.name} was not measured")
                if name not in metric.workloads and measured:
                    raise AssertionError(f"{name}: {metric.name} is not registered for it")


def check_composition() -> None:
    """A deleted wrapper reads absent instead of failing the run, and a
    ``repro.build_stack`` composition root is preferred when one exists."""
    import repro
    from bench import inprocess, stacks

    w = _small(WORKLOADS[M.BATCH_COUNT])
    real_optional = stacks.optional
    gone = {"CachingExecutor", "PlannedExecutor"}
    stacks.optional = lambda module, name: None if name in gone else real_optional(module, name)
    try:
        report = inprocess.run(w, seed=2, seconds=0.5, traced=True)
    finally:
        stacks.optional = real_optional
    assert report.failed == 0
    filled = M.fill(report.measured, M.PER_LAYER)
    for name in ("cache.hit_rate", "cache.self_us_per_query", "planner.calibrate_s"):
        assert filled[name]["value"] == M.ABSENT, f"{name} measured without its layer"
    assert filled["engine.self_us_per_batch"]["value"] > 0

    coll_seed, *_ = sub_seeds(2)
    collection = make_collection(w, coll_seed)
    by_hand = stacks.compose(w, collection)
    calls = []

    def build_stack(coll, *, m, mode, shards, dynamic, cache_bytes):
        calls.append((m, mode, shards, dynamic, cache_bytes))
        return by_hand.top

    repro.build_stack = build_stack
    try:
        rooted = stacks.compose(w, collection)
    finally:
        del repro.build_stack
        by_hand.close()
    assert calls == [(w.m, w.mode, w.shards, w.dynamic, w.cache_bytes)]
    assert rooted.top is by_hand.top
    assert {k: type(v).__name__ for k, v in rooted.layers.items()} == {
        "cache": "CachingExecutor", "planner": "PlannedExecutor",
        "engine": "ExecutionEngine", "hint": "HintIndex",
    }


def check_processes() -> None:
    """An orphaned grandchild and a live resource tracker are both found,
    ended and waited for."""
    import subprocess
    import sys
    from multiprocessing import resource_tracker

    from bench import procs

    assert procs.adopt_orphans(), "prctl(PR_SET_CHILD_SUBREAPER) refused"
    # The child starts a sleeper that ignores SIGTERM, reports its pid and
    # exits at once: the sleeper's parent is gone before it is looked for.
    sleeper = "import signal,time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)"
    child = ("import subprocess,sys; print(subprocess.Popen("
             f"[sys.executable, '-c', {sleeper!r}], stdout=subprocess.DEVNULL).pid)")
    out = subprocess.run([sys.executable, "-c", child], stdout=subprocess.PIPE, text=True, check=True)
    orphan = int(out.stdout)
    resource_tracker.ensure_running()
    tracker = resource_tracker._resource_tracker._pid
    assert {orphan, tracker} <= procs.descendants()
    assert procs.stop_descendants(grace_s=0.2) >= 2
    assert not procs.descendants()
    for pid in (orphan, tracker):
        assert not os.path.exists(f"/proc/{pid}"), f"{pid} is still there"


CHECKS: List[Callable[[], None]] = [
    check_manifest, check_generators, check_statistics, check_spans,
    check_oracle, check_late_send, check_composition, check_processes,
    check_end_to_end,
]


def main() -> int:
    failed = 0
    t0 = time.perf_counter()
    for check in CHECKS:
        t = time.perf_counter()
        try:
            check()
            verdict = "ok"
        except Exception:
            traceback.print_exc()
            verdict = "FAILED"
            failed += 1
        print(f"{check.__name__:20s} {verdict}  ({time.perf_counter() - t:.1f} s)")
    print(f"selftest: {len(CHECKS) - failed}/{len(CHECKS)} passed in "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if failed else 0
