"""Command-line interface for index building and batch querying.

Ties the file formats, the persistence layer and the batch strategies
together for shell use::

    # build an index from a text file of intervals and save it
    python -m repro.cli build data.txt index.npz --m 17

    # run a batch of queries (one "st end" per line) against it
    python -m repro.cli query index.npz queries.txt --strategy partition-based

    # describe a saved index
    python -m repro.cli info index.npz

    # replay a synthetic workload through the micro-batching service,
    # dumping the observability snapshot for later inspection
    python -m repro.cli serve-sim --queries 5000 --rate 20000 \\
        --max-batch 256 --metrics-json run.json

    # serve queries over TCP (length-prefixed binary protocol), then
    # offer bursty open-loop load against it from another shell
    python -m repro.cli serve --port 7433 --mode count --admit-rate 500
    python -m repro.cli serve-load --port 7433 --rate 2000 --duration 5

    # render an observability snapshot (live burst, or a saved dump)
    python -m repro.cli stats
    python -m repro.cli stats --input run.json --json

    # reconstruct distributed traces: list them, render one as a text
    # tree, or export Chrome-trace JSON for chrome://tracing / Perfetto
    python -m repro.cli trace --list
    python -m repro.cli trace --backend threads --chrome trace.json
    python -m repro.cli trace --input run.json --trace-id 0000000000abc123

    # live `top`-style dashboard (qps, per-layer p50/p99, cache, SLO)
    python -m repro.cli top --once
    python -m repro.cli top --input run.json --interval 1

    # run the structural invariant validators over synthetic workloads
    python -m repro.cli verify --cardinality 5000 --m 12

Interval files hold one ``st end`` or ``id st end`` record per line
(``#`` comments allowed); query files hold one ``st end`` per line.
Query output is one line per query: the count, or the sorted ids with
``--ids``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.strategies import STRATEGIES, run_strategy
from repro.engine import BACKENDS
from repro.hint.cost import choose_m_model
from repro.hint.index import HintIndex
from repro.hint.persist import load_index, save_index
from repro.intervals.batch import QueryBatch
from repro.intervals.io import load_intervals

__all__ = ["main"]


def _cmd_build(args) -> int:
    coll = load_intervals(args.intervals, delimiter=args.delimiter)
    print(f"loaded {len(coll):,} intervals from {args.intervals}")
    if args.m is not None:
        m = args.m
    else:
        m = choose_m_model(coll)
        print(f"cost model picked m = {m}")
    normalized = coll.normalized(m)
    if normalized != coll:
        print(
            f"normalized domain [{coll.stats().domain_start}, "
            f"{coll.stats().domain_end}] into [0, {(1 << m) - 1}]; "
            "queries must use the normalized domain"
        )
    t0 = time.perf_counter()
    index = HintIndex(normalized, m=m)
    print(
        f"built HINT(m={m}) in {time.perf_counter() - t0:.2f}s "
        f"({index.num_placements():,} placements, "
        f"{index.nbytes() / 1e6:.1f} MB)"
    )
    save_index(index, args.index)
    print(f"saved to {args.index}")
    return 0


def _cmd_query(args) -> int:
    index = load_index(args.index)
    data = np.loadtxt(args.queries, dtype=np.int64, comments="#", ndmin=2)
    if data.size == 0:
        print("no queries", file=sys.stderr)
        return 1
    if data.shape[1] != 2:
        print("query files need exactly two columns (st end)", file=sys.stderr)
        return 1
    batch = QueryBatch(data[:, 0], data[:, 1])
    mode = "ids" if args.ids else "count"
    t0 = time.perf_counter()
    result = run_strategy(args.strategy, index, batch, mode=mode)
    elapsed = time.perf_counter() - t0
    for pos in range(len(batch)):
        if args.ids:
            ids = np.sort(result.ids(pos))
            print(" ".join(str(int(v)) for v in ids))
        else:
            print(int(result.counts[pos]))
    print(
        f"# {len(batch)} queries via {args.strategy} in {elapsed * 1000:.1f} ms "
        f"({result.total()} total results)",
        file=sys.stderr,
    )
    return 0


def _cmd_serve_sim(args) -> int:
    """Replay a workload as a Poisson arrival stream through the service."""
    import repro.obs as obs
    from repro.service import QueueFullError
    from repro.workloads.queries import data_following_queries

    if args.metrics_json is not None:
        # The dump needs the plane live for the whole replay; the
        # ServiceMetrics adapter of the service then publishes into the
        # same process-wide registry the dump snapshots.
        obs.configure(enabled=True)
    index, coll = _serve_index(args)
    m = index.m
    domain = 1 << m
    if args.queries_file is not None:
        data = np.loadtxt(args.queries_file, dtype=np.int64, comments="#", ndmin=2)
        batch = QueryBatch(data[:, 0], data[:, 1])
    else:
        if coll is None:
            print(
                "--queries-file is required with a prebuilt --index",
                file=sys.stderr,
            )
            return 1
        batch = data_following_queries(
            args.queries, coll, args.extent, domain=domain, seed=args.seed + 1
        )
    print(
        f"serve-sim: {len(batch):,} queries at {args.rate:,.0f} q/s "
        f"(Poisson arrivals, seed {args.seed}) against HINT(m={m}), "
        f"strategy {args.strategy}, backend {args.backend or 'direct'}, "
        f"max_batch={args.max_batch}, max_delay_ms={args.max_delay_ms:g}, "
        f"backpressure={args.backpressure}"
    )
    if args.rate <= 0:
        print("--rate must be positive", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed + 2)
    offsets = np.cumsum(rng.exponential(1.0 / args.rate, size=len(batch)))
    service, engine = _build_serve_service(args, index)
    futures = []
    rejected = 0
    t0 = time.perf_counter()
    for (q_st, q_end), due in zip(batch, offsets):
        lag = due - (time.perf_counter() - t0)
        if lag > 0:
            time.sleep(lag)
        try:
            futures.append(service.submit(q_st, q_end))
        except QueueFullError:
            rejected += 1
    total = sum(f.result() for f in futures)
    service.close()
    if engine is not None:
        engine.close()
    elapsed = time.perf_counter() - t0
    snap = service.metrics.snapshot()
    print(snap.describe())
    print(
        f"replayed {len(futures):,} queries ({rejected:,} rejected) in "
        f"{elapsed:.2f}s -> {len(futures) / elapsed:,.0f} q/s, "
        f"{total:,} total results"
    )
    if args.metrics_json is not None:
        import json

        dump = obs.snapshot(
            meta={
                "source": "serve-sim",
                "strategy": args.strategy,
                "queries": len(futures),
                "rejected": rejected,
                "elapsed_s": elapsed,
            }
        )
        with open(args.metrics_json, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics snapshot written to {args.metrics_json}")
    return 0


def _serve_index(args):
    """The prebuilt ``--index`` or a synthetic one: ``(index, collection)``
    (no collection for a prebuilt index)."""
    from repro.workloads.synthetic import generate_synthetic

    if args.index is not None:
        return load_index(args.index), None
    coll = generate_synthetic(
        args.cardinality, args.domain, args.alpha, args.sigma, seed=args.seed
    ).normalized(args.m)
    return HintIndex(coll, m=args.m), coll


def _build_serve_service(args, index):
    """Optional engine backend + batching service over *index* from CLI
    args.

    Shared by ``serve``, ``serve-sim`` and the ``trace`` burst; returns
    ``(service, engine_or_None)``.  Parallel flushes come from the
    engine ``--backend`` installs — the service has no knob of its own.
    """
    from repro.service import BatchingQueryService

    engine = None
    backend = index
    if args.backend is not None:
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine(
            index, backend=args.backend, workers=args.workers
        )
        backend = engine
    service = BatchingQueryService(
        backend,
        strategy=args.strategy,
        mode=args.mode,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_queue=args.max_queue,
        backpressure=args.backpressure,
    )
    return service, engine


def _cmd_serve(args) -> int:
    """Run the TCP query server over a synthetic (or prebuilt) index."""
    import json

    import repro.obs as obs
    from repro.net import TenantAdmission, serve_in_thread

    if args.metrics_json is not None:
        obs.configure(enabled=True)
    service, engine = _build_serve_service(args, _serve_index(args)[0])
    admission = None
    if args.admit_rate is not None:
        admission = TenantAdmission(args.admit_rate, args.admit_burst)
    handle = serve_in_thread(
        service,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        backpressure=args.backpressure,
        admission=admission,
        owns_service=True,
    )
    # The smoke harness parses this line for the ephemeral port; keep
    # the format stable.
    print(f"serving on {handle.host}:{handle.port}", flush=True)
    print(
        f"  mode={service.mode} strategy={service.strategy} "
        f"backpressure={handle.server.backpressure} "
        f"max_inflight={handle.server.max_inflight} "
        f"admission={'on' if admission is not None else 'off'}",
        file=sys.stderr,
    )
    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("interrupted; draining", file=sys.stderr)
    finally:
        handle.close()
        if engine is not None:
            engine.close()
    print(service.metrics.snapshot().describe(), file=sys.stderr)
    if args.metrics_json is not None:
        dump = obs.snapshot(meta={"source": "serve"})
        with open(args.metrics_json, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"metrics snapshot written to {args.metrics_json}",
            file=sys.stderr,
        )
    return 0


def _cmd_serve_load(args) -> int:
    """Offer a bursty open-loop multi-tenant trace to a running server."""
    from repro.net import run_load, summarize
    from repro.workloads.arrivals import ArrivalSpec

    tenants = tuple(
        t.strip() for t in args.tenants.split(",") if t.strip()
    )
    spec = ArrivalSpec(
        duration=args.duration,
        rate=args.rate,
        burst_factor=args.burst_factor,
        burst_every=args.burst_every,
        burst_duration=args.burst_duration,
        tenants=tenants,
        domain=args.domain,
        extent=args.extent,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )
    print(
        f"serve-load: offering ~{args.rate:,.0f} q/s for "
        f"{args.duration:g}s (x{args.burst_factor:g} bursts every "
        f"{args.burst_every:g}s) to {args.host}:{args.port} from "
        f"{args.processes} process(es)",
        file=sys.stderr,
    )
    t0 = time.perf_counter()
    records = run_load(
        args.host, args.port, spec, processes=args.processes
    )
    elapsed = time.perf_counter() - t0
    summary = summarize(
        records,
        duration=args.duration,
        goodput_budget_ms=args.goodput_budget_ms,
    )
    print(summary.describe())
    if summary.unanswered:
        print(
            f"WARNING: {summary.unanswered} request(s) went unanswered",
            file=sys.stderr,
        )
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write("at_s,tenant,status,latency_ms\n")
            for r in sorted(records, key=lambda r: r.at):
                fh.write(
                    f"{r.at:.6f},{r.tenant},{r.status},"
                    f"{r.latency * 1000.0:.3f}\n"
                )
        print(f"per-request records written to {args.csv}", file=sys.stderr)
    print(f"wall time {elapsed:.2f}s", file=sys.stderr)
    return 0 if summary.unanswered == 0 else 1


def _run_live_burst(cardinality, m, queries, seed):
    """Enable the plane and run a short synthetic burst to populate it.

    All three strategies plus the execution engine run over one
    data-following batch (auto-policy pick and one forced backend per
    batch against the same index), so a live snapshot carries the
    ``repro_strategy_*`` and ``repro_engine_*`` series.  Returns
    ``(collection, batch)`` for the caller's meta block.
    """
    import repro.obs as obs
    from repro.engine import ExecutionEngine
    from repro.workloads.queries import data_following_queries
    from repro.workloads.synthetic import generate_synthetic

    obs.configure(enabled=True)
    domain = 1 << m
    coll = generate_synthetic(
        cardinality, domain, 1.2, domain / 20, seed=seed
    ).normalized(m)
    index = HintIndex(coll, m=m)
    batch = data_following_queries(
        queries, coll, 0.1, domain=domain, seed=seed + 1
    )
    for strategy in sorted(STRATEGIES):
        run_strategy(strategy, index, batch, mode="count")
    with ExecutionEngine(index) as engine:
        engine.execute(batch, mode="count")
        engine.execute(batch, mode="count", backend="serial")
        engine.execute(batch, mode="checksum", backend="threads")
    return coll, batch


def _cmd_stats(args) -> int:
    """Render an observability snapshot as table, JSON or Prometheus text.

    With ``--input`` the snapshot comes from a file previously written by
    ``serve-sim --metrics-json``; otherwise a short synthetic burst (all
    three strategies over a data-following batch) runs with the plane
    enabled and is snapshotted live.
    """
    import json

    import repro.obs as obs
    from repro.obs.export import render_table, to_prometheus

    if args.input is not None:
        with open(args.input) as fh:
            snap = json.load(fh)
    else:
        coll, batch = _run_live_burst(
            args.cardinality, args.m, args.queries, args.seed
        )
        snap = obs.snapshot(
            meta={
                "source": "stats-burst",
                "m": args.m,
                "cardinality": len(coll),
                "queries": len(batch),
            }
        )
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
    elif args.prometheus:
        print(to_prometheus(snap), end="")
    else:
        print(render_table(snap))
    return 0


def _snapshot_spans(path) -> list:
    """Span state dicts from a ``--metrics-json`` snapshot file.

    Merges the snapshot's recent ring and slow log (slow spans survive
    ring eviction), deduplicated by span id.
    """
    import json

    with open(path) as fh:
        snap = json.load(fh)
    section = snap.get("spans", {})
    states = list(section.get("recent", ()))
    seen = {s.get("span_id") for s in states}
    states.extend(
        s for s in section.get("slow", ()) if s.get("span_id") not in seen
    )
    return states


def _trace_burst(args) -> list:
    """Serve a short traced burst over a real socket; return span states.

    The full wire path runs — client-stamped trace context → protocol-v2
    QUERY frame → admission → service staging → flush → engine dispatch
    (onto the engine's pool threads with ``--backend threads``) — so the
    returned spans hold complete traces across every thread they touch.
    """
    import repro.obs as obs
    from repro.net import (
        QueryClient,
        TraceContext,
        new_trace_id,
        serve_in_thread,
    )

    ob = obs.configure(enabled=True)
    service, engine = _build_serve_service(args, _serve_index(args)[0])
    handle = serve_in_thread(service, owns_service=True)
    try:
        rng = np.random.default_rng(args.seed + 3)
        top = (1 << args.m) - 1
        with QueryClient(handle.host, handle.port) as client:
            for _ in range(args.requests):
                st = int(rng.integers(0, top))
                end = min(st + int(rng.integers(1, max(top // 64, 2))), top)
                client.query(st, end, trace=TraceContext(new_trace_id()))
    finally:
        handle.close()
        if engine is not None:
            engine.close()
    return [sp.state() for sp in ob.recorder.spans()]


def _cmd_trace(args) -> int:
    """List, render or export distributed traces.

    Spans come from a ``--metrics-json`` snapshot (``--input``) or from a
    live traced burst served over a real socket.  Default output is the
    parented text tree of one trace; ``--chrome`` writes Trace Event JSON
    for ``chrome://tracing`` / https://ui.perfetto.dev instead.
    """
    from repro.obs.chrome_trace import chrome_trace_json
    from repro.obs.tracecontext import (
        build_trace_tree,
        format_trace_id,
        list_traces,
        parse_trace_id,
        render_trace_tree,
    )

    if args.input is not None:
        states = _snapshot_spans(args.input)
    else:
        # Keep the synthetic workload consistent with the chosen m.
        args.domain = 1 << args.m
        args.sigma = args.domain / 20
        states = _trace_burst(args)
    if not states:
        print(
            "no spans retained (was the observability plane enabled "
            "while the snapshot was taken?)",
            file=sys.stderr,
        )
        return 1
    traces = list_traces(states)
    if not traces:
        print("no span carries a trace id", file=sys.stderr)
        return 1
    if args.list:
        print(f"{'trace':<16} {'spans':>5} {'ms':>9}  root")
        for t in traces:
            print(
                f"{t['trace']:<16} {t['spans']:>5} "
                f"{t['duration'] * 1000:>9.3f}  {t['root']}"
            )
        return 0
    if args.trace_id is not None:
        tid = parse_trace_id(args.trace_id)
    else:
        tid = max(traces, key=lambda t: t["spans"])["trace_id"]
    tree = build_trace_tree(states, tid)
    if tree is None:
        print(
            f"trace {format_trace_id(tid)} has no spans here "
            f"(see --list for {len(traces)} available)",
            file=sys.stderr,
        )
        return 1
    if args.chrome is not None:
        text = chrome_trace_json(
            states,
            trace_id=tid,
            indent=2,
            meta={"source": args.input or "trace-burst"},
        )
        with open(args.chrome, "w") as fh:
            fh.write(text + "\n")
        print(
            f"chrome trace for {format_trace_id(tid)} written to "
            f"{args.chrome} (load in chrome://tracing or ui.perfetto.dev)"
        )
        return 0
    print(f"trace {format_trace_id(tid)}")
    print(render_trace_tree(tree))
    return 0


def _cmd_top(args) -> int:
    """Live terminal dashboard over snapshots.

    With ``--input`` the snapshot file is re-read every tick, so a
    serving process that keeps rewriting its ``--metrics-json`` dump
    gets a live view; without it, one synthetic burst populates the
    in-process plane (mainly useful with ``--once``).
    """
    import json

    import repro.obs as obs
    from repro.obs.dashboard import run_top
    from repro.obs.slo import SLOTracker

    if args.input is not None:
        def fetch():
            with open(args.input) as fh:
                return json.load(fh)
    else:
        _run_live_burst(args.cardinality, args.m, args.queries, args.seed)
        SLOTracker().observe(obs.active())

        def fetch():
            return obs.snapshot(meta={"source": "top-burst"})

    iterations = 1 if args.once else args.iterations
    drawn = run_top(
        fetch,
        interval=args.interval,
        iterations=iterations,
        clear=not args.once,
    )
    return 0 if drawn else 1


def _cmd_verify(args) -> int:
    """Run the invariant validators over generated workloads; exit 0 iff clean."""
    from repro.grid.index import GridIndex
    from repro.hint.dynamic import DynamicHint
    from repro.intervals.collection import IntervalCollection
    from repro.verify.invariants import (
        InvariantViolation,
        verify_index,
        verify_same_tables,
    )
    from repro.workloads.synthetic import generate_synthetic

    m = args.m
    top = (1 << m) - 1
    failures = 0

    def run(name, build):
        nonlocal failures
        t0 = time.perf_counter()
        try:
            report = build()
        except InvariantViolation as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            return
        print(f"ok   {name}: {report} [{time.perf_counter() - t0:.2f}s]")

    # Workload 1: uniform random intervals over the whole domain.
    rng = np.random.default_rng(args.seed)
    st = rng.integers(0, top + 1, size=args.cardinality)
    end = np.minimum(
        st + rng.integers(0, max(top // 8, 1), size=args.cardinality), top
    )
    uniform = IntervalCollection(st, end)
    # Workload 2: the paper's skewed recipe (zipf lengths, normal centers).
    skewed = generate_synthetic(
        args.cardinality, top + 1, 1.2, (top + 1) / 20, seed=args.seed
    ).normalized(m)

    for wname, coll in (("uniform", uniform), ("skewed", skewed)):
        run(
            f"hint[{wname}]",
            lambda coll=coll: verify_index(HintIndex(coll, m=m), collection=coll),
        )
        run(
            f"hint-unoptimized[{wname}]",
            lambda coll=coll: verify_index(
                HintIndex(coll, m=m, storage_optimized=False), collection=coll
            ),
        )
        run(
            f"grid[{wname}]",
            lambda coll=coll: verify_index(
                GridIndex(coll, max(int(np.sqrt(len(coll))), 4)), collection=coll
            ),
        )

    # Workload 3: insert/delete/compact churn through the dynamic wrapper,
    # verified both mid-churn (buffer + tombstones populated) and after
    # compaction; after every merge the index must also equal a fresh
    # build of the same contents, table for table.
    def churn():
        crng = np.random.default_rng(args.seed + 1)
        dyn = DynamicHint(
            m=m, rebuild_threshold=max(args.cardinality // 8, 4)
        )

        def same_as_fresh():
            fresh = HintIndex(dyn.snapshot(), m=m)  # merges what is staged
            verify_same_tables(dyn.index, fresh)

        live = []
        for _ in range(args.cardinality):
            s = int(crng.integers(0, top + 1))
            e = int(min(s + crng.integers(0, max(top // 8, 1)), top))
            merges = dyn.rebuilds
            live.append(dyn.insert(s, e))
            if dyn.rebuilds != merges:
                same_as_fresh()
            if live and crng.random() < 0.3:
                victim = live.pop(int(crng.integers(0, len(live))))
                dyn.delete(victim)
        verify_index(dyn)
        dyn.compact()
        same_as_fresh()
        report = verify_index(dyn)
        report.notes.append(f"{dyn.rebuilds} merges matched a fresh build")
        return report

    run("dynamic[churn]", churn)

    total = 7
    print(f"verify: {total - failures}/{total} workload checks passed")
    return 1 if failures else 0


def _cmd_shard_sim(args) -> int:
    """Build single-index and sharded backends over the same synthetic
    workload, check they agree exactly, and report per-shard routing
    plus the observed speedup; exit 0 iff every mode agrees."""
    from repro.shard import ShardedHint
    from repro.workloads.queries import data_following_queries
    from repro.workloads.synthetic import generate_synthetic

    m = args.m
    domain = 1 << m
    coll = generate_synthetic(
        args.cardinality, domain, 1.2, domain / 20, seed=args.seed
    ).normalized(m)
    batch = data_following_queries(
        args.queries, coll, args.extent, domain=domain, seed=args.seed + 1
    )
    t0 = time.perf_counter()
    index = HintIndex(coll, m=m)
    t_single_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = ShardedHint(coll, k=args.k, m=m, boundaries=args.boundaries)
    t_shard_build = time.perf_counter() - t0
    executor = sharded
    engine = None
    if args.backend is not None:
        from repro.engine import ExecutionEngine

        engine = ExecutionEngine(
            sharded, backend=args.backend, workers=args.workers
        )
        executor = engine
    print(
        f"shard-sim: {len(coll):,} intervals (m={m}), {len(batch):,} "
        f"queries, k={args.k} ({args.boundaries} cuts), "
        f"strategy {args.strategy}, "
        f"backend {args.backend or 'direct (shards inline on this thread)'}"
    )
    print(
        f"build: single {t_single_build:.2f}s, sharded {t_shard_build:.2f}s "
        f"({sharded.num_replicas():,} boundary replicas, "
        f"replication x{sharded.replication_factor():.2f})"
    )
    print("routing:  shard  range                 originals  replicas")
    for j, (orig, reps) in sorted(sharded.shard_histogram().items()):
        lo, hi = int(sharded.cuts[j]), int(sharded.cuts[j + 1]) - 1
        print(f"          {j:>5}  [{lo:>9,}, {hi:>9,}]  {orig:>9,}  {reps:>8,}")

    failures = 0
    for mode in ("count", "checksum", "ids"):
        want = run_strategy(args.strategy, index, batch, mode=mode)
        got = executor.execute(batch, strategy=args.strategy, mode=mode)
        ok = got == want
        failures += 0 if ok else 1
        print(f"differential[{mode}]: {'exact' if ok else 'MISMATCH'}")

    best_single = min(
        _timed(run_strategy, args.strategy, index, batch, mode=args.mode)
        for _ in range(args.repeat)
    )
    best_sharded = min(
        _timed(executor.execute, batch, strategy=args.strategy, mode=args.mode)
        for _ in range(args.repeat)
    )
    print(
        f"latency ({args.mode}, best of {args.repeat}): single "
        f"{best_single * 1000:.1f} ms, sharded {best_sharded * 1000:.1f} ms "
        f"-> {best_single / best_sharded:.2f}x"
    )
    if engine is not None:
        engine.close()
    return 1 if failures else 0


def _cmd_cache_sim(args) -> int:
    """Replay a skewed query stream uncached and through the caching
    executor, check every batch agrees exactly in every mode (count and
    checksum must pass through without touching the cache), and report
    the ids stream's hit rate and speedup; exit 0 iff all modes agree."""
    from repro.cache import CachingExecutor
    from repro.workloads.queries import zipfian_queries
    from repro.workloads.synthetic import generate_synthetic

    m = args.m
    domain = 1 << m
    coll = generate_synthetic(
        args.cardinality, domain, 1.2, domain / 20, seed=args.seed
    ).normalized(m)
    index = HintIndex(coll, m=m)
    total = args.batches * args.batch
    stream = zipfian_queries(
        total,
        domain,
        args.extent,
        s=args.skew,
        universe=args.universe,
        seed=args.seed + 1,
    )
    batches = [
        QueryBatch(
            stream.st[i * args.batch : (i + 1) * args.batch],
            stream.end[i * args.batch : (i + 1) * args.batch],
        )
        for i in range(args.batches)
    ]
    print(
        f"cache-sim: {len(coll):,} intervals (m={m}), {total:,} queries "
        f"in {args.batches} batches, zipf s={args.skew:g} over "
        f"{args.universe:,} templates, strategy {args.strategy}"
    )

    failures = 0
    cached = CachingExecutor(index, max_bytes=args.max_bytes)
    for mode in ("count", "checksum", "ids"):
        before = cached.stats()
        ok = all(
            cached.execute(b, strategy=args.strategy, mode=mode)
            == run_strategy(args.strategy, index, b, mode=mode)
            for b in batches
        )
        verdict = "exact" if ok else "MISMATCH"
        if mode != "ids":
            through = cached.stats() == before
            ok = ok and through
            verdict += ", passed through" if through else ", CACHED"
        failures += 0 if ok else 1
        print(f"differential[{mode}]: {verdict}")

    t_un = min(
        _timed(
            lambda: [
                run_strategy(args.strategy, index, b, mode="ids")
                for b in batches
            ]
        )
        for _ in range(args.repeat)
    )
    timings = []
    stats = None
    for _ in range(args.repeat):
        fresh = CachingExecutor(index, max_bytes=args.max_bytes)
        timings.append(
            _timed(
                lambda: [
                    fresh.execute(b, strategy=args.strategy, mode="ids")
                    for b in batches
                ]
            )
        )
        stats = fresh.stats()
    t_c = min(timings)
    print(
        f"stream (ids, best of {args.repeat}): uncached "
        f"{t_un * 1000:.1f} ms, cached {t_c * 1000:.1f} ms "
        f"-> {t_un / t_c:.2f}x"
    )
    print(
        f"cache: hit rate {stats.hit_rate:.2f} "
        f"({stats.hits:,} hits / {stats.misses:,} misses), "
        f"{stats.entries:,} entries, {stats.bytes_resident / 1e6:.1f} MB "
        f"resident, {stats.evictions:,} evictions"
    )
    return 1 if failures else 0


def _cmd_plan_sim(args) -> int:
    """Let a fresh adaptive planner learn a synthetic index from its own
    batches — one narrow and one wide batch shape — and print, per shape,
    the plans it timed (kept timing vs a forced re-timing), the plan it
    settled on, and a differential check of every adaptive answer
    against the interpreter; exit 0 iff all checks agree."""
    import numpy as np

    from repro.planner import PlannedExecutor, plan_space
    from repro.workloads.synthetic import generate_synthetic

    m = args.m
    domain = 1 << m
    coll = generate_synthetic(
        args.cardinality, domain, 1.8, domain / 100, seed=args.seed
    ).normalized(m)
    index = HintIndex(coll, m=m)
    index.precompute_aux()
    rng = np.random.default_rng(args.seed + 1)
    failures = 0
    for name, extent in (
        ("narrow", max(int(domain * 1e-4), 1)),
        ("wide", max(int(domain * 0.05), 2)),
    ):
        st = rng.integers(0, domain - extent - 1, size=args.batch)
        batch = QueryBatch(st, st + extent)
        # One executor per shape: a settled plan is per batch size, and
        # both shapes have the same size.
        px = PlannedExecutor(index)
        plans = len(plan_space(px.planner.caps))
        for _ in range(2 * plans + 1):  # first-sight batches, then settled
            got = px.execute(batch, mode=args.mode)
            if px.last_decision.source != "explore":
                break
        chosen = px.last_decision
        print(f"\n[{name}] {len(batch):,} queries, {plans} legal plans, mode {args.mode}")
        print("  plan                                     kept         observed")
        for key, kept in chosen.table[: args.top]:
            strategy, backend, _ = key.split("|")
            t = min(
                _timed(px.execute, batch, strategy=strategy, mode=args.mode,
                       backend=backend)
                for _ in range(args.repeat)
            )
            print(
                f"  {strategy + ' on ' + backend:<40}"
                f" {kept * 1e3:>8.3f}ms {t * 1e3:>9.3f}ms"
            )
        t_adaptive = min(
            _timed(px.execute, batch, mode=args.mode) for _ in range(args.repeat)
        )
        print(
            f"  settled: {chosen.describe()} -> observed {t_adaptive * 1e3:.3f}ms "
            f"({px.planner.stats()['explorations']} first-sight batches)"
        )
        want = run_strategy("partition-based", index, batch, mode=args.mode)
        ok = got == want and px.execute(batch, mode=args.mode) == want
        failures += 0 if ok else 1
        print(f"  differential: {'exact' if ok else 'MISMATCH'}")
        px.close()
    return 1 if failures else 0


def _timed(fn, *fn_args, **fn_kwargs) -> float:
    t0 = time.perf_counter()
    fn(*fn_args, **fn_kwargs)
    return time.perf_counter() - t0


def _cmd_info(args) -> int:
    index = load_index(args.index)
    print(f"HINT index: m={index.m}, levels={index.m + 1}")
    print(f"intervals: {index.num_intervals:,}")
    print(f"placements: {index.num_placements():,} "
          f"(replication x{index.replication_factor():.2f})")
    print(f"memory: {index.nbytes() / 1e6:.1f} MB")
    print("per-level placements:")
    for level, count in index.level_histogram().items():
        if count:
            print(f"  level {level:>2}: {count:,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Build, inspect and query HINT indexes from the shell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a text file")
    p_build.add_argument("intervals", help="input intervals file")
    p_build.add_argument("index", help="output .npz index path")
    p_build.add_argument("--m", type=int, default=None, help="HINT parameter")
    p_build.add_argument(
        "--delimiter", default=None, help="field separator (default whitespace)"
    )
    p_build.set_defaults(fn=_cmd_build)

    p_query = sub.add_parser("query", help="run a query batch from a file")
    p_query.add_argument("index", help=".npz index path")
    p_query.add_argument("queries", help="query file (st end per line)")
    p_query.add_argument(
        "--strategy",
        default="partition-based",
        choices=sorted(STRATEGIES),
    )
    p_query.add_argument(
        "--ids", action="store_true", help="print result ids, not counts"
    )
    p_query.set_defaults(fn=_cmd_query)

    p_info = sub.add_parser("info", help="describe a saved index")
    p_info.add_argument("index", help=".npz index path")
    p_info.set_defaults(fn=_cmd_info)

    p_sim = sub.add_parser(
        "serve-sim",
        help="replay a workload as a Poisson stream through the "
        "micro-batching service",
    )
    p_sim.add_argument(
        "--index", default=None, help="prebuilt .npz index (default: synthetic)"
    )
    p_sim.add_argument(
        "--queries-file",
        default=None,
        help="query file (st end per line; default: data-following queries)",
    )
    p_sim.add_argument(
        "--cardinality", type=int, default=100_000, help="synthetic intervals"
    )
    p_sim.add_argument(
        "--domain", type=int, default=1_000_000, help="synthetic domain length"
    )
    p_sim.add_argument("--alpha", type=float, default=1.2)
    p_sim.add_argument("--sigma", type=float, default=10_000.0)
    p_sim.add_argument("--m", type=int, default=16, help="HINT parameter")
    p_sim.add_argument(
        "--queries", type=int, default=5_000, help="number of replayed queries"
    )
    p_sim.add_argument(
        "--extent", type=float, default=0.1, help="query extent (%% of domain)"
    )
    p_sim.add_argument(
        "--rate", type=float, default=20_000.0, help="mean arrival rate (q/s)"
    )
    p_sim.add_argument("--strategy", default="partition-based",
                       choices=sorted(STRATEGIES))
    p_sim.add_argument("--max-batch", type=int, default=256)
    p_sim.add_argument("--max-delay-ms", type=float, default=5.0)
    p_sim.add_argument("--max-queue", type=int, default=8192)
    p_sim.add_argument("--backpressure", default="block",
                       choices=("block", "reject"))
    p_sim.add_argument(
        "--workers",
        type=int,
        default=None,
        help="engine worker threads with --backend (default: cpu count)",
    )
    p_sim.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="wrap the index in an ExecutionEngine with this backend "
        "(default: install the index directly)",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="enable the observability plane for the replay and write its "
        "JSON snapshot here (readable by `stats --input`)",
    )
    p_sim.set_defaults(fn=_cmd_serve_sim, mode="count")

    p_srv = sub.add_parser(
        "serve",
        help="serve queries over TCP (length-prefixed binary protocol) "
        "through the micro-batching service",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is printed)",
    )
    p_srv.add_argument(
        "--index", default=None, help="prebuilt .npz index (default: synthetic)"
    )
    p_srv.add_argument(
        "--cardinality", type=int, default=100_000, help="synthetic intervals"
    )
    p_srv.add_argument(
        "--domain", type=int, default=1_000_000, help="synthetic domain length"
    )
    p_srv.add_argument("--alpha", type=float, default=1.2)
    p_srv.add_argument("--sigma", type=float, default=10_000.0)
    p_srv.add_argument("--m", type=int, default=16, help="HINT parameter")
    p_srv.add_argument("--mode", default="count",
                       choices=("count", "checksum", "ids"))
    p_srv.add_argument("--strategy", default="partition-based",
                       choices=sorted(STRATEGIES))
    p_srv.add_argument("--max-batch", type=int, default=256)
    p_srv.add_argument("--max-delay-ms", type=float, default=5.0)
    p_srv.add_argument("--max-queue", type=int, default=8192)
    p_srv.add_argument("--backpressure", default="block",
                       choices=("block", "reject"))
    p_srv.add_argument(
        "--workers", type=int, default=None,
        help="engine worker threads with --backend",
    )
    p_srv.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="wrap the index in an ExecutionEngine with this backend",
    )
    p_srv.add_argument(
        "--max-inflight", type=int, default=1024,
        help="global in-flight quota (clamped to --max-queue)",
    )
    p_srv.add_argument(
        "--admit-rate", type=float, default=None,
        help="per-tenant token-bucket refill rate, q/s (default: no "
        "admission control)",
    )
    p_srv.add_argument(
        "--admit-burst", type=float, default=64.0,
        help="per-tenant token-bucket capacity",
    )
    p_srv.add_argument(
        "--duration", type=float, default=0.0,
        help="serve for this many seconds then drain (0 = until Ctrl-C)",
    )
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="enable the observability plane and write its JSON snapshot "
        "here on exit",
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_load = sub.add_parser(
        "serve-load",
        help="offer a bursty open-loop multi-tenant trace to a running "
        "`serve` instance",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True)
    p_load.add_argument(
        "--duration", type=float, default=5.0, help="trace length, seconds"
    )
    p_load.add_argument(
        "--rate", type=float, default=500.0, help="baseline offered q/s"
    )
    p_load.add_argument(
        "--burst-factor", type=float, default=6.0,
        help="rate multiplier inside burst windows",
    )
    p_load.add_argument("--burst-every", type=float, default=2.0)
    p_load.add_argument("--burst-duration", type=float, default=0.5)
    p_load.add_argument(
        "--tenants", default="alpha,beta,gamma",
        help="comma-separated tenant ids",
    )
    p_load.add_argument(
        "--domain", type=int, default=1 << 16,
        help="query positions drawn in [0, domain]",
    )
    p_load.add_argument(
        "--extent", type=int, default=1024, help="max query extent"
    )
    p_load.add_argument(
        "--deadline-ms", type=int, default=0,
        help="propagated client deadline per query (0 = none)",
    )
    p_load.add_argument(
        "--goodput-budget-ms", type=float, default=None,
        help="client-side latency budget an answer must beat to count "
        "as goodput (default: every ok counts)",
    )
    p_load.add_argument(
        "--processes", type=int, default=2,
        help="load generator worker processes",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write per-request records (at,tenant,status,latency) here",
    )
    p_load.set_defaults(fn=_cmd_serve_load)

    p_stats = sub.add_parser(
        "stats",
        help="render an observability snapshot (live synthetic burst, or "
        "a --metrics-json dump) as table, JSON or Prometheus text",
    )
    p_stats.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="snapshot JSON written by `serve-sim --metrics-json` "
        "(default: run a short live burst)",
    )
    fmt = p_stats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit snapshot JSON")
    fmt.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format",
    )
    p_stats.add_argument(
        "--cardinality", type=int, default=20_000, help="burst intervals"
    )
    p_stats.add_argument("--m", type=int, default=12, help="burst HINT parameter")
    p_stats.add_argument(
        "--queries", type=int, default=2_000, help="burst batch size"
    )
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.set_defaults(fn=_cmd_stats)

    p_trace = sub.add_parser(
        "trace",
        help="reconstruct distributed traces (text tree or Chrome-trace "
        "JSON) from a snapshot dump or a live traced burst",
    )
    p_trace.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="snapshot JSON written by `serve --metrics-json` / "
        "`serve-sim --metrics-json` (default: serve a short traced "
        "burst over a local socket)",
    )
    p_trace.add_argument(
        "--list",
        action="store_true",
        help="list the traces present instead of rendering one",
    )
    p_trace.add_argument(
        "--trace-id",
        default=None,
        metavar="HEX",
        help="trace to render (default: the one with the most spans)",
    )
    p_trace.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="write Chrome-trace JSON (chrome://tracing, ui.perfetto.dev) "
        "instead of a text tree",
    )
    p_trace.add_argument(
        "--requests", type=int, default=8, help="burst request count"
    )
    p_trace.add_argument(
        "--cardinality", type=int, default=20_000, help="burst intervals"
    )
    p_trace.add_argument("--m", type=int, default=12, help="burst HINT parameter")
    p_trace.add_argument(
        "--backend",
        default="threads",
        choices=BACKENDS,
        help="engine backend of the burst (threads puts spans on the "
        "engine's pool threads)",
    )
    p_trace.add_argument("--workers", type=int, default=2)
    p_trace.add_argument("--seed", type=int, default=0)
    # The burst reuses _serve_index/_build_serve_service; pin the knobs
    # they expect but that make no sense to expose here.
    p_trace.set_defaults(
        fn=_cmd_trace,
        index=None,
        domain=1 << 12,
        alpha=1.2,
        sigma=200.0,
        mode="count",
        strategy="partition-based",
        max_batch=256,
        max_delay_ms=2.0,
        max_queue=8192,
        backpressure="block",
    )

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard (qps, per-layer p50/p99, cache hit "
        "rate, SLO burn) over a snapshot file or a live burst",
    )
    p_top.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="snapshot JSON re-read every tick (point it at a file a "
        "serving process keeps rewriting); default: one live synthetic "
        "burst",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period, seconds"
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="frames to draw (default: until Ctrl-C)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="draw a single frame without clearing the screen and exit",
    )
    p_top.add_argument(
        "--cardinality", type=int, default=20_000, help="burst intervals"
    )
    p_top.add_argument("--m", type=int, default=12, help="burst HINT parameter")
    p_top.add_argument(
        "--queries", type=int, default=2_000, help="burst batch size"
    )
    p_top.add_argument("--seed", type=int, default=0)
    p_top.set_defaults(fn=_cmd_top)

    p_shard = sub.add_parser(
        "shard-sim",
        help="differential + latency comparison of the sharded backend "
        "against a single index over a synthetic workload",
    )
    p_shard.add_argument("--k", type=int, default=4, help="number of shards")
    p_shard.add_argument(
        "--boundaries",
        default="equal",
        choices=("equal", "balanced"),
        help="cut policy: equal-width or start-quantile balanced",
    )
    p_shard.add_argument(
        "--cardinality", type=int, default=100_000, help="synthetic intervals"
    )
    p_shard.add_argument("--m", type=int, default=16, help="HINT parameter")
    p_shard.add_argument(
        "--queries", type=int, default=10_000, help="batch size"
    )
    p_shard.add_argument(
        "--extent", type=float, default=0.1, help="query extent (%% of domain)"
    )
    p_shard.add_argument(
        "--strategy", default="partition-based", choices=sorted(STRATEGIES)
    )
    p_shard.add_argument(
        "--mode",
        default="count",
        choices=("count", "checksum", "ids"),
        help="result mode of the timed runs",
    )
    p_shard.add_argument(
        "--workers", type=int, default=None,
        help="engine worker count with --backend",
    )
    p_shard.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    p_shard.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="run the sharded side through an ExecutionEngine with this "
        "backend (default: the bare index, shards inline)",
    )
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.set_defaults(fn=_cmd_shard_sim)

    p_cache = sub.add_parser(
        "cache-sim",
        help="differential + hit-rate/speedup report of the caching "
        "executor over a skewed ids query stream",
    )
    p_cache.add_argument(
        "--cardinality", type=int, default=100_000, help="synthetic intervals"
    )
    p_cache.add_argument("--m", type=int, default=16, help="HINT parameter")
    p_cache.add_argument("--batch", type=int, default=1_024, help="batch size")
    p_cache.add_argument(
        "--batches", type=int, default=8, help="batches in the stream"
    )
    p_cache.add_argument(
        "--skew", type=float, default=1.0, help="zipf skew s of the stream"
    )
    p_cache.add_argument(
        "--universe",
        type=int,
        default=4_096,
        help="distinct query templates in the stream",
    )
    p_cache.add_argument(
        "--extent", type=float, default=0.1, help="query extent (%% of domain)"
    )
    p_cache.add_argument(
        "--strategy", default="partition-based", choices=sorted(STRATEGIES)
    )
    p_cache.add_argument(
        "--max-bytes",
        type=int,
        default=64 << 20,
        help="result-tier residency budget",
    )
    p_cache.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    p_cache.add_argument("--seed", type=int, default=0)
    p_cache.set_defaults(fn=_cmd_cache_sim)

    p_plan = sub.add_parser(
        "plan-sim",
        help="let the adaptive planner learn from its own batches and "
        "print the plans it timed and the plan it settled on, for a "
        "narrow and a wide batch shape",
    )
    p_plan.add_argument(
        "--cardinality", type=int, default=50_000, help="synthetic intervals"
    )
    p_plan.add_argument("--m", type=int, default=14, help="HINT parameter")
    p_plan.add_argument("--batch", type=int, default=2_048, help="batch size")
    p_plan.add_argument(
        "--mode",
        default="count",
        choices=("count", "checksum", "ids"),
        help="result mode of the planned runs",
    )
    p_plan.add_argument(
        "--top", type=int, default=8, help="rows of the decision table"
    )
    p_plan.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions (best-of)"
    )
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.set_defaults(fn=_cmd_plan_sim)

    p_verify = sub.add_parser(
        "verify",
        help="run the structural invariant validators over synthetic "
        "workloads (static, unoptimized, grid, dynamic churn)",
    )
    p_verify.add_argument(
        "--cardinality", type=int, default=5_000, help="intervals per workload"
    )
    p_verify.add_argument("--m", type=int, default=12, help="HINT parameter")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
