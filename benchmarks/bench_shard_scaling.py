"""Shard-count scaling of :class:`repro.shard.ShardedHint`.

Measures batch throughput of the sharded backend against a single
:class:`~repro.hint.HintIndex` evaluated with the same strategy, on the
repository's default synthetic workload (the paper's Table 3 defaults at
benchmark scale, exactly as in ``benchmarks/conftest.synthetic_setup``):
``domain = 128M``, ``alpha = 1.2``, ``sigma = 1M``, normalized to
``m = 17``, with data-following queries of 0.1% extent.

Run standalone to (re)record ``results/shard-scaling.csv``::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py

Each row records the median batch latency over ``--reps`` runs, the
derived queries/second, and the speedup against the single-index
baseline of the same mode.  Results are machine-dependent: the gains on
a single core come from the shallower, cache-resident per-shard
hierarchies (see ``docs/sharding.md``).  The sharded index runs its
shard jobs inline; ``--workers N`` (N > 1) measures it under an
:class:`~repro.engine.ExecutionEngine` ``threads`` backend instead.
"""

from __future__ import annotations

import argparse
import csv
import os
import pathlib
import sys
import time

DEFAULT_CARDINALITY = 150_000
DEFAULT_DOMAIN = 128_000_000
DEFAULT_ALPHA = 1.2
DEFAULT_SIGMA = 1_000_000
DEFAULT_M = 17
DEFAULT_QUERIES = 65_536
DEFAULT_EXTENT_PCT = 0.1
DEFAULT_KS = (1, 2, 4, 8, 16)
DEFAULT_REPS = 9

FIELDS = (
    "backend",
    "k",
    "boundaries",
    "strategy",
    "mode",
    "cardinality",
    "m",
    "queries",
    "extent_pct",
    "workers",
    "cpu_count",
    "median_ms",
    "throughput_qps",
    "speedup_vs_single",
)


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def run(args) -> list:
    import numpy as np  # noqa: F401  (keeps import errors early and obvious)

    from repro import HintIndex, run_strategy
    from repro.engine import ExecutionEngine
    from repro.shard import ShardedHint
    from repro.workloads import generate_synthetic
    from repro.workloads.queries import data_following_queries

    coll = generate_synthetic(
        args.cardinality, args.domain, args.alpha, args.sigma, seed=args.seed
    ).normalized(args.m)
    batch = data_following_queries(
        args.queries, coll, args.extent, domain=1 << args.m, seed=args.seed + 1
    )
    index = HintIndex(coll, m=args.m)
    cpus = os.cpu_count() or 1
    rows = []
    for mode in args.modes:
        t_single = _median_seconds(
            lambda: run_strategy(args.strategy, index, batch, mode=mode),
            args.reps,
        )
        base = {
            "strategy": args.strategy,
            "mode": mode,
            "cardinality": args.cardinality,
            "m": args.m,
            "queries": len(batch),
            "extent_pct": args.extent,
            "cpu_count": cpus,
        }
        rows.append(
            dict(
                base,
                backend="single",
                k="",
                boundaries="",
                workers="",
                median_ms=round(t_single * 1e3, 3),
                throughput_qps=round(len(batch) / t_single),
                speedup_vs_single=1.0,
            )
        )
        print(f"{mode:>9}: single-index {t_single * 1e3:8.1f} ms")
        for k in args.ks:
            sharded = ShardedHint(
                coll, k=k, m=args.m, boundaries=args.boundaries
            )
            workers = args.workers or 1
            engine = None
            target = sharded
            if workers > 1:
                target = engine = ExecutionEngine(
                    sharded, backend="threads", workers=workers
                )
            t = _median_seconds(
                lambda: target.execute(batch, strategy=args.strategy, mode=mode),
                args.reps,
            )
            speedup = t_single / t
            rows.append(
                dict(
                    base,
                    backend="sharded",
                    k=k,
                    boundaries=args.boundaries,
                    workers=workers,
                    median_ms=round(t * 1e3, 3),
                    throughput_qps=round(len(batch) / t),
                    speedup_vs_single=round(speedup, 3),
                )
            )
            print(
                f"{mode:>9}: k={k:<3} {t * 1e3:8.1f} ms   {speedup:5.2f}x "
                f"(shard m: {[s.index.m for s in sharded.shards]})"
            )
            if engine is not None:
                engine.close()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cardinality", type=int, default=DEFAULT_CARDINALITY)
    parser.add_argument("--domain", type=int, default=DEFAULT_DOMAIN)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    parser.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    parser.add_argument("--m", type=int, default=DEFAULT_M)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument(
        "--extent", type=float, default=DEFAULT_EXTENT_PCT,
        help="query extent as percent of the domain",
    )
    parser.add_argument(
        "--ks", type=int, nargs="+", default=list(DEFAULT_KS),
        help="shard counts to measure",
    )
    parser.add_argument("--boundaries", default="balanced",
                        choices=("equal", "balanced"))
    parser.add_argument("--strategy", default="partition-based")
    parser.add_argument("--modes", nargs="+", default=["count", "checksum"])
    parser.add_argument(
        "--workers", type=int, default=None,
        help="run the sharded side on an engine thread pool of this size "
        "(default: inline on the calling thread)",
    )
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "results"
            / "shard-scaling.csv"
        ),
    )
    args = parser.parse_args(argv)

    rows = run(args)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
