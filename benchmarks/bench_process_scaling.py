"""Backend scaling of :class:`repro.engine.ExecutionEngine`.

Sweeps the execution backends (``serial`` / ``threads`` / ``auto``)
over worker counts, strategies, and result modes on the repository's
default synthetic workload.

Run standalone to (re)record ``results/process-scaling.csv``::

    PYTHONPATH=src python benchmarks/bench_process_scaling.py

Each row records the median batch latency over ``--reps`` runs, the
derived queries/second, and the speedup against the serial baseline of
the same (strategy, mode).  Results are machine-dependent and honest:
the thread speedups need ``cpu_count`` > 1 (see
``docs/parallelism.md``).
"""

from __future__ import annotations

import argparse
import csv
import os
import pathlib
import sys
import time

DEFAULT_CARDINALITY = 60_000
DEFAULT_DOMAIN = 128_000_000
DEFAULT_ALPHA = 1.2
DEFAULT_SIGMA = 1_000_000
DEFAULT_M = 16
DEFAULT_QUERIES = 16_384
DEFAULT_EXTENT_PCT = 0.1
DEFAULT_WORKERS = (1, 2, 4, 8)
DEFAULT_REPS = 5
DEFAULT_STRATEGIES = ("partition-based", "query-based")
DEFAULT_MODES = ("count", "ids")

FIELDS = (
    "backend",
    "strategy",
    "mode",
    "workers",
    "cardinality",
    "m",
    "queries",
    "extent_pct",
    "cpu_count",
    "median_ms",
    "throughput_qps",
    "speedup_vs_serial",
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
    from repro import HintIndex
    from repro.engine import ExecutionEngine
    from repro.workloads import generate_synthetic
    from repro.workloads.queries import data_following_queries

    coll = generate_synthetic(
        args.cardinality, args.domain, args.alpha, args.sigma, seed=args.seed
    ).normalized(args.m)
    batch = data_following_queries(
        args.queries, coll, args.extent, domain=1 << args.m, seed=args.seed + 1
    )
    index = HintIndex(coll, m=args.m, precompute_aux=True)
    cpus = os.cpu_count() or 1
    print(f"cpu_count={cpus}")

    rows = []
    for strategy in args.strategies:
        for mode in args.modes:
            base = {
                "strategy": strategy,
                "mode": mode,
                "cardinality": args.cardinality,
                "m": args.m,
                "queries": len(batch),
                "extent_pct": args.extent,
                "cpu_count": cpus,
            }
            with ExecutionEngine(index, backend="serial") as engine:
                t_serial = _median_seconds(
                    lambda: engine.execute(batch, strategy=strategy, mode=mode),
                    args.reps,
                )
            rows.append(
                dict(
                    base,
                    backend="serial",
                    workers="",
                    median_ms=round(t_serial * 1e3, 3),
                    throughput_qps=round(len(batch) / t_serial),
                    speedup_vs_serial=1.0,
                )
            )
            print(f"{strategy:>17}/{mode:<8} serial        {t_serial * 1e3:8.1f} ms")
            for backend in ("threads", "auto"):
                for workers in args.workers:
                    if backend == "auto" and workers != args.workers[0]:
                        continue  # workerless backend; one row
                    with ExecutionEngine(
                        index, backend=backend, workers=workers
                    ) as engine:
                        t = _median_seconds(
                            lambda: engine.execute(
                                batch, strategy=strategy, mode=mode
                            ),
                            args.reps,
                        )
                    rows.append(
                        dict(
                            base,
                            backend=backend,
                            workers=workers,
                            median_ms=round(t * 1e3, 3),
                            throughput_qps=round(len(batch) / t),
                            speedup_vs_serial=round(t_serial / t, 3),
                        )
                    )
                    print(
                        f"{strategy:>17}/{mode:<8} {backend:<9} w={workers:<2} "
                        f"{t * 1e3:8.1f} ms   {t_serial / t:5.2f}x"
                    )
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
        "--workers", type=int, nargs="+", default=list(DEFAULT_WORKERS),
        help="worker counts to measure for the thread backends",
    )
    parser.add_argument(
        "--strategies", nargs="+", default=list(DEFAULT_STRATEGIES)
    )
    parser.add_argument("--modes", nargs="+", default=list(DEFAULT_MODES))
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sweep (CI smoke): one strategy/mode, workers 1 and 2",
    )
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "results"
            / "process-scaling.csv"
        ),
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.cardinality = min(args.cardinality, 20_000)
        args.m = min(args.m, 14)
        args.queries = min(args.queries, 4_096)
        args.workers = [1, 2]
        args.strategies = args.strategies[:1]
        args.modes = args.modes[:1]
        args.reps = min(args.reps, 3)

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
