"""Adaptive planner vs every static plan — the planner's acceptance gate.

Sweeps four workload shapes on the repository's synthetic defaults
(scaled to bench size) and records ``results/planner.csv``: all-narrow
count and ids batches, all-wide count batches, and a mixed-extent ids
batch (7/8 narrow point lookups + 1/8 wide scans).  Each row gets a
fresh executor, which learns from its own first batches and settles.
Two gates, each within a noise margin:

* the settled plan, as timed in the sweep, against the best static plan
  of the sweep — the planner picked a best plan, judged on numbers
  taken before it ran anything;
* the adaptive executor against that best static plan, the two timed in
  alternation — it costs no more than running that plan (any gap is one
  decide() call).  Timed apart, the same plan reads up to 1.4x slower
  or faster a few seconds later on a shared 2-core host, whatever ran
  before it.

The adaptive leg runs under the observability plane; the
``repro_planner_cost_error`` histogram accumulated over the sweep is
written to ``results/planner-cost-error.csv`` (how far the kept
timings are from the batches that follow them, referenced from
``docs/planning.md``).

Run standalone to (re)record the CSVs::

    PYTHONPATH=src python benchmarks/bench_planner.py

Exits non-zero when a gate fails.  ``--quick`` shrinks the scenario for
CI smoke use; gates still apply.
"""

from __future__ import annotations

import argparse
import csv
import os
import pathlib
import sys
import time

DEFAULT_CARDINALITY = 100_000
DEFAULT_M = 16
DEFAULT_ALPHA = 1.8
DEFAULT_SEED = 7
DEFAULT_REPS = 5
DEFAULT_NOISE = 0.15

FIELDS = (
    "workload",
    "mode",
    "plan",
    "chosen",
    "queries",
    "median_ms",
    "best_static_ms",
    "alternated_best_ms",
    "gate",
    "cardinality",
    "m",
    "cpu_count",
)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] * 1e3


def _alternating_median_ms(fn_a, fn_b, reps: int):
    """Medians of *fn_a* and *fn_b* timed in turn, over 3 * *reps* rounds."""
    a, b = [], []
    for _ in range(3 * reps):
        a.append(_median_ms(fn_a, 1))
        b.append(_median_ms(fn_b, 1))
    return sorted(a)[len(a) // 2], sorted(b)[len(b) // 2]


def _workloads(rng, domain: int, scale: int):
    """(name, mode, batch) rows; *scale* divides query counts for --quick."""
    import numpy as np

    from repro.intervals.batch import QueryBatch

    narrow = max(domain // 10_000, 1)
    wide = domain // 20

    def uniform(n, extent):
        st = rng.integers(0, domain - extent - 1, n)
        return QueryBatch(st, st + extent)

    def mixed(n_narrow, n_wide, e_narrow, e_wide):
        st1 = rng.integers(0, domain - e_narrow - 1, n_narrow)
        st2 = rng.integers(0, domain - e_wide - 1, n_wide)
        st = np.concatenate([st1, st2])
        end = np.concatenate([st1 + e_narrow, st2 + e_wide])
        perm = rng.permutation(st.size)
        return QueryBatch(st[perm], end[perm])

    return [
        ("homogeneous-narrow", "count", uniform(2048 // scale, narrow)),
        ("homogeneous-narrow", "ids", uniform(2048 // scale, narrow)),
        ("homogeneous-wide", "count", uniform(2048 // scale, wide)),
        # 1/8 of the batch are 10%-of-domain scans.
        (
            "mixed-extent",
            "ids",
            mixed(7168 // scale, 1024 // scale, narrow, domain // 10),
        ),
    ]


def run(args) -> list:
    import numpy as np

    import repro.obs as obs
    from repro.engine import ExecutionEngine
    from repro.hint.index import HintIndex
    from repro.planner import PlannedExecutor
    from repro.planner.plan import BackendCaps, plan_space
    from repro.workloads import generate_synthetic

    scale = 4 if args.quick else 1
    cardinality = args.cardinality // scale
    domain = 1 << args.m
    coll = generate_synthetic(
        cardinality, domain, args.alpha, domain // 100, seed=args.seed
    ).normalized(args.m)
    index = HintIndex(coll, m=args.m)
    index.precompute_aux()
    rng = np.random.default_rng(args.seed + 4)

    engine = ExecutionEngine(index, backend="auto")
    statics = plan_space(BackendCaps.from_index(workers=engine.workers))

    obs.configure(enabled=True)
    rows = []
    failures = []
    for workload, mode, batch in _workloads(rng, domain, scale):
        static_ms = {}
        for plan in statics:
            fn = lambda p=plan: engine.execute(  # noqa: E731
                batch, strategy=p.strategy, mode=mode, backend=p.backend
            )
            fn()  # warm-up (first-call caches are not steady state)
            static_ms[plan.key(mode)] = _median_ms(fn, args.reps)
        best = min(statics, key=lambda p: static_ms[p.key(mode)])
        best_static = static_ms[best.key(mode)]

        # A fresh executor per row: its first batches are first-sight
        # ones, then it settles.
        adaptive = PlannedExecutor(index, engine=engine)
        for _ in range(2 * len(statics) + 1):
            adaptive.execute(batch, mode=mode)
            if adaptive.last_decision.source != "explore":
                break
        adaptive.execute(batch, mode=mode)  # the warm-up a static plan got
        settled_ms = static_ms[adaptive.last_decision.plan.key(mode)]
        adaptive_ms, alternated_best = _alternating_median_ms(
            lambda: adaptive.execute(batch, mode=mode),
            lambda: engine.execute(
                batch, strategy=best.strategy, mode=mode, backend=best.backend
            ),
            args.reps,
        )
        decision = adaptive.last_decision
        chosen = decision.describe() if decision is not None else "?"

        margin = 1.0 + args.noise
        ok = settled_ms <= best_static * margin and adaptive_ms <= alternated_best * margin
        gate = "settled-and-alternated-within-noise-of-best-static"
        status = "pass" if ok else "FAIL"
        if not ok:
            failures.append((workload, mode, adaptive_ms, alternated_best, static_ms))

        common = dict(
            workload=workload,
            mode=mode,
            queries=len(batch),
            best_static_ms=round(best_static, 3),
            cardinality=cardinality,
            m=args.m,
            cpu_count=os.cpu_count() or 1,
        )
        for key, ms in sorted(static_ms.items()):
            rows.append(
                dict(
                    common, plan=key, chosen="", median_ms=round(ms, 3),
                    alternated_best_ms="", gate="",
                )
            )
        rows.append(
            dict(
                common,
                plan="adaptive",
                chosen=chosen,
                median_ms=round(adaptive_ms, 3),
                alternated_best_ms=round(alternated_best, 3),
                gate=f"{gate}:{status}",
            )
        )
        print(
            f"{workload:20s} {mode:8s} settled {settled_ms:8.2f} ms vs best "
            f"static {best_static:8.2f} ms; alternated: adaptive "
            f"{adaptive_ms:8.2f} ms vs {alternated_best:8.2f} ms  [{status}]  {chosen}",
            flush=True,
        )

    _write_cost_error(args.cost_error_out)
    engine.close()
    obs.configure(enabled=False)

    if failures:
        for workload, mode, ms, alternated, static_ms in failures:
            print(
                f"GATE FAILED: {workload}/{mode}: adaptive {ms:.2f} ms vs "
                f"{alternated:.2f} alternated; sweep: "
                + ", ".join(f"{k}={v:.2f}" for k, v in sorted(static_ms.items())),
                file=sys.stderr,
            )
    return rows if not failures else None


def _write_cost_error(path: str) -> None:
    """Dump the accumulated cost-error histogram (docs/planning.md)."""
    import repro.obs as obs

    snap = obs.snapshot()
    for hist in snap["metrics"]["histograms"]:
        if hist["name"] != obs.PLANNER_COST_ERROR:
            continue
        bounds = [str(b) for b in hist["buckets"]] + ["+Inf"]
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("le", "count"))
            writer.writerows(zip(bounds, hist["counts"]))
            writer.writerow(("sum", hist["sum"]))
            writer.writerow(("count", hist["count"]))
        print(
            f"cost-error histogram ({hist['count']} observations) -> {path}",
            flush=True,
        )
        return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cardinality", type=int, default=DEFAULT_CARDINALITY)
    parser.add_argument("--m", type=int, default=DEFAULT_M)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument(
        "--noise",
        type=float,
        default=DEFAULT_NOISE,
        help="gate margin over the best static plan",
    )
    parser.add_argument("--out", default="results/planner.csv")
    parser.add_argument(
        "--cost-error-out", default="results/planner-cost-error.csv"
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down CI smoke variant"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    rows = run(args)
    if rows is None:
        return 1
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
