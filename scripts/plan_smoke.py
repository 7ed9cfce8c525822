"""Planner smoke: learn from batches, settle, differential, fault leg.

The tier-1 ``make plan-smoke`` gate (see docs/planning.md).  Asserts, on
a small synthetic index:

1. a fresh executor probes nothing and writes nothing at start-up, and
   settles after at most two first-sight batches per legal plan;
2. the planner-chosen plan is result-identical to every static plan,
   across strategies and result modes, on a single and a sharded index,
   through the first-sight batches and after settling;
3. a planner that throws mid-decide degrades to the static policy with
   the batch intact (the ``planner.decide`` fault site);
4. on a 17-bit, 50k-interval index, after 16 batches of 4,096 count
   queries the planner has settled on a plan within 1.25x of the
   fastest forced ``(strategy, backend)`` on 8 fresh batches — two
   fresh executors alike.

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro.obs as obs  # noqa: E402
from repro.core.strategies import run_strategy  # noqa: E402
from repro.hint.index import HintIndex  # noqa: E402
from repro.intervals.batch import QueryBatch  # noqa: E402
from repro.planner import PlannedExecutor, plan_space  # noqa: E402
from repro.shard import ShardedHint  # noqa: E402
from repro.verify.faults import SITE_PLANNER_DECIDE, FaultPlan  # noqa: E402
from repro.workloads import generate_synthetic  # noqa: E402

M = 12
DOMAIN = 1 << M
CARDINALITY = 5_000
MODES = ("count", "checksum", "ids")
STRATS = ("partition-based", "join-based", "level-based")


def fail(msg: str) -> None:
    print(f"plan-smoke: FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def mixed_batch(rng, n: int = 1536) -> QueryBatch:
    narrow, wide = max(DOMAIN // 5000, 1), DOMAIN // 16
    n_wide = n // 8
    st1 = rng.integers(0, DOMAIN - narrow - 1, n - n_wide)
    st2 = rng.integers(0, DOMAIN - wide - 1, n_wide)
    st = np.concatenate([st1, st2])
    end = np.concatenate([st1 + narrow, st2 + wide])
    perm = rng.permutation(st.size)
    return QueryBatch(st[perm], end[perm])


def settled_plan_leg() -> None:
    """The plan a fresh planner settles on is (nearly) the fastest one."""
    m, n, tolerance = 17, 4096, 1.25
    domain = 1 << m
    coll = generate_synthetic(50_000, domain, 1.8, domain / 100, seed=5).normalized(m)
    index = HintIndex(coll, m=m)
    rng = np.random.default_rng(5)

    def batches(count):
        for _ in range(count):
            st = rng.integers(0, domain - domain // 500, size=n)
            yield QueryBatch(st, st + rng.integers(1, domain // 1000, size=n))

    settled = []
    for run in (1, 2):
        px = PlannedExecutor(index)
        for batch in batches(16):
            px.execute(batch, mode="count")
        decision = px.last_decision
        if decision is None or decision.source != "model":
            fail(f"executor {run}: not settled after 16 batches ({decision})")
        settled.append((px, decision.plan))

    # One table of forced timings, best of three passes over the same
    # fresh batches, so every plan meets the same queries and noise.
    px = settled[0][0]
    fresh = list(batches(8))
    cost = {}
    for _ in range(3):
        for plan in plan_space(px.planner.caps):
            t0 = time.perf_counter()
            for batch in fresh:
                px.execute(
                    batch, strategy=plan.strategy, mode="count", backend=plan.backend
                )
            dt = time.perf_counter() - t0
            cost[plan] = min(cost.get(plan, dt), dt)
    fastest = min(cost, key=cost.get)
    for run, (executor, plan) in enumerate(settled, 1):
        print(
            f"executor {run}: settled on {plan.describe()} at "
            f"{cost[plan] / len(fresh) * 1e3:.2f} ms/batch (fastest forced: "
            f"{fastest.describe()} at {cost[fastest] / len(fresh) * 1e3:.2f})"
        )
        if cost[plan] > tolerance * cost[fastest]:
            fail(f"executor {run}: settled plan is over {tolerance}x the fastest")
        executor.close()
    a, b = (cost[plan] for _, plan in settled)
    if max(a, b) > tolerance * min(a, b):
        fail("two fresh executors settled on plans over 1.25x apart")
    print("settled plan ok (within 1.25x of the fastest, both executors)")


def main() -> int:
    rng = np.random.default_rng(3)
    coll = generate_synthetic(
        CARDINALITY, DOMAIN, 1.8, DOMAIN / 100, seed=3
    ).normalized(M)
    index = HintIndex(coll, m=M)
    index.precompute_aux()
    batch = mixed_batch(rng)

    # -- 1. nothing at start-up; settles from its own batches ----------- #
    cwd = os.getcwd()
    os.chdir(tempfile.mkdtemp(prefix="plan-smoke-"))
    try:
        t0 = time.perf_counter()
        px = PlannedExecutor(index)
        started = time.perf_counter() - t0
        if px.planner.model.keys() or os.listdir("."):
            fail("the executor timed or wrote something before its first batch")
    finally:
        os.chdir(cwd)
    plans = len(plan_space(px.planner.caps))
    print(f"start-up {started * 1e3:.2f} ms, {plans} legal plans, nothing timed")

    # -- 2. differential: planner == every static plan ----------------- #
    for mode in MODES:
        wants = [run_strategy(s, index, batch, mode=mode) for s in STRATS]
        for _ in range(2 * plans + 1):
            got = px.execute(batch, mode=mode)
            if any(got != want for want in wants):
                fail(f"{px.last_decision.describe()} result != static [{mode}]")
        if px.last_decision.source != "model":
            fail(f"[{mode}] not settled after {2 * plans} first-sight batches")
        print(f"[{mode}] settled on {px.last_decision.describe()}")
    sharded = ShardedHint(coll, k=2, m=M)
    pxs = PlannedExecutor(sharded)
    for mode in MODES:
        want = run_strategy("partition-based", index, batch, mode=mode)
        for _ in range(2 * plans + 1):
            if pxs.execute(batch, mode=mode) != want:
                fail(f"planner result mismatch [{mode}] on ShardedHint")
    pxs.close()
    px.close()
    print("differential sweep ok (single + sharded, all modes, every plan)")

    # -- 3. fault leg: a throwing planner loses no batch --------------- #
    obs.configure(enabled=True)
    faulty = PlannedExecutor(index, fault_plan=FaultPlan.once(SITE_PLANNER_DECIDE))
    got = faulty.execute(batch, mode="ids")
    want = run_strategy("partition-based", index, batch, mode="ids")
    if got != want:
        fail("faulted decide changed the result")
    snap = obs.snapshot()
    fallbacks = sum(
        c["value"]
        for c in snap["metrics"]["counters"]
        if c["name"] == obs.PLANNER_FALLBACKS
    )
    if fallbacks != 1:
        fail(f"expected 1 recorded planner fallback, saw {fallbacks}")
    faulty.close()
    obs.configure(enabled=False)
    print("fault degradation ok (batch intact, fallback recorded)")

    # -- 4. the settled plan at a real batch size ----------------------- #
    settled_plan_leg()
    print("plan-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
