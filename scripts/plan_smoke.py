"""Planner smoke: calibrate, decide, differential mini-sweep, round-trip.

The tier-1 ``make plan-smoke`` gate (see docs/planning.md).  Asserts, on
a small synthetic index:

1. the startup micro-calibration fits a model within its budget;
2. the calibration file round-trips exactly (save -> load -> same
   coefficients) and a fresh executor reuses it instead of re-probing;
3. the planner-chosen plan is result-identical to every static plan,
   across strategies and result modes, on a single and a sharded index;
4. a planner that throws mid-decide degrades to the static policy with
   the batch intact (the ``planner.decide`` fault site).

Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro.obs as obs  # noqa: E402
from repro.core.strategies import run_strategy  # noqa: E402
from repro.hint.index import HintIndex  # noqa: E402
from repro.intervals.batch import QueryBatch  # noqa: E402
from repro.planner import CostModel, PlannedExecutor  # noqa: E402
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


def main() -> int:
    rng = np.random.default_rng(3)
    coll = generate_synthetic(
        CARDINALITY, DOMAIN, 1.8, DOMAIN / 100, seed=3
    ).normalized(M)
    index = HintIndex(coll, m=M)
    index.precompute_aux()
    batch = mixed_batch(rng)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="plan-smoke-"))
    path = str(tmp / "calibration.json")

    # -- 1. calibration fits a model ---------------------------------- #
    px = PlannedExecutor(index, model_path=path, calibrate=True)
    model = px.planner.model
    if not model.calibrated:
        fail("calibration produced no fitted plans")
    print(f"calibrated {len(model.keys())} plans: {model.keys()}")

    # -- 2. persistence round-trip + reuse ---------------------------- #
    loaded = CostModel.load(path)
    if loaded.to_dict()["entries"] != model.to_dict()["entries"]:
        fail("calibration file does not round-trip")
    fresh = PlannedExecutor(index, model_path=path, calibrate=True)
    if fresh.planner.model.keys() != model.keys():
        fail("fresh executor did not reuse the persisted calibration")
    fresh.close()
    print("calibration round-trip + reuse ok")

    # -- 3. differential: planner == every static plan ----------------- #
    decision = px.planner.decide(batch, mode="ids")
    print(f"decision on mixed batch: {decision.describe()}")
    for mode in MODES:
        got = px.execute(batch, mode=mode)
        for strategy in STRATS:
            want = run_strategy(strategy, index, batch, mode=mode)
            if got != want:
                fail(f"planner result != {strategy} [{mode}] on HintIndex")
    sharded = ShardedHint(coll, k=2, m=M)
    pxs = PlannedExecutor(sharded, model_path=str(tmp / "sharded.json"), calibrate=True)
    for mode in MODES:
        got = pxs.execute(batch, mode=mode)
        want = run_strategy("partition-based", index, batch, mode=mode)
        if got != want:
            fail(f"planner result mismatch [{mode}] on ShardedHint")
    pxs.close()
    print("differential sweep ok (single + sharded, all modes)")

    # -- 4. fault leg: a throwing planner loses no batch --------------- #
    obs.configure(enabled=True)
    faulty = PlannedExecutor(
        index,
        model_path=path,
        calibrate=True,
        fault_plan=FaultPlan.once(SITE_PLANNER_DECIDE),
    )
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

    px.close()
    print("plan-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
