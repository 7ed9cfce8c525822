"""``python3 -m bench`` — one command for every way the benchmark runs.

* ``--workload W --seed N --seconds S --trace 0|1``: one run; prints every
  metric by name and unit, then one JSON object as the last line.
* ``--repeat N``: N full untraced sets of one seed -> ``bench/NOISE.md``
  (``--vary-seed``: another seed per set -> ``bench/NOISE-seeds.md``).
* ``--budget``: traced runs of the two count workloads -> ``bench/BUDGET.md``.
* ``--selftest``: the benchmark checks itself (under a minute).
* ``--manifest``: print what ``BENCHMARK.json`` must contain.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SECONDS = 20


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` — never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(
            f"bench: {src}/repro is missing — the benchmark measures the "
            "repository it is checked out with and has nothing to run here"
        )
    sys.path.insert(0, src)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, metavar="N")
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--budget", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--manifest", action="store_true")
    return p


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run in this process; returns the result object of the last line."""
    from bench import host, metrics as M
    from bench.workloads import WORKLOADS

    w = WORKLOADS[workload]
    if w.kind == "serve":
        from bench import served as runner
    else:
        from bench import inprocess as runner
    print("# " + " ".join(f"{k}={v}" for k, v in host.fingerprint().items()))
    print(f"# workload={w.name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    report = runner.run(w, seed, seconds, traced)
    for note in report.notes:
        print("# " + note)
    filled = M.fill(report.measured, M.PER_LAYER if traced else M.END_TO_END)
    for name, entry in filled.items():
        shown = "absent" if entry["value"] == M.ABSENT else f"{entry['value']:.6g}"
        print(f"{name:34s} {shown:>14s} {entry['unit']}")
    return {
        "correct": report.failed == 0,
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": filled,
    }


def _exit_on_sigterm(_signum, _frame) -> None:
    sys.exit(143)  # unwinds through main()'s finally, unlike the default action


def main(argv=None) -> int:
    """Whatever the mode and however it ends, every process started along
    the way is stopped and waited for before this one exits; a run's result
    line is printed only after that."""
    from bench import procs

    args = _parser().parse_args(argv)
    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code, last_line = _dispatch(args)
    finally:
        procs.stop_descendants()
    if last_line is not None:
        print(last_line)
    return code


def _dispatch(args) -> "tuple[int, str | None]":
    use_checkout_sources()
    from bench.workloads import WORKLOADS

    if args.manifest:
        from bench import metrics as M

        print(json.dumps(M.manifest(RUN_SECONDS, [(w.name, w.why) for w in WORKLOADS.values()]), indent=2))
        return 0, None
    if args.selftest:
        from bench import selftest

        return selftest.main(), None
    if args.repeat:
        from bench import repeat

        return repeat.main(args.repeat, args.seed, args.seconds, args.vary_seed), None
    if args.budget:
        from bench import budget

        return budget.main(args.seed, args.seconds), None
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: --workload must be one of {', '.join(WORKLOADS)}")
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0, json.dumps(result)
