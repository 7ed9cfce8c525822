"""``--repeat N``: N full untraced sets, and the noise table they give.

Each run is a fresh ``python3 -m bench`` process.  With one seed the table
is ``bench/NOISE.md`` — the bounds in ``BENCHMARK.json`` come from its
*largest deviation* column.  With ``--vary-seed`` every set uses another
seed and the table is ``bench/NOISE-seeds.md`` — its quartile spread is
what an acceptance check over ten seeds sees.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from bench import host, metrics as M
from bench.workloads import WORKLOADS


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run in a fresh process; its result object."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(int(traced))],
        cwd=host.ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def render(title: str, how: str, samples: Dict[str, Dict[str, List[float]]],
           failures: int) -> str:
    lines = [f"# {title}", "", how, "",
             " ".join(f"{k}={v}" for k, v in host.fingerprint().items()), ""]
    worst: Dict[str, float] = {}
    for workload, by_metric in samples.items():
        lines += [f"## {workload}", "",
                  "| metric | unit | median | q1 | q3 | (q3-q1)/median | largest deviation | bound |",
                  "|---|---|---|---|---|---|---|---|"]
        for metric in M.END_TO_END:
            values = by_metric[metric.name]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            deviation = M.largest_deviation(values)
            worst[metric.name] = max(worst.get(metric.name, 0.0), deviation)
            lines.append(
                f"| {metric.name} | {metric.unit} | {median:.5g} | {q1:.5g} | {q3:.5g} "
                f"| {(q3 - q1) / median:.4f} | {deviation:.4f} | {metric.bound:.2f} |"
            )
        lines.append("")
    lines += ["## Bounds", "",
              "| metric | largest deviation, any workload | bound | deviation / bound |",
              "|---|---|---|---|"]
    for metric in M.END_TO_END:
        lines.append(f"| {metric.name} | {worst[metric.name]:.4f} | {metric.bound:.2f} "
                     f"| {worst[metric.name] / metric.bound:.2f} |")
    lines += ["", f"Runs that reported a failed operation: {failures}.", ""]
    return "\n".join(lines)


def main(sets: int, seed: int, seconds: float, vary_seed: bool) -> int:
    if sets < 2:
        sys.exit("bench: --repeat needs at least 2 sets")
    samples = {w: {m.name: [] for m in M.END_TO_END} for w in WORKLOADS}
    failures = 0
    for k in range(sets):
        run_seed = seed + k if vary_seed else seed
        for workload in WORKLOADS:
            result = run_child(workload, run_seed, seconds, traced=False)
            failures += not result["correct"]
            for name, entry in result["metrics"].items():
                samples[workload][name].append(entry["value"])
            print(f"set {k + 1}/{sets} seed {run_seed} {workload}: " + " ".join(
                f"{n}={e['value']:.5g}" for n, e in result["metrics"].items()), flush=True)
    if vary_seed:
        name, title = "NOISE-seeds.md", f"Noise over {sets} seeds ({seed}..{seed + sets - 1})"
        how = (f"`python3 -m bench --repeat {sets} --vary-seed --seed {seed} --seconds "
               f"{seconds:g}`: every set uses another seed, so input differences count.")
    else:
        name, title = "NOISE.md", f"Noise over {sets} sets of seed {seed}"
        how = (f"`python3 -m bench --repeat {sets} --seed {seed} --seconds {seconds:g}`: "
               "the same inputs every time, so only the machine varies. A bound is "
               "max(floor, 2 x the largest deviation from the median), never the "
               "quartile distance.")
    path = os.path.join(host.ROOT, "bench", name)
    with open(path, "w") as fh:
        fh.write(render(title, how, samples, failures))
    print(f"wrote {path}")
    return 1 if failures else 0
