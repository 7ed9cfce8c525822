"""``--budget``: where a query's time goes, in process and served.

Runs the traced ``batch-count-short`` and ``serve-count-short`` (fresh
processes), reads the per-layer self times each wrote to ``bench/out/`` and
renders ``bench/BUDGET.md``: self microseconds per query by layer, summing
to 1/qps with the unattributed remainder stated.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from bench import host
from bench.metrics import BATCH_COUNT, SERVE
from bench.repeat import run_child

LAYERS = ("net", "service", "cache", "planner", "engine", "shard", "core")


def write_budget(workload: str, qps: float, us_per_query: Dict[str, float],
                 clock: str) -> None:
    """Called by a traced run: the exact per-query self times it measured."""
    with open(host.out_path(f"budget-{workload}.json"), "w") as fh:
        json.dump({"workload": workload, "qps": qps, "clock": clock,
                   "us_per_query": us_per_query}, fh)


def _read(workload: str) -> dict:
    with open(host.out_path(f"budget-{workload}.json")) as fh:
        return json.load(fh)


def render(batch: dict, serve: dict) -> str:
    def cell(budget: dict, layer: str) -> str:
        value = budget["us_per_query"].get(layer)
        return "—" if value is None else f"{value:.2f}"

    lines = [
        "# Budget: in process -> served", "",
        "`python3 -m bench --budget` (two traced runs). Self time = a layer's span "
        "minus the part its child spans cover, in microseconds per answered query. "
        f"`{BATCH_COUNT}` is wall time on its one thread; `{SERVE}` is thread CPU in "
        "the closed loop, because the server's two threads share one GIL and wall "
        "spans would count each other's waits.", "",
        " ".join(f"{k}={v}" for k, v in host.fingerprint().items()), "",
        f"| layer | {BATCH_COUNT} | {SERVE} |", "|---|---|---|",
    ]
    for layer in LAYERS + ("unattributed",):
        lines.append(f"| {layer} | {cell(batch, layer)} | {cell(serve, layer)} |")
    lines.append(
        f"| **sum = 1/qps** | **{1e6 / batch['qps']:.2f}** | **{1e6 / serve['qps']:.2f}** |"
    )
    lines.append(f"| qps (traced) | {batch['qps']:.0f} | {serve['qps']:.0f} |")
    gap = batch["qps"] / serve["qps"]
    us = serve["us_per_query"]
    lines += [
        "",
        f"The same stream is answered {gap:.0f}x slower over the socket. Of the "
        f"{1e6 / serve['qps']:.0f} us a served query costs, net (the event-loop thread: "
        f"frame decode, admission, one future and one task per request, encode) takes "
        f"{us.get('net', 0):.0f} us and service (staging, batch formation, resolving "
        f"futures) {us.get('service', 0):.0f} us; what is left is the stack the "
        "in-process workload runs, which costs more per query here only because a "
        "flush carries at most 256 queries (`service.batch_size_p50` says how many) "
        "where a batch carries 4096, so each per-batch fixed cost (planner decision, "
        "engine dispatch, the partition sweep's per-level set-up in core) is divided "
        "by that many fewer queries.", "",
    ]
    return "\n".join(lines)


def main(seed: int, seconds: float) -> int:
    failed = 0
    for workload in (BATCH_COUNT, SERVE):
        failed += not run_child(workload, seed, seconds, traced=True)["correct"]
    text = render(_read(BATCH_COUNT), _read(SERVE))
    path = os.path.join(host.ROOT, "bench", "BUDGET.md")
    with open(path, "w") as fh:
        fh.write(text)
    print(text)
    return 1 if failed else 0
