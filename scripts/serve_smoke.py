"""Serving-path smoke gate (``make serve-smoke``).

Four phases, all fast enough for tier-1 CI:

1. **Differential over the socket** — an ids-mode server over a random
   collection must return, through the full frame-encode / TCP /
   decode path, exactly the sorted id sets the linear-scan oracle
   produces.
2. **Pipelined burst** — one write of 2,000 QUERY frames across two
   tenants against a 512-slot reject quota, one of them asking for a
   mode the server does not execute: the server takes them a read chunk
   at a time (column decode, one ``submit_many``, one encode per flush),
   and every request id must come back exactly once — the oracle's
   count, a typed ``OVERLOAD`` for the window that arrived over quota,
   ``BAD_REQUEST`` for the bad-mode frame.
3. **An idle server does not sleep out its delay** — launches
   ``python -m repro.cli serve --max-delay-ms 200`` as a real subprocess;
   after one warm-up request (a fresh service has no batch behind it and
   waits its delay out) and a pause, a single request must come back in
   well under those 200 ms: at an arrival rate that cannot fill a batch
   the flusher sends it at once.
4. **Overload burst through the CLI** — launches ``python -m repro.cli
   serve`` as a real subprocess (reject backpressure, a deliberately
   tiny in-flight quota and a slow flush deadline so the burst exceeds
   capacity), offers a 200+-query open-loop trace containing a burst
   window, and requires **every** request to be answered — typed
   ``OVERLOAD`` responses included, hung sockets not — with both
   sheds and successes present.

Exits non-zero on any violation.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import HintIndex, IntervalCollection, NaiveScan
from repro.net import (
    ErrorFrame,
    QueryClient,
    QueryFrame,
    ResultFrame,
    TenantAdmission,
    encode_frame,
    serve_in_thread,
)
from repro.net.loadgen import run_load, summarize
from repro.service import BatchingQueryService
from repro.workloads.arrivals import ArrivalSpec

M = 12
N_DIFFERENTIAL = 60
N_BURST = 2_000
BURST_QUOTA = 512
IDLE_DELAY_MS = 200.0
IDLE_LIMIT_MS = 50.0  # a lone request's allowed round trip on an idle server


def phase_differential() -> None:
    rng = np.random.default_rng(42)
    top = (1 << M) - 1
    st = rng.integers(0, top + 1, 5_000)
    end = np.minimum(st + rng.integers(0, 200, 5_000), top)
    coll = IntervalCollection(st, end)
    naive = NaiveScan(coll)
    service = BatchingQueryService(
        HintIndex(coll, m=M), mode="ids", max_batch=16, max_delay_ms=2.0
    )
    handle = serve_in_thread(service, owns_service=True)
    try:
        with QueryClient(handle.host, handle.port) as client:
            for _ in range(N_DIFFERENTIAL):
                a = int(rng.integers(0, top + 1))
                b = min(a + int(rng.integers(0, 500)), top)
                got = client.query(a, b)
                want = tuple(sorted(int(v) for v in naive.query(a, b)))
                if got != want:
                    raise SystemExit(
                        f"differential mismatch for [{a}, {b}]: "
                        f"{len(got)} ids over the socket vs "
                        f"{len(want)} from the oracle"
                    )
    finally:
        handle.close()
    print(f"serve-smoke: differential ok ({N_DIFFERENTIAL} queries)")


def phase_pipelined_burst() -> None:
    rng = np.random.default_rng(43)
    top = (1 << M) - 1
    st = rng.integers(0, top + 1, 5_000)
    coll = IntervalCollection(st, np.minimum(st + rng.integers(0, 200, 5_000), top))
    naive = NaiveScan(coll)
    q_st = rng.integers(0, top + 1, N_BURST)
    q_end = np.minimum(q_st + rng.integers(0, 500, N_BURST), top)
    bad_mode = N_BURST // 3  # request id of the frame pinned to "ids"
    burst = b"".join(
        encode_frame(QueryFrame(
            request_id=rid,
            tenant=("alpha", "beta")[rid % 2],
            st=int(q_st[rid - 1]),
            end=int(q_end[rid - 1]),
            mode="ids" if rid == bad_mode else None,
        ))
        for rid in range(1, N_BURST + 1)
    )
    service = BatchingQueryService(
        HintIndex(coll, m=M), mode="count", max_batch=256, max_delay_ms=5.0
    )
    handle = serve_in_thread(
        service,
        owns_service=True,
        max_inflight=BURST_QUOTA,
        backpressure="reject",
        admission=TenantAdmission(rate=1e9, burst=1e9),
    )
    try:
        with QueryClient(handle.host, handle.port, timeout=30.0) as client:
            client.send_raw(burst)
            answers = [client.recv_frame() for _ in range(N_BURST)]
    finally:
        handle.close()
    if sorted(f.request_id for f in answers) != list(range(1, N_BURST + 1)):
        raise SystemExit("pipelined burst: not every request id answered once")
    ok = shed = 0
    for frame in answers:
        rid = frame.request_id
        if rid == bad_mode:
            if not (isinstance(frame, ErrorFrame) and frame.code == "bad_request"):
                raise SystemExit(f"bad-mode frame {rid} got {frame!r}")
        elif isinstance(frame, ResultFrame):
            want = len(naive.query(int(q_st[rid - 1]), int(q_end[rid - 1])))
            if frame.value != want:
                raise SystemExit(
                    f"request {rid}: count {frame.value} over the socket "
                    f"vs {want} from the oracle"
                )
            ok += 1
        elif frame.code == "overload":
            shed += 1
        else:
            raise SystemExit(f"request {rid} got an untyped answer: {frame!r}")
    if ok < BURST_QUOTA or not shed:
        raise SystemExit(
            f"pipelined burst: {ok} answered, {shed} shed — expected at "
            f"least the {BURST_QUOTA}-slot quota answered and a shed window"
        )
    print(
        f"serve-smoke: pipelined burst ok ({N_BURST} frames in one write: "
        f"{ok} answered, {shed} shed typed, 1 bad-mode refused)"
    )


def _start_server(*options: str):
    """``python -m repro.cli serve`` on an ephemeral port with *options*;
    returns ``(process, host, port)``."""
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--cardinality", "10000",
            "--m", str(M),
            "--duration", "30",
            *options,
        ],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"serving on ([\d.]+):(\d+)", line)
    if not match:
        proc.terminate()
        proc.wait(timeout=15)
        raise SystemExit(f"could not parse server address from {line!r}")
    return proc, match.group(1), int(match.group(2))


def phase_idle_flush() -> None:
    proc, host, port = _start_server("--max-delay-ms", str(IDLE_DELAY_MS))
    try:
        with QueryClient(host, port, timeout=30.0) as client:
            client.query(0, 100)  # the first batch waits: no arrivals known yet
            time.sleep(0.3)
            t0 = time.perf_counter()
            client.query(10, 200)
            took_ms = (time.perf_counter() - t0) * 1e3
    finally:
        proc.terminate()
        proc.wait(timeout=15)
    if took_ms >= IDLE_LIMIT_MS:
        raise SystemExit(
            f"a lone request to an idle server took {took_ms:.1f} ms "
            f"(limit {IDLE_LIMIT_MS:g} ms, --max-delay-ms {IDLE_DELAY_MS:g}): "
            "the flusher waited out a delay that could not fill the batch"
        )
    print(
        f"serve-smoke: idle flush ok (lone request answered in "
        f"{took_ms:.1f} ms with --max-delay-ms {IDLE_DELAY_MS:g})"
    )


def phase_overload() -> None:
    # Tiny quota + slow flush deadline => the burst window exceeds
    # capacity and the reject policy must shed, visibly and typed.
    proc, host, port = _start_server(
        "--backpressure", "reject",
        "--max-batch", "1000",
        "--max-delay-ms", "50",
        "--max-queue", "8",
        "--max-inflight", "8",
    )
    try:
        spec = ArrivalSpec(
            duration=2.0,
            rate=100.0,
            burst_factor=8.0,
            burst_every=1.0,
            burst_duration=0.3,
            tenants=("alpha", "beta"),
            domain=(1 << M) - 1,
            extent=256,
            seed=5,
        )
        t0 = time.perf_counter()
        records = run_load(host, port, spec, processes=1)
        elapsed = time.perf_counter() - t0
        summary = summarize(records, duration=elapsed)
    finally:
        proc.terminate()
        proc.wait(timeout=15)
    print(f"serve-smoke: {summary.describe()}")
    if summary.offered < 200:
        raise SystemExit(
            f"burst offered only {summary.offered} queries (< 200); "
            "the trace spec is mis-sized"
        )
    if summary.unanswered:
        raise SystemExit(
            f"{summary.unanswered} request(s) went unanswered under "
            "overload — every request must get a typed response"
        )
    if not summary.by_status.get("overload"):
        raise SystemExit(
            "no OVERLOAD responses — the burst never exceeded the "
            "in-flight quota, so the shedding path went untested"
        )
    if not summary.by_status.get("ok"):
        raise SystemExit("no successful responses under baseline load")
    print(
        f"serve-smoke: overload ok ({summary.offered} offered, "
        f"{summary.by_status['overload']} shed typed, 0 unanswered)"
    )


def main() -> int:
    phase_differential()
    phase_pipelined_burst()
    phase_idle_flush()
    phase_overload()
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
