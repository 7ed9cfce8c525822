"""The served workload's server process.

``python3 -m bench.server_child WORKLOAD SEED SETUPS`` builds the stack,
binds the server on an ephemeral port and then obeys one-line JSON commands
on stdin, answering each with one JSON line on stdout:

``stats``   CPU of the process and of each thread, peak RSS, cache counters
``trace``   install or remove the span wrappers (``on``) and the
            per-request submit()->done records (``requests``)
``report``  per-layer aggregates of the spans recorded since the last one
``probe``   the outside probes that need the stack (no socket involved)
``stop``    shut everything down, write the spans, exit
"""

from __future__ import annotations

import json
import sys
from time import perf_counter, process_time
from typing import Dict, List, Optional

import numpy as np


class ServiceTrace:
    """submit() -> done, per request, recorded around the public submit()."""

    def __init__(self):
        self.requests: List[tuple] = []  # (submitted, done)
        self._undo = None

    @property
    def active(self) -> bool:
        return self._undo is not None

    def install(self) -> None:
        from repro.service import BatchingQueryService as cls

        original = cls.submit
        requests = self.requests

        def submit(service, *args, **kwargs):
            t0 = perf_counter()
            future = original(service, *args, **kwargs)
            future.add_done_callback(lambda _f: requests.append((t0, perf_counter())))
            return future

        cls.submit = submit
        self._undo = (cls, original)

    def uninstall(self) -> None:
        if self._undo is not None:
            cls, original = self._undo
            cls.submit = original
            self._undo = None


def _report(tracer, service_trace, marks: List[int]) -> Dict[str, object]:
    """Aggregates of what was recorded since the last report (*marks*);
    nothing is discarded, the spans are written out when the child stops."""
    from bench import metrics as M, trace
    from bench.trace import C0, C1, QUERIES, T0, T1

    spans = tracer.spans[marks[0]:]
    plans = tracer.plans[marks[1]:]
    new_requests = service_trace.requests[marks[2]:]
    marks[:] = [len(tracer.spans), len(tracer.plans), len(service_trace.requests)]
    roots = trace.roots(spans)
    out: Dict[str, object] = {
        "flushes": len(roots),
        "queries": int(sum(sp[QUERIES] for sp in roots)),
        "self_cpu": trace.self_times(spans, "cpu"),
        "root_cpu": float(sum(sp[C1] - sp[C0] for sp in roots)),
        "plans": plans,
    }
    if roots:
        out["batch_size_p50"] = M.percentile([sp[QUERIES] for sp in roots], 50)
        out["flush_ms_p50"] = M.percentile([1e3 * (sp[T1] - sp[T0]) for sp in roots], 50)
    requests = np.asarray(new_requests, dtype=np.float64).reshape(-1, 2)
    if len(requests) and roots:
        starts = np.asarray([sp[T0] for sp in roots])
        ends = np.asarray([sp[T1] for sp in roots])
        # The flush that answered a request is the last one to end before
        # the request's future resolved.
        which = np.clip(np.searchsorted(ends, requests[:, 1], side="right") - 1, 0, None)
        wait = np.clip(starts[which] - requests[:, 0], 0.0, None)
        out["formation_wait_ms_p50"] = M.percentile(wait * 1e3, 50)
        out["submit_done_ms_p50"] = M.percentile((requests[:, 1] - requests[:, 0]) * 1e3, 50)
    return out


def _probe(w, collection, stack, served, rng) -> Dict[str, float]:
    """inproc service throughput, codec cost, the bare-core floor."""
    from bench import probes
    from bench.stacks import STRATEGY
    from bench.workloads import SERVE_MAX_BATCH, QueryStream
    from repro.core.strategies import run_strategy
    from repro.intervals import QueryBatch
    from repro.net.protocol import QueryFrame, ResultFrame, decode_payload, encode_frame

    stream = QueryStream(w, rng)
    out: Dict[str, float] = {}

    # submit() -> result() with no socket: SERVE_MAX_BATCH queries at a time,
    # so every flush is full, as in the closed loop.
    service = served.service
    st, end = (a.tolist() for a in stream.next(64 * SERVE_MAX_BATCH))
    t0 = perf_counter()
    for lo in range(0, len(st), SERVE_MAX_BATCH):
        futures = [service.submit(s, e) for s, e in
                   zip(st[lo:lo + SERVE_MAX_BATCH], end[lo:lo + SERVE_MAX_BATCH])]
        for future in futures:
            future.result(timeout=30)
    out["service.inproc_qps"] = len(st) / (perf_counter() - t0)

    query = encode_frame(QueryFrame(request_id=7, st=st[0], end=end[0]))[4:]
    reps = 20_000
    t0 = perf_counter()
    for i in range(reps):
        decode_payload(query)
        encode_frame(ResultFrame(i, w.mode, 1000))
    out["net.codec_us_per_frame"] = 1e6 * (perf_counter() - t0) / reps

    index = probes.plain_index(w, collection, stack)
    batches = [QueryBatch(*stream.next(4096)) for _ in range(8)]
    t0 = perf_counter()
    counts = [run_strategy(STRATEGY, index, b, mode=w.mode).counts for b in batches]
    out["core.us_per_query"] = 1e6 * (perf_counter() - t0) / (8 * 4096)
    out["core.ids_per_query"] = float(np.concatenate(counts).mean())
    out["kernels.jit_active"] = float(probes.jit_active())
    return out


def main(argv: Optional[List[str]] = None) -> int:
    from bench import cli, procs

    cli.use_checkout_sources()
    try:
        return _serve(argv)
    finally:
        # Pool workers, the arena's resource tracker: none outlives the child.
        procs.stop_descendants()


def _serve(argv: Optional[List[str]]) -> int:
    from bench import host
    from bench.stacks import build_repeatedly, compose, serve
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, make_collection, sub_seeds

    name, seed, setups = (argv or sys.argv[1:])[:3]
    w = WORKLOADS[name]
    coll_seed, _queries, _mutations, probe_rng = sub_seeds(int(seed))
    collection = make_collection(w, coll_seed)
    served, setup_times = build_repeatedly(
        lambda: serve(compose(w, collection), w), int(setups)
    )
    stack = served.stack
    tracer, service_trace = Tracer(), ServiceTrace()
    marks = [0, 0, 0]

    def reply(obj) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    reply({"port": served.port, "setup_times": setup_times, "layer_setup": stack.setup,
           "threads": {"loop": served.loop_threads, "flusher": served.flusher_threads}})
    try:
        for line in sys.stdin:
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd == "stats":
                cache = stack.layers.get("cache")
                stats = cache.stats() if cache is not None else None
                reply({
                    "cpu": process_time(),
                    "threads": host.thread_cpu(),
                    "peak_rss_mb": host.peak_rss_mb(),
                    "cache": None if stats is None else {
                        "hits": stats.hits, "misses": stats.misses,
                        "evictions": stats.evictions,
                        "bytes_resident": stats.bytes_resident,
                    },
                })
            elif cmd == "trace":
                for recorder, want in ((tracer, request["on"]),
                                       (service_trace, request["requests"])):
                    if want and not recorder.active:
                        recorder.install()
                    elif not want and recorder.active:
                        recorder.uninstall()
                reply({"layers": tracer.installed})
            elif cmd == "report":
                reply(_report(tracer, service_trace, marks))
            elif cmd == "probe":
                reply(_probe(w, collection, stack, served, probe_rng))
            elif cmd == "stop":
                break
            else:
                reply({"error": f"unknown command {cmd!r}"})
    finally:
        tracer.uninstall()
        service_trace.uninstall()
        served.close()
    if tracer.spans:
        tracer.dump(w.name)
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
