"""Validate the JSON snapshot schema emitted by ``repro stats --json``.

The snapshot (also written by ``serve-sim --metrics-json``) is the
contract between the observability plane and external consumers —
dashboards, the ``stats --input`` re-renderer, CI.  This script pins it:
structure of the ``metrics`` section, the spans section, and ISSUE 3's
acceptance floor (at least one counter, one histogram, and the
span-derived ``repro_span_seconds`` latency series).

Usage (``make obs-smoke`` pipes a live burst through it)::

    PYTHONPATH=src python -m repro.cli stats --json \\
        | python scripts/check_stats_schema.py

    python scripts/check_stats_schema.py snapshot.json

Exits 0 iff the document conforms; prints every violation otherwise.
"""

from __future__ import annotations

import json
import sys

COUNTER_KEYS = {"name", "labels", "value", "help"}
GAUGE_KEYS = COUNTER_KEYS
HISTOGRAM_KEYS = {"name", "labels", "buckets", "counts", "sum", "count", "help"}
SPAN_KEYS = {"capacity", "started", "finished", "dropped", "summary", "recent", "slow"}
SPAN_LATENCY_METRIC = "repro_span_seconds"
#: The result cache's counters (docs/observability.md); a snapshot of a
#: run without a cache carries none of them.
CACHE_COUNTERS = {
    "repro_cache_hits_total", "repro_cache_shared_total",
    "repro_cache_misses_total", "repro_cache_evictions_total",
    "repro_cache_invalidations_total", "repro_cache_flushes_total",
}


def check(snapshot: dict) -> list:
    errors = []

    def need(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    need(isinstance(snapshot, dict), "snapshot must be a JSON object")
    if errors:
        return errors
    need(snapshot.get("version") == 1, f"version must be 1, got {snapshot.get('version')!r}")
    need(
        isinstance(snapshot.get("generated_unix"), (int, float)),
        "generated_unix must be a unix timestamp",
    )
    need(isinstance(snapshot.get("meta"), dict), "meta must be an object")

    metrics = snapshot.get("metrics")
    if need(isinstance(metrics, dict), "metrics must be an object"):
        for kind, keys in (
            ("counters", COUNTER_KEYS),
            ("gauges", GAUGE_KEYS),
            ("histograms", HISTOGRAM_KEYS),
        ):
            entries = metrics.get(kind)
            if not need(isinstance(entries, list), f"metrics.{kind} must be a list"):
                continue
            for pos, entry in enumerate(entries):
                where = f"metrics.{kind}[{pos}]"
                if not need(isinstance(entry, dict), f"{where} must be an object"):
                    continue
                missing = keys - entry.keys()
                need(not missing, f"{where} missing keys {sorted(missing)}")
                if kind == "histograms" and not missing:
                    need(
                        len(entry["counts"]) == len(entry["buckets"]) + 1,
                        f"{where}: counts must have len(buckets)+1 entries "
                        "(trailing overflow bucket)",
                    )
                    need(
                        sum(entry["counts"]) == entry["count"],
                        f"{where}: bucket counts must sum to count",
                    )
        cache = {}  # series name -> total over its label sets
        for c in metrics.get("counters", []):
            if isinstance(c, dict) and str(c.get("name", "")).startswith("repro_cache_"):
                cache[c["name"]] = cache.get(c["name"], 0) + c.get("value", 0)
        unknown = cache.keys() - CACHE_COUNTERS
        need(not unknown, f"unknown cache counters {sorted(unknown)}")
        need(
            cache.get("repro_cache_shared_total", 0) <= cache.get("repro_cache_hits_total", 0),
            "repro_cache_shared_total exceeds repro_cache_hits_total (it is a subset)",
        )
        # ISSUE 3 acceptance floor: a snapshot of a real run carries at
        # least one counter, one histogram, and span-derived latency.
        need(len(metrics.get("counters", [])) >= 1, "no counters in snapshot")
        need(len(metrics.get("histograms", [])) >= 1, "no histograms in snapshot")
        need(
            any(
                h.get("name") == SPAN_LATENCY_METRIC
                for h in metrics.get("histograms", [])
                if isinstance(h, dict)
            ),
            f"span-derived latency histogram {SPAN_LATENCY_METRIC!r} absent",
        )

    spans = snapshot.get("spans")
    if need(isinstance(spans, dict), "spans section absent (recorder not snapshotted)"):
        missing = SPAN_KEYS - spans.keys()
        need(not missing, f"spans missing keys {sorted(missing)}")
        if "finished" in spans:
            need(spans["finished"] >= 1, "no finished spans recorded")
        for pos, sp in enumerate(spans.get("recent", [])):
            need(
                isinstance(sp, dict)
                and {"name", "span_id", "started", "duration", "attrs"} <= sp.keys(),
                f"spans.recent[{pos}] malformed",
            )
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        with open(argv[0]) as fh:
            snapshot = json.load(fh)
    else:
        snapshot = json.load(sys.stdin)
    errors = check(snapshot)
    if errors:
        for err in errors:
            print(f"SCHEMA: {err}", file=sys.stderr)
        print(f"FAIL: {len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    metrics = snapshot["metrics"]
    print(
        "OK: snapshot conforms "
        f"(counters={len(metrics['counters'])}, gauges={len(metrics['gauges'])}, "
        f"histograms={len(metrics['histograms'])}, "
        f"spans finished={snapshot['spans']['finished']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
