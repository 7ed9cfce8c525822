"""`top`-style live terminal dashboard over plane snapshots.

:func:`render_dashboard` is pure — it turns one exporter snapshot (and
optionally the previous one, for rates) into fixed-width text: request
throughput and shed/drop rates, p50/p99 latency per layer (from the
``repro_span_seconds`` histograms, so every instrumented layer shows up
automatically), cache hit rate, connection and span counts, and any
published ``repro_slo_*`` verdicts.  :func:`run_top` is the terminal
loop around it (ANSI clear + redraw), which ``python -m repro.cli top``
wires to the shell — pointable at a live in-process plane or at a
``--json`` snapshot file another process keeps rewriting.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterable, List, Optional

from repro.obs.export import _hist_quantile

__all__ = ["render_dashboard", "run_top"]

#: Span-latency layers shown in the latency table, display order.
LAYERS = (
    "net.request",
    "service.flush",
    "engine.execute",
    "shard.execute",
    "cache.execute",
    "strategy.batch",
    "parallel.chunk",
    "shard.batch",
)

_CLEAR = "\x1b[2J\x1b[H"


def _metrics(snapshot: dict) -> dict:
    return snapshot.get("metrics", snapshot)


def _counter_total(metrics: dict, name: str, **labels) -> int:
    total = 0
    for entry in metrics.get("counters", ()):
        if entry["name"] != name:
            continue
        have = entry.get("labels", {})
        if all(str(have.get(k)) == str(v) for k, v in labels.items()):
            total += entry["value"]
    return total


def _gauge_entries(metrics: dict, name: str) -> List[dict]:
    return [e for e in metrics.get("gauges", ()) if e["name"] == name]


def _gauge_total(metrics: dict, name: str) -> Optional[float]:
    entries = _gauge_entries(metrics, name)
    if not entries:
        return None
    return sum(e["value"] for e in entries)


def _span_hist(metrics: dict, span: str) -> Optional[dict]:
    for entry in metrics.get("histograms", ()):
        if (
            entry["name"] == "repro_span_seconds"
            and entry.get("labels", {}).get("span") == span
        ):
            return entry
    return None


def _fmt_ms(value: Optional[float]) -> str:
    return f"{value * 1000:8.2f}" if value is not None else "       -"


def render_dashboard(
    snapshot: dict,
    prev: Optional[dict] = None,
    *,
    interval: Optional[float] = None,
) -> str:
    """One dashboard frame from a snapshot (rates need *prev* too)."""
    m = _metrics(snapshot)
    pm = _metrics(prev) if prev is not None else None
    lines: List[str] = []

    def rate(name: str) -> str:
        total = _counter_total(m, name)
        if pm is not None and interval:
            delta = total - _counter_total(pm, name)
            return f"{delta / interval:9.1f}/s ({total} total)"
        return f"{total:9d} total"

    lines.append("repro · live plane")
    lines.append("")
    lines.append(f"  requests   {rate('repro_net_requests_total')}")
    lines.append(f"  ok         {_counter_total(m, 'repro_net_requests_total', status='ok'):9d}")
    lines.append(f"  shed       {_counter_total(m, 'repro_net_overload_shed_total'):9d}"
                 f"   deadline-dropped {_counter_total(m, 'repro_net_deadline_dropped_total')}"
                 f"   rate-limited {_counter_total(m, 'repro_net_admission_rejected_total')}")
    conns = _gauge_total(m, "repro_net_connections_active")
    if conns is not None:
        lines.append(f"  conns      {int(conns):9d} active")

    lines.append("")
    lines.append(f"  {'layer':<16} {'count':>8} {'p50 ms':>8} {'p99 ms':>8}")
    for layer in LAYERS:
        entry = _span_hist(m, layer)
        if entry is None or not entry["count"]:
            continue
        lines.append(
            f"  {layer:<16} {entry['count']:>8}"
            f" {_fmt_ms(_hist_quantile(entry, 0.5))}"
            f" {_fmt_ms(_hist_quantile(entry, 0.99))}"
        )

    hits = _counter_total(m, "repro_cache_hits_total")
    misses = _counter_total(m, "repro_cache_misses_total")
    if hits or misses:
        lines.append("")
        lines.append(
            f"  cache      {hits / (hits + misses) * 100:6.1f}% hit"
            f"   ({hits} hit / {misses} miss)"
        )

    slo_rows = []
    for entry in _gauge_entries(m, "repro_slo_error_budget_burn_rate"):
        slo = entry.get("labels", {}).get("slo", "?")
        burn = entry["value"]
        flag = "OK " if burn <= 1.0 else "HOT"
        slo_rows.append(f"  slo [{flag}] {slo:<20} burn {burn:6.2f}x")
    if slo_rows:
        lines.append("")
        lines.extend(slo_rows)

    spans = snapshot.get("spans")
    if spans:
        lines.append("")
        lines.append(
            f"  spans      {spans.get('finished', 0)} finished, "
            f"{spans.get('dropped', 0)} dropped, "
            f"{len(spans.get('slow', ()))} slow"
        )
    return "\n".join(lines)


def run_top(
    fetch: Callable[[], dict],
    *,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    out=None,
    clear: bool = True,
) -> int:
    """The dashboard loop: fetch → render → redraw, every *interval* s.

    *fetch* returns a fresh snapshot dict each call (live plane, HTTP
    endpoint, or re-read file).  *iterations* bounds the loop (None =
    until ``KeyboardInterrupt``).  Returns the number of frames drawn.
    """
    out = out if out is not None else sys.stdout
    prev: Optional[dict] = None
    drawn = 0
    try:
        while iterations is None or drawn < iterations:
            snap = fetch()
            frame = render_dashboard(snap, prev, interval=interval)
            if clear:
                out.write(_CLEAR)
            out.write(frame + "\n")
            out.flush()
            prev = snap
            drawn += 1
            if iterations is not None and drawn >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return drawn
