"""Tests for the ops layer: SLOs, the dashboard, and the trace/top CLI.

Covers the burn-rate arithmetic of :mod:`repro.obs.slo` (pure evaluation
over synthetic histogram snapshots, gauge/counter publication, the
bounded violation log), the pure dashboard renderer and its polling
loop (:mod:`repro.obs.dashboard`), and the ``repro.cli trace`` / ``top``
subcommands end to end over snapshot files and live bursts.
"""

from __future__ import annotations

import io
import json

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.obs.dashboard import render_dashboard, run_top
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.slo import (
    SLObjective,
    SLOTracker,
    merge_histogram_entries,
    slow_requests,
)


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs.configure(enabled=False)
    yield
    obs.configure(enabled=False)


def _hist_entry(name, counts, buckets, labels=None):
    """A registry-snapshot histogram entry with a consistent sum."""
    mids = []
    lower = 0.0
    for bound in buckets:
        mids.append((lower + bound) / 2.0)
        lower = bound
    mids.append(lower * 2 if lower else 1.0)
    total = sum(c * m for c, m in zip(counts, mids))
    return {
        "name": name,
        "labels": labels or {},
        "buckets": list(buckets),
        "counts": list(counts),
        "sum": total,
        "count": sum(counts),
    }


# --------------------------------------------------------------------- #
# SLO arithmetic
# --------------------------------------------------------------------- #


class TestSLObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(quantile=1.5)
        with pytest.raises(ValueError):
            SLObjective(target_s=0)
        with pytest.raises(ValueError):
            SLObjective(error_budget=0.0)

    def test_tracker_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            SLOTracker([SLObjective(), SLObjective()])


class TestMergeHistogramEntries:
    def test_sums_per_bucket(self):
        a = _hist_entry("h", [3, 1, 0], [0.01, 0.1])
        b = _hist_entry("h", [1, 0, 2], [0.01, 0.1])
        merged = merge_histogram_entries([a, b])
        assert merged["counts"] == [4, 1, 2]
        assert merged["count"] == 7
        assert merged["sum"] == pytest.approx(a["sum"] + b["sum"])

    def test_mismatched_bounds_skipped(self):
        a = _hist_entry("h", [3, 1, 0], [0.01, 0.1])
        odd = _hist_entry("h", [9, 9], [0.5])
        merged = merge_histogram_entries([a, odd])
        assert merged["count"] == 4

    def test_empty(self):
        assert merge_histogram_entries([]) is None


class TestEvaluate:
    def test_no_data_is_ok(self):
        (res,) = SLOTracker().evaluate({"histograms": []})
        assert res["ok"] is True
        assert res["value"] is None
        assert res["burn_rate"] == 0.0

    def test_all_fast_burns_nothing(self):
        # Every request inside the first bucket, far under the target.
        entry = _hist_entry(
            "repro_net_request_seconds", [100, 0, 0], [0.01, 0.1]
        )
        obj = SLObjective(target_s=0.1, error_budget=0.01)
        (res,) = SLOTracker([obj]).evaluate({"histograms": [entry]})
        assert res["ok"] is True
        assert res["violating_fraction"] == pytest.approx(0.0)

    def test_slow_tail_burns_budget(self):
        # 10% of requests land above the target with a 1% budget:
        # burn rate 10x, clearly violating.
        entry = _hist_entry(
            "repro_net_request_seconds", [90, 0, 10], [0.01, 0.05]
        )
        obj = SLObjective(target_s=0.05, error_budget=0.01)
        (res,) = SLOTracker([obj]).evaluate({"histograms": [entry]})
        assert res["violating_fraction"] == pytest.approx(0.1)
        assert res["burn_rate"] == pytest.approx(10.0)
        assert res["ok"] is False

    def test_interpolation_within_bucket(self):
        # Target halfway through a bucket holding all the mass: half
        # the requests count as over.
        entry = _hist_entry(
            "repro_net_request_seconds", [0, 100, 0], [0.02, 0.04]
        )
        obj = SLObjective(target_s=0.03, error_budget=0.5)
        (res,) = SLOTracker([obj]).evaluate({"histograms": [entry]})
        assert res["violating_fraction"] == pytest.approx(0.5, abs=0.01)
        assert res["burn_rate"] == pytest.approx(1.0, abs=0.02)

    def test_label_sets_are_summed(self):
        ok_entry = _hist_entry(
            "repro_net_request_seconds", [50, 0, 0], [0.01, 0.05],
            labels={"status": "ok"},
        )
        err_entry = _hist_entry(
            "repro_net_request_seconds", [0, 0, 50], [0.01, 0.05],
            labels={"status": "error"},
        )
        obj = SLObjective(target_s=0.05, error_budget=0.01)
        (res,) = SLOTracker([obj]).evaluate(
            {"histograms": [ok_entry, err_entry]}
        )
        assert res["count"] == 100
        assert res["violating_fraction"] == pytest.approx(0.5)


class TestObserve:
    def test_publishes_gauges_and_violations(self):
        obs.configure(enabled=True)
        ob = obs.active()
        # Feed the live histogram a slow tail that must violate.
        hist = ob.registry.histogram(
            "repro_net_request_seconds", buckets=LATENCY_BUCKETS
        )
        for _ in range(10):
            hist.observe(0.001)
        for _ in range(10):
            hist.observe(2.0)
        tracker = SLOTracker(
            [SLObjective(target_s=0.01, error_budget=0.05)]
        )
        results = tracker.observe(ob, now=123.0)
        assert results[0]["ok"] is False
        snap = ob.registry.snapshot()
        names = {g["name"] for g in snap["gauges"]}
        assert "repro_slo_error_budget_burn_rate" in names
        assert "repro_slo_latency_target_seconds" in names
        assert "repro_slo_latency_quantile_seconds" in names
        violations = [
            c for c in snap["counters"]
            if c["name"] == "repro_slo_violations_total"
        ]
        assert violations and violations[0]["value"] == 1
        (logged,) = tracker.violations()
        assert logged["at"] == 123.0
        assert logged["slo"] == "request-latency"

    def test_violation_log_records_both_clocks(self):
        """Violation entries carry the injectable wall clock *and* the
        injectable monotonic clock — never a mix of the two domains —
        so the log is fully deterministic under fake clocks."""
        obs.configure(enabled=True)
        ob = obs.active()
        hist = ob.registry.histogram(
            "repro_net_request_seconds", buckets=LATENCY_BUCKETS
        )
        for _ in range(10):
            hist.observe(2.0)
        wall_ticks = iter([1_700_000_000.0, 1_700_000_060.0])
        mono_ticks = iter([10.5, 70.5])
        tracker = SLOTracker(
            [SLObjective(target_s=0.01, error_budget=0.05)],
            wall_clock=lambda: next(wall_ticks),
            monotonic_clock=lambda: next(mono_ticks),
        )
        tracker.observe(ob)
        tracker.observe(ob)
        first, second = tracker.violations()
        assert first["at"] == 1_700_000_000.0
        assert first["monotonic"] == 10.5
        assert second["at"] == 1_700_000_060.0
        assert second["monotonic"] == 70.5
        # Interval arithmetic runs on the monotonic column.
        assert second["monotonic"] - first["monotonic"] == 60.0

    def test_explicit_now_still_reads_monotonic_clock(self):
        """``now=`` overrides the wall stamp only; the monotonic reading
        still comes from the injectable monotonic clock."""
        obs.configure(enabled=True)
        ob = obs.active()
        hist = ob.registry.histogram(
            "repro_net_request_seconds", buckets=LATENCY_BUCKETS
        )
        for _ in range(10):
            hist.observe(2.0)
        tracker = SLOTracker(
            [SLObjective(target_s=0.01, error_budget=0.05)],
            monotonic_clock=lambda: 42.25,
        )
        tracker.observe(ob, now=123.0)
        (logged,) = tracker.violations()
        assert logged["at"] == 123.0
        assert logged["monotonic"] == 42.25

    def test_healthy_plane_logs_nothing(self):
        obs.configure(enabled=True)
        ob = obs.active()
        ob.registry.histogram(
            "repro_net_request_seconds", buckets=LATENCY_BUCKETS
        ).observe(0.001)
        tracker = SLOTracker(
            [SLObjective(target_s=0.5, error_budget=0.1)]
        )
        results = tracker.observe(ob)
        assert results[0]["ok"] is True
        assert tracker.violations() == []

    def test_slow_requests_filters_net_spans(self):
        obs.configure(enabled=True)
        ob = obs.active()
        ob.recorder.add("net.request", 5.0, attrs={"tenant": "t"})
        ob.recorder.add("service.flush", 5.0)
        slow = slow_requests(ob)
        assert [s["name"] for s in slow] == ["net.request"]


# --------------------------------------------------------------------- #
# dashboard
# --------------------------------------------------------------------- #


def _snapshot(requests=100, hits=30, misses=10):
    return {
        "metrics": {
            "counters": [
                {"name": "repro_net_requests_total",
                 "labels": {"status": "ok"}, "value": requests},
                {"name": "repro_cache_hits_total", "labels": {},
                 "value": hits},
                {"name": "repro_cache_misses_total", "labels": {},
                 "value": misses},
            ],
            "gauges": [
                {"name": "repro_slo_error_budget_burn_rate",
                 "labels": {"slo": "request-latency"}, "value": 2.5},
            ],
            "histograms": [
                _hist_entry(
                    "repro_span_seconds", [5, 5, 0], [0.01, 0.1],
                    labels={"span": "net.request"},
                ),
            ],
        },
        "spans": {"finished": 10, "dropped": 0, "slow": []},
    }


class TestDashboard:
    def test_render_contains_key_lines(self):
        text = render_dashboard(_snapshot())
        assert "requests" in text and "100 total" in text
        assert "net.request" in text  # latency table row
        assert "75.0% hit" in text
        assert "HOT" in text and "2.50x" in text  # burning SLO
        assert "10 finished" in text

    def test_rate_from_prev_snapshot(self):
        prev = _snapshot(requests=100)
        cur = _snapshot(requests=300)
        text = render_dashboard(cur, prev, interval=2.0)
        assert "100.0/s" in text

    def test_run_top_draws_requested_frames(self):
        frames = iter([_snapshot(100), _snapshot(200), _snapshot(300)])
        out = io.StringIO()
        drawn = run_top(
            lambda: next(frames), interval=0.0, iterations=3, out=out,
            clear=False,
        )
        assert drawn == 3
        assert out.getvalue().count("repro · live plane") == 3


# --------------------------------------------------------------------- #
# cli trace / top
# --------------------------------------------------------------------- #


class TestCliTrace:
    BURST = ["--requests", "3", "--cardinality", "3000", "--m", "10"]

    def test_live_list(self, capsys):
        assert cli_main(["trace", "--list"] + self.BURST) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("trace")
        assert len(lines) == 4  # header + one row per request
        assert "net.request" in out

    def test_live_tree_and_chrome(self, tmp_path, capsys):
        assert cli_main(["trace"] + self.BURST) == 0
        out = capsys.readouterr().out
        assert "net.request" in out
        assert "service.flush" in out
        assert "engine.execute" in out
        path = tmp_path / "trace.json"
        assert cli_main(
            ["trace", "--chrome", str(path)] + self.BURST
        ) == 0
        dump = json.loads(path.read_text())
        names = {e["name"] for e in dump["traceEvents"] if e["ph"] == "X"}
        assert {"net.request", "service.flush", "engine.execute"} <= names

    def test_snapshot_file_input(self, tmp_path, capsys):
        # A serve burst dumped to JSON must be fully inspectable offline.
        obs.configure(enabled=True)
        ob = obs.active()
        with ob.recorder.trace_scope((0xBEEF,)):
            with ob.span("net.request"):
                with ob.span("service.flush"):
                    pass
        snap = obs.snapshot()
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(snap))
        obs.configure(enabled=False)
        assert cli_main(
            ["trace", "--input", str(path), "--trace-id", "beef"]
        ) == 0
        out = capsys.readouterr().out
        assert "000000000000beef" in out
        assert "service.flush" in out

    def test_missing_trace_id_fails(self, tmp_path, capsys):
        obs.configure(enabled=True)
        ob = obs.active()
        with ob.recorder.trace_scope((1,)):
            with ob.span("net.request"):
                pass
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(obs.snapshot()))
        obs.configure(enabled=False)
        assert cli_main(
            ["trace", "--input", str(path), "--trace-id", "dead"]
        ) == 1


class TestCliTop:
    def test_once_over_snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(_snapshot()))
        assert cli_main(
            ["top", "--input", str(path), "--once"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro · live plane" in out
        assert "\x1b[2J" not in out  # --once must not clear the screen

    def test_iterations_rereads_file(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(_snapshot()))
        assert cli_main(
            ["top", "--input", str(path), "--iterations", "2",
             "--interval", "0"]
        ) == 0
        assert capsys.readouterr().out.count("repro · live plane") == 2
