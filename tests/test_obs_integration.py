"""Integration tests of the observability plane against production code.

The load-bearing test here cross-checks the **live** partition-touch
counters emitted by the instrumented ``partition_based`` strategy
against the **offline** :class:`repro.analysis.trace.AccessRecorder`
driving the reference implementation over the same batch — the two
instrumentation paths were written independently (one counts
``l - f + 1`` per level inside the production strategy, the other logs
every relevant-partition visit of the per-query reference), so exact
agreement pins both.

Also covered: per-partition detail tracing, parallel-chunk accounting,
the serve-sim ``--metrics-json`` dump, the ``stats`` CLI, and the
concurrent record_flush/snapshot regression of ServiceMetrics.
"""

from __future__ import annotations

import json
import threading
from collections import Counter as TallyCounter

import numpy as np
import pytest

import repro.obs as obs
from repro.analysis.service_stats import ServiceMetrics
from repro.analysis.trace import AccessRecorder
from repro.cli import main
from repro.core.parallel import parallel_batch
from repro.core.strategies import partition_based, query_based, run_strategy
from repro.hint.index import HintIndex
from repro.hint.reference import ReferenceHint
from tests.conftest import random_batch, random_collection


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with the plane torn down (several
    tests — and the CLI commands under test — enable the global plane)."""
    obs.configure(enabled=False)
    yield
    obs.configure(enabled=False)


def _live_level_touches(strategy: str, m: int) -> dict:
    """level -> live partition-touch counter value for *strategy*."""
    reg = obs.registry()
    out = {}
    for level in range(m + 1):
        metric = reg.find(
            obs.STRATEGY_PARTITION_TOUCHES, strategy=strategy, level=str(level)
        )
        out[level] = metric.value if metric is not None else 0
    return out


class TestTraceAgreesWithAccessRecorder:
    """ISSUE 3 satellite: live trace vs offline AccessRecorder, exactly."""

    M = 8

    def _workload(self, rng, n_intervals=400, n_queries=60):
        top = (1 << self.M) - 1
        coll = random_collection(rng, n_intervals, top)
        batch = random_batch(rng, n_queries, top)
        return coll, batch

    def _offline_level_counts(self, coll, batch) -> dict:
        ref = ReferenceHint(coll, m=self.M)
        rec = AccessRecorder()
        ref.batch_partition_based(batch, recorder=rec)
        by_level = rec.by_level()
        return {
            level: len(by_level.get(level, [])) for level in range(self.M + 1)
        }

    def test_partition_based_per_level_touches_match_exactly(self, rng):
        coll, batch = self._workload(rng)
        index = HintIndex(coll, m=self.M)
        obs.configure(enabled=True)
        partition_based(index, batch, mode="count")
        live = _live_level_touches("partition-based", self.M)
        offline = self._offline_level_counts(coll, batch)
        assert live == offline

    def test_agreement_covers_empty_levels(self, rng):
        # A tiny collection leaves most HINT levels without a single
        # placement; the reference recorder still visits the relevant
        # partitions of every level, so the live counters must too.
        coll, batch = self._workload(rng, n_intervals=3, n_queries=20)
        index = HintIndex(coll, m=self.M)
        obs.configure(enabled=True)
        partition_based(index, batch, mode="count")
        live = _live_level_touches("partition-based", self.M)
        offline = self._offline_level_counts(coll, batch)
        assert live == offline
        assert sum(live.values()) > 0

    def test_all_strategies_report_identical_touches(self, rng):
        # The relevant-partition set per (query, level) is a property of
        # the query alone, so every strategy must tally the same totals.
        coll, batch = self._workload(rng)
        index = HintIndex(coll, m=self.M)
        obs.configure(enabled=True)
        run_strategy("partition-based", index, batch, mode="count")
        run_strategy("level-based", index, batch, mode="count")
        run_strategy("query-based", index, batch, mode="count")
        expected = _live_level_touches("partition-based", self.M)
        assert _live_level_touches("level-based", self.M) == expected
        assert _live_level_touches("query-based", self.M) == expected

    def test_partition_detail_spans_match_recorder(self, rng):
        """With trace_partitions on, the per-partition span attrs must
        reproduce the recorder's per-(level, partition) visit counts."""
        coll, batch = self._workload(rng, n_queries=25)
        index = HintIndex(coll, m=self.M)
        obs.configure(enabled=True, trace_partitions=True)
        partition_based(index, batch, mode="count")

        live = TallyCounter()
        for sp in obs.recorder().spans("strategy.partition"):
            key = (sp.attrs["level"], sp.attrs["partition"])
            live[key] += sp.attrs["queries"]

        ref = ReferenceHint(coll, m=self.M)
        rec = AccessRecorder()
        ref.batch_partition_based(batch, recorder=rec)
        offline = TallyCounter()
        for level, entries in rec.by_level().items():
            for partition, _query in entries:
                offline[(level, partition)] += 1
        assert live == offline


class TestInstrumentationPlumbing:
    def test_disabled_plane_changes_nothing(self, rng):
        top = (1 << 8) - 1
        coll = random_collection(rng, 300, top)
        batch = random_batch(rng, 40, top)
        index = HintIndex(coll, m=8)
        plain = partition_based(index, batch, mode="count")
        obs.configure(enabled=True)
        traced = partition_based(index, batch, mode="count")
        np.testing.assert_array_equal(plain.counts, traced.counts)

    def test_parallel_chunks_cover_batch(self, rng):
        top = (1 << 8) - 1
        coll = random_collection(rng, 300, top)
        batch = random_batch(rng, 64, top)
        index = HintIndex(coll, m=8)
        obs.configure(enabled=True)
        parallel_batch(index, batch, workers=4, strategy="partition-based")
        chunks = obs.recorder().spans("parallel.chunk")
        assert len(chunks) == 4
        assert sum(sp.attrs["queries"] for sp in chunks) == len(batch)
        reg = obs.registry()
        total = sum(
            entry["value"]
            for entry in reg.snapshot()["counters"]
            if entry["name"] == obs.PARALLEL_CHUNKS
        )
        assert total == 4

    def test_query_based_sort_flag_labels_strategy(self, rng):
        top = (1 << 8) - 1
        coll = random_collection(rng, 100, top)
        batch = random_batch(rng, 10, top)
        index = HintIndex(coll, m=8)
        obs.configure(enabled=True)
        query_based(index, batch, sort=False)
        query_based(index, batch, sort=True)
        reg = obs.registry()
        assert reg.find(obs.STRATEGY_BATCHES, strategy="query-based").value == 1
        assert (
            reg.find(obs.STRATEGY_BATCHES, strategy="query-based-sorted").value
            == 1
        )


class TestServeSimMetricsJson:
    def test_dump_written_and_conformant(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "serve-sim",
                    "--queries", "80",
                    "--cardinality", "400",
                    "--domain", "5000",
                    "--m", "10",
                    "--rate", "50000",
                    "--max-batch", "16",
                    "--seed", "3",
                    "--metrics-json", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The human-readable summary must survive the new flag.
        assert "queries    submitted=80 completed=80" in out
        assert f"metrics snapshot written to {path}" in out

        snap = json.loads(path.read_text())
        assert snap["version"] == 1
        assert snap["meta"]["source"] == "serve-sim"
        counters = {e["name"] for e in snap["metrics"]["counters"]}
        histograms = {e["name"] for e in snap["metrics"]["histograms"]}
        # ISSUE 3 acceptance floor: >=1 counter, >=1 histogram and a
        # span-derived latency metric, all from one serve-sim run.
        assert "repro_service_submitted_total" in counters
        assert "repro_strategy_batches_total" in counters
        assert "repro_service_flush_seconds" in histograms
        assert "repro_span_seconds" in histograms
        span_names = {sp["name"] for sp in snap["spans"]["recent"]}
        assert "service.flush" in span_names
        assert "strategy.batch" in span_names

    def test_dump_readable_by_stats_input(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        main(
            [
                "serve-sim",
                "--queries", "40",
                "--cardinality", "400",
                "--domain", "5000",
                "--m", "10",
                "--rate", "50000",
                "--seed", "3",
                "--metrics-json", str(path),
            ]
        )
        capsys.readouterr()
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_service_flushes_total{reason=" in out
        assert "spans:" in out


class TestStatsCli:
    def test_table_mode(self, capsys):
        assert main(["stats", "--queries", "200", "--cardinality", "2000",
                     "--m", "10"]) == 0
        out = capsys.readouterr().out
        assert "repro_strategy_batches_total{strategy=partition-based}" in out
        assert "repro_span_seconds{span=strategy.batch}" in out

    def test_json_mode_parses_and_conforms(self, capsys):
        assert main(["stats", "--json", "--queries", "200",
                     "--cardinality", "2000", "--m", "10"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["version"] == 1
        assert snap["meta"]["source"] == "stats-burst"
        assert len(snap["metrics"]["counters"]) >= 1
        assert any(
            h["name"] == "repro_span_seconds"
            for h in snap["metrics"]["histograms"]
        )
        assert snap["spans"]["finished"] >= 1

    def test_prometheus_mode(self, capsys):
        assert main(["stats", "--prometheus", "--queries", "200",
                     "--cardinality", "2000", "--m", "10"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_strategy_batches_total counter" in out
        assert "# TYPE repro_strategy_batch_seconds histogram" in out
        assert 'le="+Inf"' in out


class TestServiceMetricsConcurrency:
    """Regression: snapshot() while two threads flush into the adapter.

    The pre-fix implementation appended to the latency deque without
    holding the lock snapshot() iterated it under, so a rotating window
    (full deque) could raise ``RuntimeError: deque mutated during
    iteration`` mid-snapshot and percentiles could read a torn window.
    """

    def test_two_flushing_threads_vs_snapshots(self):
        # A small window forces rotation quickly — the failure mode
        # needs appends to evict while the reader iterates.
        metrics = ServiceMetrics(latency_window=64)
        n_flushes, batch = 3_000, 8
        errors = []
        stop = threading.Event()

        def flusher(reason):
            try:
                for pos in range(n_flushes):
                    metrics.record_flush(
                        reason, batch, latency=0.001 + (pos % 7) * 1e-4,
                        queue_depth=pos % 5,
                    )
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    snap = metrics.snapshot()
                    assert snap.flushes == sum(
                        snap.flushes_by_reason.values()
                    )
                    if snap.flushes:
                        metrics.flush_latency_percentiles(50, 99)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=flusher, args=("size",)),
            threading.Thread(target=flusher, args=("deadline",)),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads[:2]:
            t.join()
        stop.set()
        threads[2].join()

        assert errors == []
        snap = metrics.snapshot()
        assert snap.flushes == 2 * n_flushes
        assert snap.flushes_by_reason == {
            "size": n_flushes, "deadline": n_flushes, "idle": 0, "forced": 0,
            "drain": 0,
        }
        assert snap.completed == 2 * n_flushes * batch
        assert snap.batch_size_histogram == {8: 2 * n_flushes}
        assert snap.p50_flush_latency is not None

    def test_adapter_publishes_to_global_registry_when_enabled(self):
        obs.configure(enabled=True)
        metrics = ServiceMetrics()
        assert metrics.registry is obs.registry()
        metrics.record_flush("size", 4, 0.002)
        assert (
            obs.registry()
            .find("repro_service_flushes_total", reason="size")
            .value
            == 1
        )

    def test_adapter_private_registry_when_disabled(self):
        metrics = ServiceMetrics()
        assert obs.active() is None
        metrics.record_flush("size", 4, 0.002)
        assert metrics.flushes == 1
