"""Tests for the data-facing CLI (build / query / info)."""

import numpy as np
import pytest

from repro import IntervalCollection, NaiveScan
from repro.cli import main
from repro.intervals.io import save_intervals


@pytest.fixture
def workspace(tmp_path, rng):
    st = rng.integers(0, 900, size=300)
    coll = IntervalCollection(st, st + rng.integers(0, 100, size=300))
    intervals = tmp_path / "data.txt"
    save_intervals(coll, intervals)
    index_path = tmp_path / "index.npz"
    queries = tmp_path / "queries.txt"
    queries.write_text("0 100\n500 600\n900 999\n")
    return coll, intervals, index_path, queries


def test_build_explicit_m(workspace, capsys):
    coll, intervals, index_path, _ = workspace
    assert main(["build", str(intervals), str(index_path), "--m", "10"]) == 0
    out = capsys.readouterr().out
    assert "built HINT(m=10)" in out
    assert index_path.exists()


def test_build_auto_m(workspace, capsys):
    _, intervals, index_path, _ = workspace
    assert main(["build", str(intervals), str(index_path)]) == 0
    assert "cost model picked m" in capsys.readouterr().out


def test_query_counts(workspace, capsys):
    coll, intervals, index_path, queries = workspace
    main(["build", str(intervals), str(index_path), "--m", "10"])
    capsys.readouterr()
    assert main(["query", str(index_path), str(queries)]) == 0
    captured = capsys.readouterr()
    counts = [int(line) for line in captured.out.strip().splitlines()]
    naive = NaiveScan(coll.normalized(10))
    # queries are in the normalized domain [0, 1023]; the raw domain is
    # [0, ~1000), so positions shift slightly — recompute ground truth
    # against the normalized collection.
    expected = [
        naive.query_count(0, 100),
        naive.query_count(500, 600),
        naive.query_count(900, 999),
    ]
    assert counts == expected
    assert "3 queries via partition-based" in captured.err


def test_query_ids_mode(workspace, capsys):
    coll, intervals, index_path, queries = workspace
    main(["build", str(intervals), str(index_path), "--m", "10"])
    capsys.readouterr()
    assert main(
        ["query", str(index_path), str(queries), "--ids",
         "--strategy", "query-based"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    naive = NaiveScan(coll.normalized(10))
    got = set(int(v) for v in lines[0].split())
    assert got == set(naive.query(0, 100).tolist())


def test_info(workspace, capsys):
    _, intervals, index_path, _ = workspace
    main(["build", str(intervals), str(index_path), "--m", "10"])
    capsys.readouterr()
    assert main(["info", str(index_path)]) == 0
    out = capsys.readouterr().out
    assert "m=10" in out
    assert "replication" in out


def test_query_bad_file(workspace, tmp_path, capsys):
    _, intervals, index_path, _ = workspace
    main(["build", str(intervals), str(index_path), "--m", "10"])
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    assert main(["query", str(index_path), str(bad)]) == 1


class TestServeSimSmoke:
    def test_metrics_add_up(self, capsys):
        """Fixed-seed Poisson replay; the printed ServiceMetrics must be
        internally consistent: per-reason flush counts sum to the total
        and every submitted query completed."""
        import re

        n = 60
        assert (
            main(
                [
                    "serve-sim",
                    "--queries", str(n),
                    "--cardinality", "400",
                    "--domain", "5000",
                    "--m", "10",
                    "--rate", "50000",
                    "--max-batch", "16",
                    "--max-delay-ms", "5",
                    "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serve-sim:" in out

        q = re.search(
            r"queries\s+submitted=(\d+) completed=(\d+) failed=(\d+) "
            r"rejected=(\d+)",
            out,
        )
        assert q, out
        submitted, completed, failed, rejected = map(int, q.groups())
        assert submitted == completed == n
        assert failed == 0
        assert rejected == 0

        f = re.search(
            r"flushes\s+total=(\d+) deadline=(\d+) drain=(\d+) forced=(\d+) "
            r"idle=(\d+) size=(\d+)",
            out,
        )
        assert f, out
        total, deadline, drain, forced, idle, size = map(int, f.groups())
        assert total == deadline + drain + forced + idle + size
        assert 1 <= total <= n
        # max_batch=16 with 60 queries at this rate must flush on size
        # at least once.
        assert size >= 1


class TestVerifySubcommand:
    def test_verify_runs_clean(self, capsys):
        assert main(["verify", "--cardinality", "300", "--m", "8"]) == 0
        captured = capsys.readouterr()
        assert "verify: 7/7 workload checks passed" in captured.out
        ok_lines = [l for l in captured.out.splitlines() if l.startswith("ok ")]
        assert len(ok_lines) == 7
        assert not [l for l in captured.err.splitlines() if "FAIL" in l]
