"""Tests for :mod:`repro.kernels` — units, differentials, wiring.

Three layers:

* **kernel units** — each fallback kernel against a naive Python
  reference on adversarial inputs (empty ranges, ragged segments,
  shared destinations);
* **differentials** — :func:`~repro.kernels.compiled.compiled_run`
  must return :func:`~repro.core.strategies.run_strategy`'s result
  across every strategy x mode on :class:`~repro.hint.index.HintIndex`
  and on a :class:`~repro.hint.dynamic.DynamicHint`'s inner index after
  a rebuild, and a :class:`~repro.shard.ShardedHint` through the engine
  must answer as the single index does — with the kernel backend
  explicitly forced to the NumPy fallback for one leg (the no-numba
  guarantee);
* **wiring** — the environment switches (in subprocesses, since the
  backend choice happens at import time).  That ``auto`` runs
  ``serial`` and starts no pool is ``tests/test_engine.py``'s
  ``TestAutoPolicy``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.result import MODES
from repro.core.strategies import STRATEGIES, run_strategy
from repro.engine import ExecutionEngine
from repro.hint.dynamic import DynamicHint
from repro.hint.index import HintIndex
from repro.kernels import KERNELS, ops
from repro.kernels import fallback as fb
from repro.kernels.compiled import compiled_run
from repro.shard import ShardedHint
from tests.conftest import random_batch, random_collection

M = 11
TOP = (1 << M) - 1


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(20240807)
    coll = random_collection(rng, 2_500, TOP)
    return {
        "coll": coll,
        "hint": HintIndex(coll, m=M),
        "sharded": ShardedHint(coll, k=4, m=M),
        "batch": random_batch(rng, 350, TOP),
    }


# --------------------------------------------------------------------- #
# kernel units (fallback implementation vs naive reference)
# --------------------------------------------------------------------- #


class TestFallbackKernels:
    def test_scatter_ranges_matches_loop(self):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 1000, 200).astype(np.int64)
        lo = rng.integers(0, 180, 40).astype(np.int64)
        hi = np.minimum(lo + rng.integers(0, 12, 40), 200).astype(np.int64)
        hi[::7] = lo[::7]  # sprinkle empty ranges
        sel = np.arange(40, dtype=np.int64)
        lens = np.maximum(hi - lo, 0)
        offsets = np.zeros(41, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        out = np.full(int(offsets[-1]), -1, dtype=np.int64)
        cursors = offsets[:-1].copy()
        fb.scatter_ranges(src, lo, hi, sel, out, cursors)
        expect = np.concatenate(
            [src[a:b] for a, b in zip(lo, hi)] or [np.empty(0, np.int64)]
        )
        assert out.tolist() == expect.tolist()
        assert cursors.tolist() == offsets[1:].tolist()

    def test_scatter_ranges_cursor_persists_across_calls(self):
        # Two source ranges landing at the same destination query via
        # two calls (one per plan entry, as the replay does): the cursor
        # advances so the second call appends after the first.
        src = np.arange(10, dtype=np.int64)
        out = np.full(4, -1, dtype=np.int64)
        cursors = np.array([0], dtype=np.int64)
        sel = np.array([0], dtype=np.int64)
        fb.scatter_ranges(
            src,
            np.array([0], dtype=np.int64),
            np.array([2], dtype=np.int64),
            sel,
            out,
            cursors,
        )
        fb.scatter_ranges(
            src,
            np.array([5], dtype=np.int64),
            np.array([7], dtype=np.int64),
            sel,
            out,
            cursors,
        )
        assert out.tolist() == [0, 1, 5, 6]
        assert cursors.tolist() == [4]

    def test_scatter_segments_matches_scatter_ranges(self):
        rng = np.random.default_rng(2)
        flat = rng.integers(0, 99, 60).astype(np.int64)
        seg = np.sort(rng.integers(0, 60, 9)).astype(np.int64)
        offsets = np.concatenate([[0], seg, [60]]).astype(np.int64)
        sel = np.arange(10, dtype=np.int64)
        lens = offsets[1:] - offsets[:-1]
        dest = np.zeros(11, dtype=np.int64)
        np.cumsum(lens, out=dest[1:])
        out_a = np.zeros(60, dtype=np.int64)
        cur_a = dest[:-1].copy()
        fb.scatter_segments(flat, offsets, sel, out_a, cur_a)
        out_b = np.zeros(60, dtype=np.int64)
        cur_b = dest[:-1].copy()
        fb.scatter_ranges(flat, offsets[:-1], offsets[1:], sel, out_b, cur_b)
        assert out_a.tolist() == out_b.tolist()
        assert cur_a.tolist() == cur_b.tolist()

    def test_xor_ranges_and_segments(self):
        """Each segment's fold equals a loop's and the prefix-XOR rule's
        for the same range, empty segments included."""
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 1 << 40, 50).astype(np.int64)
        prefix = np.zeros(51, dtype=np.int64)
        np.bitwise_xor.accumulate(ids, out=prefix[1:])
        offsets = np.array([0, 10, 10, 35, 50, 50], dtype=np.int64)
        seg = fb.xor_segments(ids, offsets)
        assert seg.tolist() == (prefix[offsets[1:]] ^ prefix[offsets[:-1]]).tolist()
        for i in range(5):
            fold = 0
            for v in ids[offsets[i]:offsets[i + 1]].tolist():
                fold ^= v
            assert seg[i] == fold


# --------------------------------------------------------------------- #
# ops layer: selection, counters
# --------------------------------------------------------------------- #


class TestOpsLayer:
    def test_backend_introspection_consistent(self):
        assert ops.kernel_backend() in ("numba", "numpy")
        assert ops.fallback_active() == (ops.kernel_backend() == "numpy")
        if not ops.jit_available():
            # numba absent (this container): the fallback must be live.
            assert ops.kernel_backend() == "numpy"

    def test_invocation_counters_bump(self):
        before = ops.invocation_counts().get("xor_segments", 0)
        flat = np.array([1, 2, 3], dtype=np.int64)
        assert ops.xor_segments(flat, np.array([0, 2, 3])).tolist() == [3, 3]
        assert ops.invocation_counts()["xor_segments"] == before + 1

    def test_force_backend_roundtrip(self):
        previous = ops.force_backend("numpy")
        try:
            assert ops.fallback_active()
            with pytest.raises(ValueError):
                ops.force_backend("wat")
            if not ops.jit_available():
                with pytest.raises(RuntimeError):
                    ops.force_backend("numba")
        finally:
            ops.force_backend(previous)

    def test_kernel_names_cover_module(self):
        for name in KERNELS:
            assert callable(getattr(ops, name))


# --------------------------------------------------------------------- #
# differentials: compiled_run returns run_strategy's result
# --------------------------------------------------------------------- #


class TestCompiledDifferential:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("mode", MODES)
    def test_hint_index_all_strategies_modes(
        self, workload, strategy, mode, monkeypatch
    ):
        """``compiled_run`` is ``run_strategy`` under its old name: it
        returns the very result ``run_strategy`` builds."""
        import repro.kernels.compiled as compiled

        ref = run_strategy(strategy, workload["hint"], workload["batch"], mode=mode)
        built = []

        def spy(*args, **kwargs):
            built.append(run_strategy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(compiled, "run_strategy", spy)
        got = compiled_run(strategy, workload["hint"], workload["batch"], mode=mode)
        assert built and got is built[0]
        assert got == ref

    @pytest.mark.parametrize("mode", MODES)
    def test_forced_fallback_identical(self, workload, mode):
        """The explicit no-numba leg: with the backend pinned to the
        NumPy fallback the compiled path must stay result-identical."""
        previous = ops.force_backend("numpy")
        try:
            assert ops.fallback_active()
            ref = run_strategy(
                "partition-based", workload["hint"], workload["batch"], mode=mode
            )
            got = compiled_run(
                "partition-based", workload["hint"], workload["batch"], mode=mode
            )
            assert got == ref
        finally:
            ops.force_backend(previous)

    @pytest.mark.parametrize("mode", MODES)
    def test_sharded_through_engine(self, workload, mode):
        ref = run_strategy(
            "partition-based", workload["hint"], workload["batch"], mode=mode
        )
        with ExecutionEngine(workload["sharded"], workers=2) as engine:
            for backend in ("serial", "threads"):
                got = engine.execute(
                    workload["batch"], mode=mode, backend=backend
                )
                assert got == ref

    @pytest.mark.parametrize("mode", MODES)
    def test_dynamic_hint_after_rebuild(self, mode):
        rng = np.random.default_rng(99)
        coll = random_collection(rng, 800, TOP)
        dyn = DynamicHint(coll, m=M)
        for _ in range(50):
            st = int(rng.integers(0, TOP))
            dyn.insert(st, min(st + int(rng.integers(1, 40)), TOP))
        dyn.compact()  # force a rebuild; inner index now holds everything
        batch = random_batch(rng, 200, TOP)
        ref = run_strategy("partition-based", dyn.index, batch, mode=mode)
        got = compiled_run("partition-based", dyn.index, batch, mode=mode)
        assert got == ref

    def test_non_partition_strategies_delegate(self, workload):
        # Delegated strategies still validate their inputs like
        # run_strategy does.
        with pytest.raises(ValueError):
            compiled_run("wat", workload["hint"], workload["batch"])
        with pytest.raises(ValueError):
            compiled_run(
                "partition-based", workload["hint"], workload["batch"], mode="wat"
            )

    def test_empty_batch(self, workload):
        from repro.intervals.batch import QueryBatch

        empty = QueryBatch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        for mode in MODES:
            got = compiled_run(
                "partition-based", workload["hint"], empty, mode=mode
            )
            assert len(got) == 0
            assert got.mode == mode


# --------------------------------------------------------------------- #
# environment switches (import-time: test in subprocesses)
# --------------------------------------------------------------------- #


def _run_py(code, **env_overrides):
    env = dict(os.environ)
    env.update(env_overrides)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


class TestEnvironmentSwitches:
    def test_no_numba_forces_fallback(self):
        proc = _run_py(
            "from repro.kernels import ops; "
            "assert ops.kernel_backend() == 'numpy'; "
            "assert ops.fallback_active()",
            REPRO_NO_NUMBA="1",
        )
        assert proc.returncode == 0, proc.stderr

    def test_kernels_numpy_forces_fallback(self):
        proc = _run_py(
            "from repro.kernels import ops; "
            "assert ops.kernel_backend() == 'numpy'",
            REPRO_KERNELS="numpy",
        )
        assert proc.returncode == 0, proc.stderr

    def test_kernels_numba_errors_when_absent(self):
        proc = _run_py(
            "from repro.kernels import ops",
            REPRO_KERNELS="numba",
        )
        if proc.returncode == 0:
            pytest.skip("numba installed here; strict mode succeeds")
        assert "failed to import" in proc.stderr

    def test_unknown_kernels_value_rejected(self):
        proc = _run_py(
            "from repro.kernels import ops",
            REPRO_KERNELS="wat",
        )
        assert proc.returncode != 0
        assert "unknown REPRO_KERNELS value" in proc.stderr
