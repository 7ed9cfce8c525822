"""Backend selection and accounting for the hot-path kernels.

At import time this module picks the kernel implementation for the
process:

* :mod:`repro.kernels.jit` (Numba) when ``numba`` imports cleanly and
  neither ``REPRO_NO_NUMBA`` nor ``REPRO_KERNELS=numpy`` is set;
* :mod:`repro.kernels.fallback` (pure NumPy) otherwise — behaviour
  identical, just without the nogil machine code.

The public functions below are thin wrappers that normalize argument
dtypes (the JIT signatures want contiguous ``int64``), count
invocations per kernel, and delegate to the selected backend.  The
counters and the cumulative warm-up time feed the ``repro_kernel_*``
obs series emitted by :func:`repro.kernels.compiled.compiled_run`.

:func:`force_backend` swaps the implementation at runtime — test
hook only; production code relies on the import-time choice.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

import numpy as np

from repro.kernels import fallback as _numpy_impl

__all__ = [
    "KERNELS",
    "kernel_backend",
    "jit_available",
    "fallback_active",
    "force_backend",
    "warmup",
    "compile_seconds",
    "invocation_counts",
    "scatter_ranges",
    "scatter_segments",
    "xor_segments",
]

#: Kernel names, in the order they appear in this module.
KERNELS = (
    "scatter_ranges",
    "scatter_segments",
    "xor_segments",
)

_DISABLE_VALUES = ("numpy", "fallback", "off")

_jit_impl = None
_jit_import_error: Optional[BaseException] = None
_requested = os.environ.get("REPRO_KERNELS", "").strip().lower()
if _requested and _requested not in _DISABLE_VALUES + ("numba", "jit", "auto"):
    raise ValueError(
        f"unknown REPRO_KERNELS value {_requested!r}; expected one of "
        f"{_DISABLE_VALUES + ('numba', 'jit', 'auto')}"
    )
if _requested not in _DISABLE_VALUES and not os.environ.get("REPRO_NO_NUMBA"):
    try:
        from repro.kernels import jit as _jit_mod

        _jit_impl = _jit_mod
    except Exception as exc:  # numba absent or broken: fall back
        _jit_import_error = exc
        if _requested in ("numba", "jit"):
            raise ImportError(
                "REPRO_KERNELS=numba requested but the numba backend "
                f"failed to import: {exc}"
            ) from exc

_impl = _jit_impl if _jit_impl is not None else _numpy_impl

_counts: Dict[str, int] = {}
_compile_seconds = 0.0
_warmed = False
_warm_lock = threading.Lock()


def kernel_backend() -> str:
    """``"numba"`` or ``"numpy"`` — the live implementation."""
    return "numba" if _impl is _jit_impl and _jit_impl is not None else "numpy"


def jit_available() -> bool:
    """True when the Numba backend imported (regardless of which
    backend is currently forced)."""
    return _jit_impl is not None


def fallback_active() -> bool:
    """True while the pure-NumPy fallback serves the kernel calls."""
    return kernel_backend() == "numpy"


def force_backend(name: str) -> str:
    """Swap the live backend (``"numba"``/``"numpy"``); returns the
    previous backend name.  Test hook — resets the warm-up state so
    compile accounting matches the newly selected backend."""
    global _impl, _warmed, _compile_seconds
    previous = kernel_backend()
    if name in ("numpy", "fallback"):
        _impl = _numpy_impl
    elif name in ("numba", "jit"):
        if _jit_impl is None:
            raise RuntimeError(
                f"numba backend unavailable: {_jit_import_error!r}"
            )
        _impl = _jit_impl
    else:
        raise ValueError(f"unknown kernel backend {name!r}")
    with _warm_lock:
        _warmed = False
        _compile_seconds = 0.0
    return previous


def invocation_counts() -> Dict[str, int]:
    """Per-kernel invocation counters since process start (a copy)."""
    return dict(_counts)


def compile_seconds() -> float:
    """Cumulative seconds spent warming the JIT backend (0.0 on the
    NumPy fallback)."""
    return _compile_seconds


def warmup() -> float:
    """Compile every kernel once on tiny inputs; returns the cumulative
    compile seconds.  Idempotent and thread-safe; a no-op timing-wise
    on the NumPy fallback."""
    global _warmed, _compile_seconds
    if _warmed:
        return _compile_seconds
    with _warm_lock:
        if _warmed:
            return _compile_seconds
        impl = _impl
        t0 = time.perf_counter()
        _exercise(impl)
        if impl is not _numpy_impl:
            _compile_seconds += time.perf_counter() - t0
        _warmed = True
    return _compile_seconds


def _exercise(impl) -> None:
    """One tiny call per kernel, directly against *impl* (bypasses the
    invocation counters — warm-up is not a batch)."""
    i64 = np.int64
    src = np.arange(8, dtype=i64)
    lo = np.array([0, 3], dtype=i64)
    hi = np.array([2, 5], dtype=i64)
    sel = np.array([0, 1], dtype=i64)
    out = np.zeros(4, dtype=i64)
    cursors = np.array([0, 2], dtype=i64)
    impl.scatter_ranges(src, lo, hi, sel, out, cursors)
    offsets = np.array([0, 2, 4], dtype=i64)
    impl.scatter_segments(src, offsets, sel, out, np.array([0, 2], dtype=i64))
    impl.xor_segments(src, offsets)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def scatter_ranges(src, lo, hi, sel, out, cursors) -> None:
    """Copy ``src[lo[i]:hi[i]]`` into ``out`` at ``cursors[sel[i]]``,
    advancing the cursors in place (``out``/``cursors`` must be
    ``int64`` and are mutated, never copied)."""
    _counts["scatter_ranges"] = _counts.get("scatter_ranges", 0) + 1
    _impl.scatter_ranges(_i64(src), _i64(lo), _i64(hi), _i64(sel), out, cursors)


def scatter_segments(flat, offsets, sel, out, cursors) -> None:
    """Copy ``flat[offsets[i]:offsets[i+1]]`` into ``out`` at
    ``cursors[sel[i]]``, advancing the cursors in place."""
    _counts["scatter_segments"] = _counts.get("scatter_segments", 0) + 1
    _impl.scatter_segments(_i64(flat), _i64(offsets), _i64(sel), out, cursors)


def xor_segments(flat, offsets):
    """XOR fold of each flat-layout segment."""
    _counts["xor_segments"] = _counts.get("xor_segments", 0) + 1
    return _impl.xor_segments(_i64(flat), _i64(offsets))
