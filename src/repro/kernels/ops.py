"""Backend selection and accounting for the hot-path kernels.

At import time this module picks the kernel implementation for the
process:

* :mod:`repro.kernels.jit` (Numba) when ``numba`` imports cleanly and
  neither ``REPRO_NO_NUMBA`` nor ``REPRO_KERNELS=numpy`` is set;
* :mod:`repro.kernels.fallback` (pure NumPy) otherwise — behaviour
  identical, just without the nogil machine code.

The public functions below are thin wrappers that normalize argument
dtypes (the JIT signatures want contiguous ``int64``), count
invocations per kernel, and delegate to the selected backend.

:func:`force_backend` swaps the implementation at runtime — test
hook only; production code relies on the import-time choice.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.kernels import fallback as _numpy_impl

__all__ = [
    "KERNELS",
    "kernel_backend",
    "jit_available",
    "fallback_active",
    "force_backend",
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
    previous backend name.  Test hook."""
    global _impl
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
    return previous


def invocation_counts() -> Dict[str, int]:
    """Per-kernel invocation counters since process start (a copy)."""
    return dict(_counts)


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
