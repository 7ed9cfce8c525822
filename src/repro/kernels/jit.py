"""Numba-JIT implementations of the hot-path kernels.

Importing this module requires ``numba`` (the ``compiled`` install
extra); :mod:`repro.kernels.ops` attempts the import once at package
load and falls back to :mod:`repro.kernels.fallback` when it fails, so
production code never imports this module directly.

Every kernel is compiled with ``nogil=True``: once the machine code
exists, calls release the GIL for their whole run, so the ids merge
can run beside other threads.  ``cache=True``
persists the compiled artifacts on disk (honouring ``NUMBA_CACHE_DIR``),
so only the first process on a machine pays the compile.

The loops mirror :mod:`repro.kernels.fallback` exactly — same output
dtypes, same element order — and the differential tests enforce it.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = [
    "scatter_ranges",
    "scatter_segments",
    "xor_segments",
]

_JIT = {"nopython": True, "nogil": True, "cache": True}


@njit(**_JIT)
def scatter_ranges(src, lo, hi, sel, out, cursors):
    for i in range(lo.size):
        cur = cursors[sel[i]]
        for row in range(lo[i], hi[i]):
            out[cur] = src[row]
            cur += 1
        cursors[sel[i]] = cur


@njit(**_JIT)
def scatter_segments(flat, offsets, sel, out, cursors):
    for i in range(sel.size):
        cur = cursors[sel[i]]
        for row in range(offsets[i], offsets[i + 1]):
            out[cur] = flat[row]
            cur += 1
        cursors[sel[i]] = cur


@njit(**_JIT)
def xor_segments(flat, offsets):
    n = offsets.size - 1
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        x = np.int64(0)
        for row in range(offsets[i], offsets[i + 1]):
            x ^= flat[row]
        out[i] = x
    return out
