"""Numba-JIT implementations of the hot-path kernels.

Importing this module requires ``numba`` (the ``compiled`` install
extra); :mod:`repro.kernels.ops` attempts the import once at package
load and falls back to :mod:`repro.kernels.fallback` when it fails, so
production code never imports this module directly.

Every kernel is compiled with ``nogil=True``: once the machine code
exists, calls release the GIL for their whole run, which is what lets
the ``threads+compiled`` engine backend scale the Python-loop-bound
work (ids materialization, masked probes) across cores.  ``cache=True``
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
    "masked_gather_end_geq",
    "masked_count_xor_end_geq",
    "xor_ranges",
    "xor_segments",
    "packed_prefix_cut",
    "packed_suffix_cut",
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
def masked_gather_end_geq(end_col, ids_col, lo, hi, thresholds):
    n = lo.size
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        c = 0
        for row in range(lo[i], hi[i]):
            if end_col[row] >= thresholds[i]:
                c += 1
        counts[i] = c
    offsets = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        offsets[i + 1] = offsets[i] + counts[i]
    flat = np.empty(offsets[n], dtype=np.int64)
    for i in range(n):
        cur = offsets[i]
        for row in range(lo[i], hi[i]):
            if end_col[row] >= thresholds[i]:
                flat[cur] = ids_col[row]
                cur += 1
    return counts, flat, offsets


@njit(**_JIT)
def masked_count_xor_end_geq(end_col, ids_col, lo, hi, thresholds, want_xor):
    n = lo.size
    counts = np.zeros(n, dtype=np.int64)
    xors = np.zeros(n, dtype=np.int64)
    for i in range(n):
        c = 0
        x = np.int64(0)
        for row in range(lo[i], hi[i]):
            if end_col[row] >= thresholds[i]:
                c += 1
                if want_xor:
                    x ^= ids_col[row]
        counts[i] = c
        xors[i] = x
    return counts, xors


@njit(**_JIT)
def xor_ranges(xor_prefix, lo, hi):
    out = np.empty(lo.size, dtype=np.int64)
    for i in range(lo.size):
        out[i] = xor_prefix[hi[i]] ^ xor_prefix[lo[i]]
    return out


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


@njit(**_JIT)
def _bisect(comp, needle, right):
    lo = 0
    hi = comp.size
    while lo < hi:
        mid = (lo + hi) // 2
        if comp[mid] < needle or (right and comp[mid] == needle):
            lo = mid + 1
        else:
            hi = mid
    return lo


@njit(**_JIT)
def packed_prefix_cut(comp, parts, values, key_bits):
    out = np.empty(parts.size, dtype=np.int64)
    for i in range(parts.size):
        out[i] = _bisect(comp, (parts[i] << key_bits) | values[i], True)
    return out


@njit(**_JIT)
def packed_suffix_cut(comp, parts, values, key_bits):
    out = np.empty(parts.size, dtype=np.int64)
    for i in range(parts.size):
        out[i] = _bisect(comp, (parts[i] << key_bits) | values[i], False)
    return out
