"""Pure-NumPy reference implementations of the hot-path kernels.

Every function here is the behavioural contract of the JIT backend in
:mod:`repro.kernels.jit`: same signatures, same dtypes, same element
order in every output array.  The differential tests in
``tests/test_kernels.py`` hold the two backends to bit-identical
results, so either can serve a batch.

The gather/scatter idiom is the ``repeat``-based flattening the
vectorized partition-based strategy already uses: variable-length row
ranges are expanded into one flat row vector so each copy is a single
vectorized operation, with total work proportional to the
number of touched rows — exactly like the scalar loops the JIT backend
compiles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "scatter_ranges",
    "scatter_segments",
    "xor_segments",
]

#: A slice copy costs ~0.4 us whatever its length, the index expansion
#: ~15 ns per row (more once its temporaries outgrow the cache): ranges at
#: least this long are copied one slice each, the rest in one expansion.
_SLICE_COPY_ROWS = 32


def scatter_ranges(src, lo, hi, sel, out, cursors):
    """Copy ``src[lo[i]:hi[i]]`` to ``out`` at ``cursors[sel[i]]``,
    advancing each cursor.

    ``sel`` maps range *i* to its query slot; slots must be unique
    within one call (the sweep passes ``flatnonzero`` outputs).  ``out``
    and ``cursors`` are mutated in place.
    """
    lengths = np.maximum(hi - lo, 0)
    dest = cursors[sel]
    cursors[sel] += lengths
    long = lengths >= _SLICE_COPY_ROWS
    if long.any():
        for a, d, n in zip(
            lo[long].tolist(), dest[long].tolist(), lengths[long].tolist()
        ):
            out[d : d + n] = src[a : a + n]
        short = ~long
        lo, dest, lengths = lo[short], dest[short], lengths[short]
    total = int(lengths.sum())
    if total:
        starts = np.cumsum(lengths) - lengths
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        out[np.repeat(dest, lengths) + within] = src[np.repeat(lo, lengths) + within]


def scatter_segments(flat, offsets, sel, out, cursors):
    """Copy segment ``flat[offsets[i]:offsets[i+1]]`` to ``out`` at
    ``cursors[sel[i]]``, advancing each cursor."""
    scatter_ranges(flat, offsets[:-1], offsets[1:], sel, out, cursors)


def xor_segments(flat, offsets):
    """XOR-fold each segment ``flat[offsets[i]:offsets[i+1]]``."""
    n = offsets.size - 1
    out = np.zeros(n, dtype=np.int64)
    if flat.size:
        nonempty = np.flatnonzero(offsets[1:] > offsets[:-1])
        # Segments tile ``flat`` contiguously (empty ones have zero
        # width), so reduceat over the nonempty starts folds exactly
        # each nonempty segment.
        out[nonempty] = np.bitwise_xor.reduceat(flat, offsets[:-1][nonempty])
    return out
