"""Pure-NumPy reference implementations of the hot-path kernels.

Every function here is the behavioural contract of the JIT backend in
:mod:`repro.kernels.jit`: same signatures, same dtypes, same element
order in every output array.  The differential tests in
``tests/test_kernels.py`` hold the two backends to bit-identical
results, so either can serve a batch.

The gather/scatter idiom is the ``repeat``-based flattening the
vectorized partition-based strategy already uses: variable-length row
ranges are expanded into one flat row vector so each filter or copy is
a single vectorized operation, with total work proportional to the
number of touched rows — exactly like the scalar loops the JIT backend
compiles.
"""

from __future__ import annotations

import numpy as np

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

_EMPTY = np.empty(0, dtype=np.int64)

#: A slice copy costs ~0.4 us whatever its length, the index expansion
#: ~15 ns per row (more once its temporaries outgrow the cache): ranges at
#: least this long are copied one slice each, the rest in one expansion.
_SLICE_COPY_ROWS = 32


def _flatten_ranges(lo, hi):
    """Expand per-query ranges ``[lo[i], hi[i])`` into flat row/query
    vectors: ``(lengths, rows, qid)`` with empty ranges contributing
    nothing."""
    lengths = np.maximum(hi - lo, 0)
    total = int(lengths.sum())
    if total == 0:
        return lengths, _EMPTY, _EMPTY
    starts = np.cumsum(lengths) - lengths
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    rows = np.repeat(lo, lengths) + within
    qid = np.repeat(np.arange(lo.size, dtype=np.int64), lengths)
    return lengths, rows, qid


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


def masked_gather_end_geq(end_col, ids_col, lo, hi, thresholds):
    """Gather ids of rows in ``[lo[i], hi[i])`` with
    ``end_col >= thresholds[i]``.

    Returns ``(counts, flat, offsets)`` — the flat-ids-plus-offsets
    layout the ids-mode pipeline is built around; within each query the
    surviving ids keep ascending row order.
    """
    n = lo.size
    lengths, rows, qid = _flatten_ranges(lo, hi)
    if not rows.size:
        return (
            np.zeros(n, dtype=np.int64),
            _EMPTY,
            np.zeros(n + 1, dtype=np.int64),
        )
    mask = end_col[rows] >= np.repeat(thresholds, lengths)
    rows_kept = rows[mask]
    counts = np.bincount(qid[mask], minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # rows iterate in qid-major order, so the kept ids land pre-grouped.
    return counts, ids_col[rows_kept], offsets


def masked_count_xor_end_geq(end_col, ids_col, lo, hi, thresholds, want_xor):
    """Count (and optionally XOR-fold the ids of) rows in
    ``[lo[i], hi[i])`` with ``end_col >= thresholds[i]``.

    Returns ``(counts, xors)``; ``xors`` stays all-zero when *want_xor*
    is false.
    """
    n = lo.size
    counts = np.zeros(n, dtype=np.int64)
    xors = np.zeros(n, dtype=np.int64)
    lengths, rows, qid = _flatten_ranges(lo, hi)
    if not rows.size:
        return counts, xors
    mask = end_col[rows] >= np.repeat(thresholds, lengths)
    if mask.any():
        qid_m = qid[mask]
        counts += np.bincount(qid_m, minlength=n)
        if want_xor:
            ids_m = ids_col[rows[mask]]
            group_starts = np.flatnonzero(np.r_[True, qid_m[1:] != qid_m[:-1]])
            xors[qid_m[group_starts]] = np.bitwise_xor.reduceat(
                ids_m, group_starts
            )
    return counts, xors


def xor_ranges(xor_prefix, lo, hi):
    """Per-range XOR of ids via the prefix-XOR column:
    ``xor_prefix[hi[i]] ^ xor_prefix[lo[i]]`` (0 for empty ranges)."""
    return xor_prefix[hi] ^ xor_prefix[lo]


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


def packed_prefix_cut(comp, parts, values, key_bits):
    """Upper cut of each partition's prefix with key <= value: one
    ``searchsorted`` against the packed ``comp`` column."""
    needles = (parts << key_bits) | values
    return np.searchsorted(comp, needles, side="right").astype(np.int64)


def packed_suffix_cut(comp, parts, values, key_bits):
    """Lower cut of each partition's suffix with key >= value."""
    needles = (parts << key_bits) | values
    return np.searchsorted(comp, needles, side="left").astype(np.int64)
