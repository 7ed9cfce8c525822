"""Saving and loading a built HINT index.

Index construction is a bulk operation (seconds for millions of
intervals); services that restart frequently want to mmap a prebuilt
index instead.  The format is a single ``.npz`` file holding every
level's subdivision arrays under systematic keys plus a small metadata
header — portable, versioned, and loadable with plain numpy.
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np

from repro.hint.index import HintIndex
from repro.hint.tables import LevelData, SubdivisionTable

__all__ = ["save_index", "load_index", "CLASS_KEYS", "TABLE_COLUMNS"]

PathLike = Union[str, pathlib.Path]

FORMAT_VERSION = 1

#: Systematic per-level table keys, in :meth:`LevelData.tables` order:
#: the ``.npz`` archive format enumerates a :class:`HintIndex`'s arrays
#: through these constants.
CLASS_KEYS = ("o_in", "o_aft", "r_in", "r_aft")

#: Optional (nullable) array columns of a :class:`SubdivisionTable`, in
#: addition to the always-present ``offsets``/``ids``.
TABLE_COLUMNS = ("offsets", "ids", "st", "end", "comp")

# Backwards-compatible private aliases (pre-engine internal names).
_CLASS_KEYS = CLASS_KEYS
_COLUMNS = TABLE_COLUMNS


def save_index(index: HintIndex, path: PathLike) -> None:
    """Serialize *index* to ``path`` (numpy ``.npz``, compressed)."""
    payload = {
        "meta": np.array(
            [
                FORMAT_VERSION,
                index.m,
                index.num_intervals,
                int(index.storage_optimized),
            ],
            dtype=np.int64,
        )
    }
    for data in index.levels:
        for cls_key, table in zip(_CLASS_KEYS, data.tables()):
            prefix = f"L{data.level}_{cls_key}"
            payload[f"{prefix}_offsets"] = table.offsets
            payload[f"{prefix}_ids"] = table.ids
            payload[f"{prefix}_keybits"] = np.array(
                [table.key_bits], dtype=np.int64
            )
            for column in ("st", "end", "comp"):
                value = getattr(table, column)
                if value is not None:
                    payload[f"{prefix}_{column}"] = value
    np.savez_compressed(path, **payload)


def _check_archive_complete(archive, m: int) -> None:
    """Demand every level's mandatory keys before touching any of them.

    A truncated or doctored archive would otherwise surface as a bare
    ``KeyError`` deep in the load loop; diagnose it up front with the
    full list of what is missing.
    """
    present = set(archive.files)
    missing = []
    for level in range(m + 1):
        for cls_key in _CLASS_KEYS:
            prefix = f"L{level}_{cls_key}"
            for column in ("offsets", "ids", "keybits"):
                key = f"{prefix}_{column}"
                if key not in present:
                    missing.append(key)
    if missing:
        shown = ", ".join(missing[:6])
        more = f" (+{len(missing) - 6} more)" if len(missing) > 6 else ""
        raise ValueError(
            f"index archive is truncated or corrupted: m={m} requires "
            f"{4 * (m + 1)} level tables but {len(missing)} mandatory "
            f"key(s) are missing: {shown}{more}"
        )


def load_index(path: PathLike) -> HintIndex:
    """Load an index previously written by :func:`save_index`.

    Raises
    ------
    ValueError
        On a version mismatch, a malformed metadata header, or an
        archive whose level tables are incomplete for the stored ``m``.
    """
    with np.load(path) as archive:
        if "meta" not in archive.files:
            raise ValueError(
                "index archive is missing its 'meta' header; not a "
                "save_index archive?"
            )
        meta = archive["meta"]
        if meta.size != 4:
            raise ValueError(
                f"index archive 'meta' header has {meta.size} entries, "
                "expected 4"
            )
        version, m, num_intervals, storage_optimized = (int(v) for v in meta)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format version {version} "
                f"(expected {FORMAT_VERSION})"
            )
        _check_archive_complete(archive, m)
        levels = []
        for level in range(m + 1):
            tables = []
            for cls_key in _CLASS_KEYS:
                prefix = f"L{level}_{cls_key}"
                tables.append(
                    SubdivisionTable(
                        offsets=archive[f"{prefix}_offsets"],
                        ids=archive[f"{prefix}_ids"],
                        st=archive.get(f"{prefix}_st"),
                        end=archive.get(f"{prefix}_end"),
                        comp=archive.get(f"{prefix}_comp"),
                        key_bits=int(archive[f"{prefix}_keybits"][0]),
                    )
                )
            levels.append(LevelData(level, *tables))
        return HintIndex.from_levels(
            m, num_intervals, bool(storage_optimized), levels
        )
