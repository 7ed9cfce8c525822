"""Zero-copy shared-memory packing of built HINT indexes.

A :class:`SharedIndexArena` flattens every array of a
:class:`~repro.hint.index.HintIndex` — or of every per-shard index of a
:class:`~repro.shard.ShardedHint` — into **one**
:mod:`multiprocessing.shared_memory` segment, described by a small
plain-data *manifest*.  Worker processes receive only the manifest
(a few KB of names and offsets), attach the segment once, and rebuild
numpy views over it: the index is shared with **zero copies** — no
pickling of megabyte-scale arrays per batch, no per-worker duplication
of the index, and attach cost is one ``mmap`` plus view construction.

The manifest enumerates each table's arrays through the same layout
metadata the ``.npz`` persistence format uses
(:data:`repro.hint.persist.CLASS_KEYS` /
:data:`~repro.hint.persist.TABLE_COLUMNS`), so the two serializations
cannot drift.  ``xor_prefix`` — normally built lazily on the first
checksum probe — is eagerly materialized via
:meth:`~repro.hint.index.HintIndex.precompute_aux` and packed, so no
worker ever pays (or races) the lazy build.

Lifecycle: the creating process owns the segment.  :meth:`addref` /
:meth:`release` refcount it; the last release **unlinks** the segment
(removing its ``/dev/shm`` entry — attached workers keep their mapping
until they exit, per POSIX semantics, so in-flight batches are safe).
A ``weakref.finalize`` backstop unlinks on garbage collection, and the
interpreter's resource tracker covers hard crashes of the owner.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.hint.index import HintIndex
from repro.hint.persist import CLASS_KEYS
from repro.hint.tables import LevelData, SubdivisionTable

__all__ = [
    "SharedIndexArena",
    "attach_index",
    "list_arena_segments",
    "SEGMENT_PREFIX",
]

MANIFEST_VERSION = 1

#: Prefix of every arena's shared-memory segment name — leak checks
#: (tests, ``make engine-smoke``) glob ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-arena"

_SHM_DIR = "/dev/shm"

_EMPTY = np.empty(0, dtype=np.int64)

Span = List[int]  # [element_offset, element_count] into the segment


def list_arena_segments() -> List[str]:
    """Names of live arena segments on this machine (POSIX only).

    Empty where ``/dev/shm`` does not exist (non-Linux); tests use the
    before/after delta of this listing as the leak oracle.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    Before Python 3.13 (``track=False``), merely *attaching* a segment
    registers it with the resource tracker, which unlinks everything
    still registered when it shuts down — a worker exiting would
    destroy a segment the owner is still serving from, and the owner's
    eventual explicit unlink would double-unregister (a stderr
    traceback in the tracker daemon).  Suppressing the registration for
    the duration of the attach keeps the tracker's cache balanced: only
    the creating owner is registered, exactly once, as crash insurance.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _Packer:
    """Accumulates int64 arrays and assigns segment spans."""

    def __init__(self) -> None:
        self.arrays: List[np.ndarray] = []
        self.total = 0

    def add(self, arr: Optional[np.ndarray]) -> Optional[Span]:
        if arr is None:
            return None
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        span = [self.total, int(arr.size)]
        self.arrays.append(arr)
        self.total += int(arr.size)
        return span


def _pack_table(table: SubdivisionTable, packer: _Packer) -> dict:
    table.precompute_aux()  # eager xor_prefix — no lazy build in workers
    return {
        "key_bits": int(table.key_bits),
        "offsets": packer.add(table.offsets),
        "ids": packer.add(table.ids),
        "st": packer.add(table.st),
        "end": packer.add(table.end),
        "comp": packer.add(table.comp),
        "xor_prefix": packer.add(table.xor_prefix),
    }


def _pack_hint(index: HintIndex, packer: _Packer) -> dict:
    levels = []
    for data in index.levels:
        levels.append(
            {
                cls_key: _pack_table(table, packer)
                for cls_key, table in zip(CLASS_KEYS, data.tables())
            }
        )
    return {
        "m": int(index.m),
        "num_intervals": int(index.num_intervals),
        "storage_optimized": bool(index.storage_optimized),
        "levels": levels,
    }


def _pack_sharded(sharded, packer: _Packer) -> dict:
    shards = []
    for shard in sharded.shards:
        shards.append(
            {
                "lo": int(shard.lo),
                "hi": int(shard.hi),
                "index": _pack_hint(shard.index, packer),
                "rep_end": packer.add(shard.rep_end),
                "rep_ids": packer.add(shard.rep_ids),
                "rep_xor_suffix": packer.add(shard.rep_xor_suffix),
                "orig_st": packer.add(shard.orig_st),
                "orig_ids": packer.add(shard.orig_ids),
                "orig_xor_prefix": packer.add(shard.orig_xor_prefix),
            }
        )
    return {
        "m": int(sharded.m),
        "k": int(sharded.k),
        "num_intervals": int(sharded.num_intervals),
        "storage_optimized": bool(sharded.storage_optimized),
        "cuts": [int(c) for c in sharded.cuts],
        "shards": shards,
    }


class SharedIndexArena:
    """One shared-memory segment holding a packed index.

    Parameters
    ----------
    index:
        A built :class:`~repro.hint.index.HintIndex` or
        :class:`~repro.shard.ShardedHint`; every array is copied into
        the segment **once**, here, at pack time — after that, sharing
        is free.

    Attributes
    ----------
    manifest:
        Plain-data (picklable) description of the segment layout; this
        is the *only* thing shipped to workers.
    nbytes:
        Segment payload size in bytes.
    """

    def __init__(self, index) -> None:
        # Import here: repro.shard already imports obs/strategies; the
        # arena must not force the shard layer on HintIndex-only users.
        from repro.shard.sharded import ShardedHint

        packer = _Packer()
        if isinstance(index, ShardedHint):
            body = _pack_sharded(index, packer)
            kind = "sharded"
        elif isinstance(index, HintIndex):
            body = _pack_hint(index, packer)
            kind = "hint"
        else:
            raise TypeError(
                "SharedIndexArena packs HintIndex or ShardedHint, got "
                f"{type(index).__name__}"
            )

        nbytes = max(packer.total * 8, 8)
        shm = None
        for _ in range(16):
            name = f"{SEGMENT_PREFIX}-{os.getpid():d}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes
                )
                break
            except FileExistsError:  # pragma: no cover - 2**32 collision
                continue
        if shm is None:  # pragma: no cover
            raise RuntimeError("could not allocate a unique arena segment")

        big = np.ndarray((packer.total,), dtype=np.int64, buffer=shm.buf)
        pos = 0
        for arr in packer.arrays:
            big[pos : pos + arr.size] = arr
            pos += arr.size
        del big  # release the buffer export so close() cannot raise

        self._shm = shm
        self.nbytes = packer.total * 8
        self.total_elems = packer.total
        self.manifest = {
            "version": MANIFEST_VERSION,
            "kind": kind,
            "segment": shm.name,
            "total_elems": packer.total,
            kind: body,
        }
        self._lock = threading.Lock()
        self._refs = 1
        self._unlinked = False
        # GC backstop: an arena dropped without release() must not leak
        # its /dev/shm entry for the life of the process.
        self._finalizer = weakref.finalize(
            self, SharedIndexArena._unlink_segment, shm
        )
        ob = obs.active()
        if ob is not None:
            ob.record_engine_arena(self.nbytes, 1)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @staticmethod
    def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
        try:
            shm.close()
        except Exception:  # pragma: no cover - already closed
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    @property
    def name(self) -> str:
        """Shared-memory segment name (the ``/dev/shm`` entry)."""
        return self.manifest["segment"]

    @property
    def refcount(self) -> int:
        with self._lock:
            return self._refs

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._unlinked

    def addref(self) -> "SharedIndexArena":
        """Register another owner; each must eventually :meth:`release`."""
        with self._lock:
            if self._unlinked:
                raise RuntimeError("arena is already unlinked")
            self._refs += 1
        return self

    def release(self) -> bool:
        """Drop one reference; unlink the segment when none remain.

        Returns ``True`` when this call performed the unlink.  Extra
        releases after the last one are no-ops — swap/close paths may
        race without double-unlink errors.
        """
        with self._lock:
            if self._unlinked:
                return False
            self._refs -= 1
            if self._refs > 0:
                return False
            self._unlinked = True
        self._finalizer.detach()
        self._unlink_segment(self._shm)
        ob = obs.active()
        if ob is not None:
            ob.record_engine_arena(-self.nbytes, -1)
        return True

    def close(self) -> None:
        """Alias of :meth:`release` for ``with``-style single owners."""
        self.release()

    def __enter__(self) -> "SharedIndexArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "unlinked" if self.closed else f"refs={self.refcount}"
        return (
            f"SharedIndexArena(kind={self.manifest['kind']!r}, "
            f"segment={self.name!r}, {self.nbytes / 1e6:.1f} MB, {state})"
        )


# --------------------------------------------------------------------- #
# attaching (worker side, and differential tests)
# --------------------------------------------------------------------- #


def _view(big: np.ndarray, span: Optional[Span]) -> Optional[np.ndarray]:
    if span is None:
        return None
    off, size = span
    return big[off : off + size]


def _attach_table(entry: dict, big: np.ndarray) -> SubdivisionTable:
    return SubdivisionTable(
        offsets=_view(big, entry["offsets"]),
        ids=_view(big, entry["ids"]),
        st=_view(big, entry["st"]),
        end=_view(big, entry["end"]),
        comp=_view(big, entry["comp"]),
        key_bits=int(entry["key_bits"]),
        _xor_prefix=_view(big, entry["xor_prefix"]),
    )


def _attach_hint(body: dict, big: np.ndarray) -> HintIndex:
    return HintIndex.from_levels(
        body["m"],
        body["num_intervals"],
        body["storage_optimized"],
        [
            LevelData(
                level,
                *(_attach_table(entry[cls_key], big) for cls_key in CLASS_KEYS),
            )
            for level, entry in enumerate(body["levels"])
        ],
    )


def _attach_sharded(body: dict, big: np.ndarray, only: Optional[set]):
    from repro.shard.sharded import ShardedHint, _Shard

    shards = []
    for j, entry in enumerate(body["shards"]):
        if only is not None and j not in only:
            shards.append(None)
            continue
        shards.append(
            _Shard.from_arrays(
                entry["lo"],
                entry["hi"],
                _attach_hint(entry["index"], big),
                _view(big, entry["rep_end"]),
                _view(big, entry["rep_ids"]),
                _view(big, entry["rep_xor_suffix"]),
                _view(big, entry["orig_st"]),
                _view(big, entry["orig_ids"]),
                _view(big, entry["orig_xor_prefix"]),
            )
        )
    if only is not None:
        return shards  # pinned worker: a sparse list, not a ShardedHint
    sharded = ShardedHint.from_shards(
        [s for s in shards],
        m=int(body["m"]),
        cuts=np.asarray(body["cuts"], dtype=np.int64),
        num_intervals=int(body["num_intervals"]),
        storage_optimized=bool(body["storage_optimized"]),
    )
    return sharded


def attach_index(
    manifest: dict, *, shards: Optional[List[int]] = None
) -> Tuple[object, shared_memory.SharedMemory]:
    """Rebuild an index as numpy views over an arena segment.

    Returns ``(index, shm)``; the caller must keep *shm* alive as long
    as the index is in use (the views borrow its mapping) and should
    simply drop both on exit — the **owner** unlinks, attachers never
    do (their resource-tracker registration is removed here, see
    :func:`_unregister`).

    ``shards`` restricts a ``"sharded"`` manifest to a subset of shard
    numbers (worker pinning); the result is then a list indexed by
    shard number with ``None`` holes, each entry a
    ``_Shard``.  With ``shards=None`` a full
    :class:`~repro.shard.ShardedHint` (or
    :class:`~repro.hint.index.HintIndex`) is returned.
    """
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported arena manifest version {manifest.get('version')!r} "
            f"(expected {MANIFEST_VERSION})"
        )
    shm = _attach_untracked(manifest["segment"])
    big = np.ndarray((manifest["total_elems"],), dtype=np.int64, buffer=shm.buf)
    big.flags.writeable = False  # indexes are immutable; so is the arena
    if manifest["kind"] == "hint":
        obj: object = _attach_hint(manifest["hint"], big)
    elif manifest["kind"] == "sharded":
        obj = _attach_sharded(
            manifest["sharded"], big, set(shards) if shards is not None else None
        )
    else:
        raise ValueError(f"unknown arena kind {manifest['kind']!r}")
    return obj, shm
