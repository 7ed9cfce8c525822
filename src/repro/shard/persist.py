"""Saving and loading a built :class:`~repro.shard.sharded.ShardedHint`.

The sharded layout maps naturally onto the existing single-index
``.npz`` format (:mod:`repro.hint.persist`): each shard's HINT index is
one ordinary ``save_index`` archive, the replica side tables live in one
additional archive, and a small JSON manifest ties them together —

::

    <dir>/manifest.json      k, m, cuts, counts, format version
    <dir>/shard-000.npz      shard 0's HintIndex (save_index format)
    <dir>/shard-001.npz      ...
    <dir>/replicas.npz       S{j}_end / S{j}_ids per shard

A shard archive is loadable with plain :func:`~repro.hint.persist.load_index`
too, which makes re-sharding and per-shard debugging one-liners.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from repro.hint.persist import load_index, save_index
from repro.shard.sharded import ShardedHint, _Shard

__all__ = ["save_sharded", "load_sharded"]

PathLike = Union[str, pathlib.Path]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
REPLICAS_NAME = "replicas.npz"


def _shard_name(j: int) -> str:
    return f"shard-{j:03d}.npz"


def save_sharded(sharded: ShardedHint, path: PathLike) -> None:
    """Serialize *sharded* into directory *path* (created if needed)."""
    root = pathlib.Path(path)
    root.mkdir(parents=True, exist_ok=True)
    replicas = {}
    for j, shard in enumerate(sharded.shards):
        save_index(shard.index, root / _shard_name(j))
        replicas[f"S{j}_end"] = shard.rep_end
        replicas[f"S{j}_ids"] = shard.rep_ids
    np.savez_compressed(root / REPLICAS_NAME, **replicas)
    manifest = {
        "format_version": MANIFEST_VERSION,
        "k": sharded.k,
        "m": sharded.m,
        "num_intervals": sharded.num_intervals,
        "storage_optimized": sharded.storage_optimized,
        "cuts": [int(c) for c in sharded.cuts],
        "shards": [
            {
                "file": _shard_name(j),
                "lo": shard.lo,
                "hi": shard.hi,
                "originals": len(shard.index),
                "replicas": int(shard.rep_ids.size),
            }
            for j, shard in enumerate(sharded.shards)
        ],
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


def load_sharded(path: PathLike) -> ShardedHint:
    """Load a sharded index previously written by :func:`save_sharded`.

    Raises
    ------
    ValueError
        On a missing/malformed manifest, a version mismatch, or missing
        shard archives — the same diagnose-up-front contract as
        :func:`~repro.hint.persist.load_index`.
    """
    root = pathlib.Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(
            f"{root} is not a sharded-index directory (no {MANIFEST_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {MANIFEST_NAME}: {exc}") from exc
    required = ("format_version", "k", "m", "num_intervals", "cuts", "shards")
    missing = [key for key in required if key not in manifest]
    if missing:
        raise ValueError(
            f"{MANIFEST_NAME} is missing key(s): {', '.join(missing)}"
        )
    if manifest["format_version"] != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported sharded-index format version "
            f"{manifest['format_version']} (expected {MANIFEST_VERSION})"
        )
    k = int(manifest["k"])
    cuts = np.asarray(manifest["cuts"], dtype=np.int64)
    entries = manifest["shards"]
    if len(entries) != k or cuts.size != k + 1:
        raise ValueError(
            f"{MANIFEST_NAME} is inconsistent: k={k} but "
            f"{len(entries)} shard entries / {cuts.size} cut points"
        )
    absent = [e["file"] for e in entries if not (root / e["file"]).is_file()]
    if not (root / REPLICAS_NAME).is_file():
        absent.append(REPLICAS_NAME)
    if absent:
        raise ValueError(
            f"sharded index at {root} is missing archive(s): "
            f"{', '.join(absent)}"
        )

    shards = []
    with np.load(root / REPLICAS_NAME) as replicas:
        for j, entry in enumerate(entries):
            rep_end = replicas.get(f"S{j}_end")
            rep_ids = replicas.get(f"S{j}_ids")
            if rep_end is None or rep_ids is None:
                raise ValueError(
                    f"{REPLICAS_NAME} is missing the S{j} replica arrays"
                )
            shards.append(
                _Shard(
                    int(cuts[j]),
                    int(cuts[j + 1]) - 1,
                    load_index(root / entry["file"]),
                    np.asarray(rep_end, dtype=np.int64),
                    np.asarray(rep_ids, dtype=np.int64),
                )
            )
    return ShardedHint.from_shards(
        shards,
        m=int(manifest["m"]),
        cuts=cuts,
        num_intervals=int(manifest["num_intervals"]),
        storage_optimized=bool(manifest.get("storage_optimized", True)),
    )
