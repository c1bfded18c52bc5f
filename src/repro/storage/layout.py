"""Per-shard cold store sets with generation tags.

A sharded cube needs one cold store per shard, and a k→j reshard needs the
cold pages repartitioned — without disturbing the generation a still-live
cube may be reading.  The layout under one storage root::

    root/
      g0001.ok                        # marker: {"generation", "n_shards", "backend"}
      g0001-shard-00-of-03/           # one directory of .seg files per shard
      g0001-shard-01-of-03/
      g0001-shard-02-of-03/
      g0002.ok
      g0002-shard-00-of-05/
      ...

:func:`open_shard_stores` opens the newest complete generation when its
shard count matches, and otherwise *repartitions* it into a fresh
generation: every page key in the union of the old stores is re-split row
by row with the caller's ``shard_key`` (the same stable hash the cube
routes records with), empty pages included — a shard with no rows for an
interval still needs the zero row for late-born cells.  The marker file is
written only after every new store is populated, so a crash mid-reshard
leaves the old generation authoritative and the partial one inert.
Every marker records ``"backend": "file"``; a root whose markers say
otherwise was written by a build with another store and is refused before
anything is created under it.

Old generations are never pruned at open (a live cube may hold them);
:func:`prune_stale_generations` runs from the checkpoint/compaction path.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable

from repro.errors import StorageError
from repro.storage.files import BACKEND, FileColdStore
from repro.storage.pages import ColdPage

__all__ = [
    "StorageConfig",
    "open_shard_stores",
    "prune_stale_generations",
    "shard_store_path",
]

Values = tuple[Hashable, ...]
ShardKey = Callable[[Values, int], int]

_MARKER_RE = re.compile(r"^g(\d{4})\.ok$")


@dataclass(frozen=True)
class StorageConfig:
    """Tiered-storage configuration of one sharded cube (or ``serve``).

    ``root`` holds every generation of per-shard stores; ``hot_quarters``
    is the hot horizon each shard engine keeps resident before demoting
    sealed slots.
    """

    root: str | Path
    hot_quarters: int = 4

    def __post_init__(self) -> None:
        if self.hot_quarters < 1:
            raise StorageError("hot_quarters must be >= 1")


def shard_store_path(
    root: str | Path, generation: int, shard: int, n_shards: int
) -> Path:
    """The store directory of one shard in one generation."""
    name = f"g{generation:04d}-shard-{shard:02d}-of-{n_shards:02d}"
    return Path(root) / name


def _marker_path(root: Path, generation: int) -> Path:
    return root / f"g{generation:04d}.ok"


def _read_generations(root: Path) -> list[dict]:
    """Complete generations under ``root``, oldest first."""
    out = []
    for path in sorted(root.iterdir()) if root.exists() else []:
        match = _MARKER_RE.match(path.name)
        if not match:
            continue
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
            backend = str(meta["backend"])
            meta = {
                "generation": int(meta["generation"]),
                "n_shards": int(meta["n_shards"]),
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(
                f"storage marker {path} is malformed ({exc})"
            ) from None
        if meta["generation"] != int(match.group(1)):
            raise StorageError(
                f"storage marker {path} disagrees with its own name"
            )
        if backend != BACKEND:
            raise StorageError(
                f"storage generation {meta['generation']} under {root} "
                f"holds {backend!r} stores; only {BACKEND!r} stores can "
                "be opened"
            )
        out.append(meta)
    return sorted(out, key=lambda m: m["generation"])


def _write_marker(root: Path, generation: int, n_shards: int) -> None:
    path = _marker_path(root, generation)
    tmp = path.with_suffix(".ok.tmp")
    tmp.write_text(
        json.dumps(
            {
                "generation": generation,
                "n_shards": n_shards,
                "backend": BACKEND,
            }
        ),
        encoding="utf-8",
    )
    os.replace(tmp, path)


def _open_generation(
    root: Path, generation: int, n_shards: int
) -> list[FileColdStore]:
    return [
        FileColdStore(shard_store_path(root, generation, i, n_shards))
        for i in range(n_shards)
    ]


def open_shard_stores(
    config: StorageConfig,
    n_shards: int,
    shard_key: ShardKey,
) -> tuple[int, list[FileColdStore]]:
    """Open (creating or repartitioning as needed) ``n_shards`` cold stores.

    Returns ``(generation, stores)``.  ``shard_key(values, n_shards)`` must
    be the same stable routing the cube applies to records — repartitioned
    rows land on the shard that will seal that cell's future quarters.
    """
    if n_shards < 1:
        raise StorageError("n_shards must be >= 1")
    root = Path(config.root)
    generations = _read_generations(root)
    root.mkdir(parents=True, exist_ok=True)
    if not generations:
        stores = _open_generation(root, 1, n_shards)
        _write_marker(root, 1, n_shards)
        return 1, stores
    newest = generations[-1]
    if newest["n_shards"] == n_shards:
        return newest["generation"], _open_generation(
            root, newest["generation"], n_shards
        )
    return _repartition(root, newest, n_shards, shard_key)


def _repartition(
    root: Path,
    newest: dict,
    n_shards: int,
    shard_key: ShardKey,
) -> tuple[int, list[FileColdStore]]:
    """Split the newest generation's pages row-by-row into a fresh one."""
    old_stores = _open_generation(
        root, newest["generation"], newest["n_shards"]
    )
    generation = newest["generation"] + 1
    new_stores = _open_generation(root, generation, n_shards)
    keys: set[tuple[int, int, int]] = set()
    for store in old_stores:
        keys.update(store.scan())
    for level, t_b, t_e in sorted(keys):
        pages = []
        for store in old_stores:
            try:
                pages.append(store.get_segment(level, t_b, t_e))
            except StorageError:
                continue  # that shard held no rows for this interval
        if not pages:  # pragma: no cover - scan/get raced nothing here
            continue
        zero = pages[0]
        split: list[tuple[list[Values], list[float], list[float]]] = [
            ([], [], []) for _ in range(n_shards)
        ]
        for page in pages:
            for key, base, slope in zip(page.keys, page.base, page.slope):
                j = shard_key(key, n_shards)
                split[j][0].append(key)
                split[j][1].append(base)
                split[j][2].append(slope)
        for j, (skeys, sbase, sslope) in enumerate(split):
            # Empty pages are still written: a shard with no rows for
            # this interval still answers late-born cells' fault-ins
            # with the zero row.
            new_stores[j].put_segment(
                ColdPage(
                    level,
                    t_b,
                    t_e,
                    skeys,
                    sbase,
                    sslope,
                    zero_base=zero.zero_base,
                    zero_slope=zero.zero_slope,
                )
            )
    _write_marker(root, generation, n_shards)
    return generation, new_stores


def prune_stale_generations(
    config: StorageConfig, keep_generation: int
) -> int:
    """Delete every generation older than ``keep_generation``.

    Only the checkpoint path calls this (after a successful snapshot +
    compaction), when no live cube can still be reading the old sets.
    Returns the number of generations removed.
    """
    root = Path(config.root)
    removed = 0
    for meta in _read_generations(root):
        generation = meta["generation"]
        if generation >= keep_generation:
            continue
        for i in range(meta["n_shards"]):
            path = shard_store_path(root, generation, i, meta["n_shards"])
            if path.is_dir():
                shutil.rmtree(path)
        _marker_path(root, generation).unlink()
        removed += 1
    return removed
