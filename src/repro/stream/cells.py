"""One cell table per cube: each m-layer cell key's integer id.

The stream cube's unit of identity is the m-layer cell (paper Section 4).
A batch hashes each record's key once, at the door, and carries ids from
there: routing takes the table's owner column, a shard takes its own
id -> row column, and the merged read concatenates the shards' ids.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.regression import kernels

__all__ = ["CellTable", "stable_shard_index"]

Values = tuple[Hashable, ...]


def stable_shard_index(values: Values, n_shards: int) -> int:
    """The owning shard of one m-layer key.

    Python's built-in ``hash`` is salted per process for strings, which would
    scatter the same key to different shards across restarts.  An unkeyed
    blake2b digest over a canonical encoding is stable everywhere and cheap
    enough to run once per birth.
    """
    digest = hashlib.blake2b(
        b"\x1f".join(repr(value).encode("utf-8") for value in values)
        + b"\x1f",
        digest_size=8,
    )
    return int.from_bytes(digest.digest(), "big") % n_shards


class CellTable:
    """The live cells' ids, and each id's key and owner shard.

    Id ``i`` names ``keys[i]``, and ``owner[i]`` is its shard
    (:func:`stable_shard_index` over ``n_shards``); births append.  The
    key -> id dict holds live cells only: a prune retires its keys, and a
    key that speaks again is born with a new id.  :meth:`compact` drops the
    retired ids and renumbers the live ones (the sharded cube does after
    every prune that drops a cell), so the table is as long as the live
    cell set plus the births since.

    Concurrency: only mutators change a table, under the cube's write
    mutex — :meth:`commit` (births), :meth:`retire` (prunes, state loads)
    and :meth:`compact` under the write side of its lock as well.
    :meth:`admit` reads the dict and changes nothing, so a batch refused
    after it (by the journal) leaves the table as it was.  Readers only
    index ``keys``, with ids a shard gave them under the read side.
    """

    def __init__(
        self, validate: Callable[[Values], Values], n_shards: int = 1
    ) -> None:
        self.keys: list[Values] = []
        self.owner = np.zeros(0, dtype=np.int64)
        self.n_shards = n_shards
        self._validate = validate
        self._ids: dict[Values, int] = {}

    def id_of(self, key: Values) -> int | None:
        return self._ids.get(key)

    def admit(self, keys: Sequence[Values]) -> tuple[kernels.Column, list[Values]]:
        """Each key's id (one dict lookup a key), and the keys new to the
        table in first-seen order: validated, promised the next free ids,
        and the caller's to :meth:`commit` once the batch is accepted."""
        ids = np.fromiter(
            map(self._ids.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )
        born: dict[Values, int] = {}
        for i in np.flatnonzero(ids < 0).tolist():
            key = keys[i]
            cell = born.get(key)
            if cell is None:
                self._validate(key)
                cell = born[key] = len(self.keys) + len(born)
            ids[i] = cell
        return ids, list(born)

    def commit(self, born: list[Values]) -> None:
        """Give the keys :meth:`admit` found new the ids it promised them."""
        first, n = len(self.keys), len(self.keys) + len(born)
        self.keys.extend(born)
        self._ids.update(zip(born, range(first, n)))
        self.owner = kernels.grown(self.owner, n)
        if self.n_shards > 1:
            self.owner[first:n] = [
                stable_shard_index(key, self.n_shards) for key in born
            ]

    def retire(self, ids: kernels.Column) -> None:
        """Forget the keys of ``ids`` (ids stay readable): a retired key
        that speaks again is born with a new id."""
        for cell in ids.tolist():
            key = self.keys[cell]
            if self._ids.get(key) == cell:
                del self._ids[key]

    def compact(self) -> kernels.Column:
        """Drop the retired ids and renumber the live ones ``0..n-1`` in id
        order; returns each old id's new id (-1: retired).  Every holder of
        ids must take the renumbering before the next read."""
        live = np.sort(
            np.fromiter(self._ids.values(), dtype=np.int64, count=len(self._ids))
        )
        remap = np.full(len(self.keys), -1, dtype=np.int64)
        remap[live] = np.arange(len(live))
        self.keys = [self.keys[cell] for cell in live.tolist()]
        self.owner = self.owner[live]
        self._ids = dict(zip(self.keys, range(len(live))))
        return remap
