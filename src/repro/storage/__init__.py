"""Tiered storage: a cold store for sealed ISB history.

The tilt time frame keeps every sealed slot of every cell resident, which
the paper's own arithmetic says is the wrong default at scale — sealed
history dominates storage while queries overwhelmingly touch the recent
hot set.  This package splits the two tiers: hot state (the unsealed
quarter plus the most recent tilt slots) stays in RAM; everything older is
*demoted* into a :class:`~repro.storage.files.FileColdStore` as packed
columnar pages (:class:`~repro.storage.pages.ColdPage`) and faulted back
transparently when a deep-history window needs it.

Layout of the package:

* :mod:`repro.storage.pages` — the checksummed binary page codec (one page
  per ``(level, interval)``, all cells' rows).
* :mod:`repro.storage.files` — the store and its contract (``put_segment``
  / ``get_segment`` / ``scan`` / ``stats`` / ``compact``): append-only
  partitioned ``.seg`` files, mmap reads, latest-occurrence-wins
  compaction.
* :mod:`repro.storage.spill` — the :class:`~repro.storage.spill.ColdIndex`
  span bookkeeping and the demotion-cutoff arithmetic the engine uses.
* :mod:`repro.storage.layout` — per-shard store sets with generation
  tags, so a k→j reshard repartitions cold pages without disturbing the
  generation a live cube is still reading.
"""

from repro.storage.files import BACKEND, FileColdStore, StoreStats
from repro.storage.layout import (
    StorageConfig,
    open_shard_stores,
    prune_stale_generations,
    shard_store_path,
)
from repro.storage.pages import PAGE_VERSION, ColdPage, pack_f64, unpack_f64
from repro.storage.spill import ColdIndex, demotion_cutoffs

__all__ = [
    "BACKEND",
    "PAGE_VERSION",
    "ColdPage",
    "StoreStats",
    "FileColdStore",
    "ColdIndex",
    "demotion_cutoffs",
    "StorageConfig",
    "open_shard_stores",
    "prune_stale_generations",
    "shard_store_path",
    "pack_f64",
    "unpack_f64",
]
