"""The cold store: append-only partitioned files of cold pages.

A :class:`FileColdStore` is a durable map from ``(level, t_b, t_e)`` to one
:class:`~repro.storage.pages.ColdPage`.  Its contract:

* ``put_segment`` is **idempotent by key**: re-putting the same interval —
  the crash-recovery path re-derives pages deterministically from the WAL —
  must leave the store answering with the latest page, never erroring.
* ``get_segment`` raises :class:`~repro.errors.StorageError` for a missing
  key; the engine treats that as corruption, not as "no data" (the
  :class:`~repro.storage.spill.ColdIndex` knows exactly what was demoted).
* ``scan`` lists every stored key in sorted order — what reshard
  repartitioning iterates.
* ``compact`` reclaims space held by superseded or deleted rows and
  returns the bytes freed; correctness never depends on calling it.

One directory per store; inside it, one segment file per ``(level, slot
bucket)`` partition, named ``L{level:02d}-{bucket:06d}.seg`` where
``bucket = t_b // partition_ticks``.  Appends are length-prefixed encoded
pages; nothing is ever rewritten in place, so a crash can only tear the
*tail* of one file, which the open-time scan truncates (the torn page was
never acknowledged and is re-derivable from the WAL).

Reads go through ``mmap``: the page's bytes are sliced straight out of the
mapping (then materialized, so the mapping closes immediately) and decoded
with ``frombuffer`` on the numpy path — no seek/read shuffle, no partial
parses.  The store keeps, weakly, the :class:`~repro.storage.pages.KeyBlock`
of every page it wrote or decoded that is still alive, by row count and
keys bytes: a fault of a page whose keys it already holds verifies the
page's checksum and shares that block, so pages spilled from one cell set
decode their keys once between them.

Re-putting an existing key appends a new occurrence; the in-memory index
keeps the **latest** occurrence per key, and :meth:`FileColdStore.compact`
rewrites each partition keeping only live occurrences (temp file +
``os.replace``, crash-safe).  Every call opens and closes its own file,
so a store holds no handle and needs no closing.
"""

from __future__ import annotations

import errno
import mmap
import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import faults
from repro.errors import CorruptionError, StorageError
from repro.storage.pages import (
    PAGE_HEADER_BYTES,
    ColdPage,
    KeyBlock,
    read_page_header,
)

__all__ = ["BACKEND", "FileColdStore", "StoreStats"]

#: What generation markers, snapshot manifests and the ``/stats`` storage
#: block record under ``"backend"``.  Anything else on read was written by
#: a build with another store and is refused.
BACKEND = "file"

_LEN = struct.Struct("<I")

#: Default ticks per partition file: one bucket per 4096 base ticks keeps
#: file counts low for hot workloads without ever mapping giant files.
DEFAULT_PARTITION_TICKS = 4096

# (path, offset-of-page-bytes, page-length, n_rows) per live key.
_Entry = tuple[Path, int, int, int]


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one cold store.

    ``pages``/``rows`` count live (latest-occurrence) pages; ``puts`` and
    ``gets`` are lifetime operation counters of this store *instance* —
    they reset on reopen, which is what the ``/stats`` block wants (spill
    and fault-in activity of the running process, not of all history).
    """

    pages: int
    rows: int
    bytes_on_disk: int
    puts: int
    gets: int
    #: Reads that failed once (I/O error or checksum) and succeeded on the
    #: immediate re-read — transient faults the store absorbed.
    read_retries: int = 0
    #: Failed appends rolled back and successfully retried.
    write_repairs: int = 0
    #: Pages dropped from the index because they were unreadable on both
    #: attempts; each raised a :class:`~repro.errors.CorruptionError`.
    quarantined: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": BACKEND,
            "pages": self.pages,
            "rows": self.rows,
            "bytes_on_disk": self.bytes_on_disk,
            "puts": self.puts,
            "gets": self.gets,
            "read_retries": self.read_retries,
            "write_repairs": self.write_repairs,
            "quarantined": self.quarantined,
        }


def _truncate(path: Path, size: int) -> None:
    """Roll ``path`` back to ``size`` bytes (a no-op if it is absent)."""
    if path.exists():
        with open(path, "r+b") as fh:
            fh.truncate(size)


class FileColdStore:
    """See the module docstring; ``root`` is created if absent."""

    def __init__(
        self,
        root: str | Path,
        partition_ticks: int = DEFAULT_PARTITION_TICKS,
    ) -> None:
        if partition_ticks < 1:
            raise StorageError("partition_ticks must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.partition_ticks = partition_ticks
        self._index: dict[tuple[int, int, int], _Entry] = {}
        self._puts = 0
        self._gets = 0
        self._read_retries = 0
        self._write_repairs = 0
        self._quarantined: list[tuple[int, int, int]] = []
        self._key_blocks: weakref.WeakValueDictionary[
            tuple[int, bytes], KeyBlock
        ] = weakref.WeakValueDictionary()
        for path in sorted(self.root.glob("L*.seg")):
            self._scan_file(path)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _partition_path(self, level: int, t_b: int) -> Path:
        bucket = t_b // self.partition_ticks
        return self.root / f"L{level:02d}-{bucket:06d}.seg"

    def _scan_file(self, path: Path) -> None:
        """Index one segment file by headers; truncate a torn tail."""
        data = path.read_bytes()
        offset = 0
        good = 0
        while offset < len(data):
            if offset + _LEN.size > len(data):
                break  # torn length prefix
            (length,) = _LEN.unpack_from(data, offset)
            start = offset + _LEN.size
            if start + length > len(data) or length < PAGE_HEADER_BYTES:
                break  # torn page bytes
            try:
                level, t_b, t_e, n_rows, keys_len, _, _, _ = read_page_header(
                    memoryview(data)[start : start + PAGE_HEADER_BYTES]
                )
            except StorageError:
                break  # header of a torn/garbled append
            if length != PAGE_HEADER_BYTES + keys_len + 16 * n_rows:
                break  # length prefix disagrees with the header: torn
            self._index[(level, t_b, t_e)] = (path, start, length, n_rows)
            offset = start + length
            good = offset
        if good < len(data):
            # Anything after the last whole page was a torn append that was
            # never acknowledged; drop it so future appends start clean.
            with open(path, "r+b") as fh:
                fh.truncate(good)

    # ------------------------------------------------------------------
    # The store contract
    # ------------------------------------------------------------------
    def put_segment(self, page: ColdPage) -> None:
        blob = page.encode()
        path = self._partition_path(page.level, page.t_b)
        offset = path.stat().st_size if path.exists() else 0
        try:
            self._append_blob(path, blob)
        except OSError as first:
            # A failed append may have left partial bytes behind.  The
            # page is re-derivable (spill re-puts are idempotent), so
            # roll the file back to the pre-append size and try once
            # more; a second failure means the device is refusing
            # writes and surfaces as a typed StorageError, with the
            # file rolled back again so no partial page stays behind.
            _truncate(path, offset)
            try:
                self._append_blob(path, blob)
            except OSError as exc:
                _truncate(path, offset)
                raise StorageError(
                    f"cold store append to {path} failed even after "
                    f"rollback (first: {first}; retry: {exc})"
                ) from exc
            self._write_repairs += 1
        self._index[(page.level, page.t_b, page.t_e)] = (
            path,
            offset + _LEN.size,
            len(blob),
            page.n_rows,
        )
        self._key_blocks[page.n_rows, page.block.text(page.n_rows)] = page.block
        self._puts += 1

    def _append_blob(self, path: Path, blob: bytes) -> None:
        faults.check("store.write")
        # A write-side bit flip reaches the disk silently: the checksum
        # only catches it on the next read, where quarantine takes over.
        blob = faults.corrupt("store.write", blob)
        with open(path, "ab") as fh:
            fh.write(_LEN.pack(len(blob)))
            if faults.torn("store.write"):
                fh.write(blob[: max(1, len(blob) // 2)])
                fh.flush()
                raise OSError(
                    errno.EIO, "injected torn write at store.write"
                )
            fh.write(blob)
            fh.flush()

    def get_segment(self, level: int, t_b: int, t_e: int) -> ColdPage:
        key = (level, t_b, t_e)
        entry = self._index.get(key)
        if entry is None:
            if key in self._quarantined:
                # Every later read of a quarantined page is corruption
                # too, so a degraded read keeps answering with a hole.
                raise CorruptionError(
                    f"cold store {self.root} has no page for level {level} "
                    f"[{t_b},{t_e}]: it was quarantined; rebuild it from "
                    "snapshot + WAL replay"
                )
            raise StorageError(
                f"cold store {self.root} has no page for level {level} "
                f"[{t_b},{t_e}]"
            )
        path, offset, length, _ = entry
        try:
            page = self._read_page(path, offset, length)
        except (OSError, StorageError):
            # Transient read faults (EIO, a flipped bit on the way in)
            # don't survive a second pass over the same bytes; real
            # on-disk corruption does, and gets quarantined.
            try:
                page = self._read_page(path, offset, length)
            except (OSError, StorageError) as exc:
                raise self._quarantine(key, exc) from exc
            self._read_retries += 1
        self._gets += 1
        return page

    def _read_page(self, path: Path, offset: int, length: int) -> ColdPage:
        faults.check("store.read")
        with open(path, "rb") as fh:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                data = bytes(mm[offset : offset + length])
        return ColdPage.decode(
            faults.corrupt("store.read", data), self._key_blocks
        )

    def _quarantine(
        self, key: tuple[int, int, int], cause: Exception
    ) -> CorruptionError:
        del self._index[key]
        self._quarantined.append(key)
        level, t_b, t_e = key
        return CorruptionError(
            f"cold store {self.root} page for level {level} "
            f"[{t_b},{t_e}] is unreadable and has been quarantined "
            f"({cause}); rebuild it from snapshot + WAL replay"
        )

    def scan(self) -> list[tuple[int, int, int]]:
        return sorted(self._index)

    def stats(self) -> StoreStats:
        on_disk = sum(
            p.stat().st_size for p in self.root.glob("L*.seg")
        )
        return StoreStats(
            pages=len(self._index),
            rows=sum(entry[3] for entry in self._index.values()),
            bytes_on_disk=on_disk,
            puts=self._puts,
            gets=self._gets,
            read_retries=self._read_retries,
            write_repairs=self._write_repairs,
            quarantined=len(self._quarantined),
        )

    def compact(self) -> int:
        """Drop superseded occurrences by rewriting each partition file."""
        by_path: dict[Path, list[tuple[tuple[int, int, int], _Entry]]] = {}
        for key, entry in self._index.items():
            by_path.setdefault(entry[0], []).append((key, entry))
        reclaimed = 0
        for path in sorted(self.root.glob("L*.seg")):
            live = sorted(by_path.get(path, ()), key=lambda kv: kv[1][1])
            old = path.read_bytes()
            new_entries: list[tuple[tuple[int, int, int], int, int, int]] = []
            chunks: list[bytes] = []
            offset = 0
            for key, (_, start, length, n_rows) in live:
                chunks.append(_LEN.pack(length))
                chunks.append(old[start : start + length])
                new_entries.append((key, offset + _LEN.size, length, n_rows))
                offset += _LEN.size + length
            if offset == len(old):
                continue  # nothing superseded in this file
            reclaimed += len(old) - offset
            if not live:
                path.unlink()
                continue
            tmp = path.with_suffix(".seg.tmp")
            with open(tmp, "wb") as fh:
                fh.write(b"".join(chunks))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            for key, start, length, n_rows in new_entries:
                self._index[key] = (path, start, length, n_rows)
        return reclaimed
