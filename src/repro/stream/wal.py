"""A quarter-granular write-ahead log for stream ingestion.

Snapshots (:mod:`repro.stream.state`) make sealed history durable, but the
*current unsealed quarter* lives only in per-cell accumulators — a crash
mid-quarter would lose every record since the last seal.  The
:class:`QuarterWAL` closes that gap: every accepted batch (and every
explicit clock advance) is journaled *before* it is applied, tagged with a
monotonically increasing sequence number and the quarter it lands in.

Recovery composes with snapshots by sequence number, not by time: a
snapshot records the WAL's high-water mark (``wal_seq``) at the moment the
state was copied, and :meth:`QuarterWAL.replay` applies only entries
*after* that mark.  A snapshot taken mid-quarter therefore never
double-counts journaled records, and ``restore + replay`` reproduces the
uninterrupted engine bit for bit — the accumulators are rebuilt by the very
same ``ingest_batch`` calls, in the original order.

The log is quarter-granular in its retention: entries carry their ending
quarter, and :meth:`truncate_through` (called after a successful snapshot)
compacts everything the snapshot already covers, so in steady state the
file holds roughly one unsealed quarter of traffic.

Format: one JSON object per line (append-only, human-inspectable)::

    {"format": "repro-wal", "version": 1, "crc": ...}             # header
    {"seq": 1, "kind": "batch", "quarter": 0, "records": [...], "crc": ...}
    {"seq": 2, "kind": "advance", "quarter": 3, "t": 45, "crc": ...}

Every line carries a CRC32 of its own body (lines from older journals
without one are still accepted).  A torn or unverifiable *final* line
(crash mid-append) is tolerated on read — the entry was never
acknowledged, so dropping it is correct; a line that fails to parse or
checksum anywhere else means acknowledged history is unreadable and
raises :class:`~repro.errors.WalCorruptionError` with the line number,
byte offset and last intact sequence number.  A line that parses and
checksums but has the wrong shape is a schema problem, not corruption,
and still raises :class:`~repro.errors.CodecError`.

Appends run through the :mod:`repro.faults` seam (site ``wal.append``)
and repair injected short writes: a failed append rolls the file back to
the last newline-terminated byte and retries once, so a transient EIO or
torn write never leaves a half-line for the next recovery to trip over.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol

from repro import faults
from repro.errors import (
    CodecError,
    StorageError,
    StreamError,
    WalCorruptionError,
)
from repro.stream.records import RecordColumns, StreamRecord

__all__ = ["QuarterWAL", "WalEntry"]

_FORMAT = "repro-wal"

#: The journal's own header version.  Deliberately *not* tied to
#: ``repro.io.STATE_VERSION``: the entry shape here has not changed, so
#: journals written before the snapshot codec went to v2 must keep
#: replaying.
_WAL_VERSION = 1


class _IngestTarget(Protocol):
    """What replay drives: the engine and the sharded cube both satisfy it
    (``ingest_batch`` on the cube, ``ingest_many`` on the engine)."""

    def advance_to(self, t: int) -> None: ...


@dataclass(frozen=True)
class WalEntry:
    """One journaled action, decoded."""

    seq: int
    kind: str  # "batch" | "advance"
    quarter: int
    records: list[StreamRecord] | None = None
    t: int | None = None


def _encode_batch(
    seq: int, quarter: int, batch: RecordColumns
) -> dict[str, Any]:
    return {
        "seq": seq,
        "kind": "batch",
        "quarter": quarter,
        "records": [
            [list(values), t, z]
            for values, t, z in zip(
                batch.values, batch.ticks.tolist(), batch.z.tolist()
            )
        ],
    }


def _encode_line(payload: dict[str, Any]) -> str:
    """Serialize one journal line with a trailing CRC32 of its body.

    The checksum covers the line exactly as serialized *without* the
    ``crc`` key; verification re-serializes the loaded payload (JSON
    object order round-trips, and ``crc`` is always appended last) so no
    canonicalization pass is needed.
    """
    body = json.dumps(payload)
    crc = zlib.crc32(body.encode("utf-8"))
    return json.dumps({**payload, "crc": crc})


def _line_crc_ok(payload: dict[str, Any], crc: Any) -> bool:
    expected = zlib.crc32(json.dumps(payload).encode("utf-8"))
    return isinstance(crc, int) and crc == expected


def _decode_entry(payload: dict[str, Any]) -> WalEntry:
    try:
        seq = int(payload["seq"])
        kind = payload["kind"]
        quarter = int(payload["quarter"])
        if kind == "batch":
            records = [
                StreamRecord(values=tuple(values), t=int(t), z=float(z))
                for values, t, z in payload["records"]
            ]
            return WalEntry(seq, "batch", quarter, records=records)
        if kind == "advance":
            return WalEntry(seq, "advance", quarter, t=int(payload["t"]))
        raise CodecError(f"wal: unknown entry kind {kind!r}")
    except CodecError:
        raise
    except KeyError as exc:
        raise CodecError(f"wal: entry missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CodecError(f"wal: malformed entry ({exc})") from None


class QuarterWAL:
    """An append-only journal of ingestion, replayable after a restore.

    Parameters
    ----------
    path:
        The journal file.  Created (with a version header) if absent;
        an existing journal is scanned once to recover the sequence
        high-water mark, so appends continue where the previous process
        stopped.
    sync:
        When true, ``fsync`` after every append — full durability at the
        cost of one disk flush per batch.  Off by default: the journal is
        flushed to the OS on every append either way, so only an OS crash
        (not a process crash) can lose acknowledged batches.
    """

    def __init__(self, path: str | Path, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        self._seq = 0
        self._repairs = 0
        # A zero-byte file (crash between create and header write, or a
        # pre-created empty file) and a file holding only a *torn* header
        # line (crash mid-header write) both count as absent: they get a
        # fresh header rather than silently accumulating headerless
        # entries that the next recovery could not read.
        fresh = not (self.path.exists() and self.path.stat().st_size > 0)
        if not fresh:
            lines = [
                line
                for line in self.path.read_text(
                    encoding="utf-8"
                ).splitlines()
                if line.strip()
            ]
            torn_header_only = False
            if len(lines) == 1:
                try:
                    json.loads(lines[0])
                except json.JSONDecodeError:
                    torn_header_only = True
            if torn_header_only:
                self.path.unlink()
                fresh = True
            else:
                for entry in self.entries():
                    self._seq = max(self._seq, entry.seq)
        if fresh:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
            self._append_line(
                {"format": _FORMAT, "version": _WAL_VERSION}
            )
        else:
            self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest journaled entry (0 when empty)."""
        return self._seq

    @property
    def repairs(self) -> int:
        """How many failed appends were rolled back and retried."""
        return self._repairs

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "QuarterWAL":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Journaling (called *before* the batch is applied)
    # ------------------------------------------------------------------
    def append_batch(
        self, records: RecordColumns | Iterable[StreamRecord], quarter: int
    ) -> int:
        """Journal one validated, quarter-ordered batch; returns its seq.

        The ingest paths hand over the batch's columns as they are (one
        row-shaped line is rendered from them); records are converted at
        the door.  ``quarter`` is the batch's *ending* quarter (the last
        record's — batches are quarter-ordered), the retention index
        compaction uses.
        Callers journal after validation and before mutation, so the log
        only ever holds batches the engine accepted — replay cannot trip
        the ordering contract the original ingestion already checked.
        """
        batch = RecordColumns.of(records)
        if not len(batch):
            return self._seq
        self._seq += 1
        self._append_line(_encode_batch(self._seq, quarter, batch))
        return self._seq

    def append_advance(self, t: int, quarter: int) -> int:
        """Journal one explicit clock advance; returns its seq."""
        self._seq += 1
        self._append_line(
            {"seq": self._seq, "kind": "advance", "quarter": quarter, "t": t}
        )
        return self._seq

    def _append_line(self, payload: dict[str, Any]) -> None:
        if self._file.closed:
            raise StreamError(f"WAL {self.path} is closed")
        line = _encode_line(payload) + "\n"
        try:
            self._write_durably(line)
        except OSError as exc:
            self._repair_append(line, exc)

    def _write_durably(self, line: str) -> None:
        faults.check("wal.append")
        if faults.active() is not None:
            # A write-side bit flip reaches the file silently; the line
            # CRC catches it on the next recovery scan.
            line = faults.corrupt("wal.append", line.encode("utf-8")).decode(
                "utf-8", errors="replace"
            )
        if faults.torn("wal.append"):
            # A short write: part of the line reaches the file, then the
            # device gives up.  Flush so the partial bytes are really
            # there — the repair path must cope with them on disk.
            self._file.write(line[: max(1, len(line) // 2)])
            self._file.flush()
            raise OSError(errno.EIO, "injected torn write at wal.append")
        self._file.write(line)
        self._file.flush()
        if self.sync and not faults.lie("wal.append"):
            os.fsync(self._file.fileno())

    def _repair_append(self, line: str, cause: OSError) -> None:
        """Roll back a failed append to the last intact line and retry.

        A failed ``write`` may have left a partial line behind; the entry
        was never acknowledged, so truncating back to the last
        newline-terminated byte restores the journal exactly and the
        append can run again.  A second failure means the device is
        genuinely refusing writes — that surfaces as a typed
        :class:`StorageError` and the caller's batch is cleanly rejected
        (journal-before-apply: no state was mutated).
        """
        self._file.close()
        raw = self.path.read_bytes()
        intact = raw.rfind(b"\n") + 1  # 0 when no newline survives
        if intact != len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(intact)
                fh.flush()
                os.fsync(fh.fileno())
        self._file = open(self.path, "a", encoding="utf-8")
        self._repairs += 1
        try:
            self._write_durably(line)
        except OSError as exc:
            raise StorageError(
                f"WAL {self.path} append failed even after short-write "
                f"repair (first: {cause}; retry: {exc})"
            ) from exc

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def entries(self, after_seq: int = 0) -> Iterator[WalEntry]:
        """Decoded entries with ``seq > after_seq``, in journal order.

        A torn or checksum-failing *final* line is dropped (the crash
        interrupted an append that was never acknowledged); a line that
        fails to parse or checksum anywhere else raises
        :class:`WalCorruptionError` with the line number, byte offset and
        last intact sequence number.  A line that parses and checksums
        but has the wrong shape raises :class:`CodecError`.
        """
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return
        payloads: list[dict[str, Any]] = []
        offset = 0
        last_seq = 0
        for i, line in enumerate(lines):
            line_offset = offset
            offset += len(line.encode("utf-8")) + 1
            if not line.strip():
                continue
            final = i == len(lines) - 1
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if final:
                    break  # torn final append: never acknowledged, drop it
                raise WalCorruptionError(
                    f"wal: {self.path} line {i + 1} (byte offset "
                    f"{line_offset}) is not valid JSON; last intact "
                    f"seq is {last_seq}"
                ) from None
            crc = (
                payload.pop("crc", None)
                if isinstance(payload, dict)
                else None
            )
            if crc is not None and not _line_crc_ok(payload, crc):
                if final:
                    break  # unverifiable final append: drop it too
                raise WalCorruptionError(
                    f"wal: {self.path} line {i + 1} (byte offset "
                    f"{line_offset}, claims seq "
                    f"{payload.get('seq')!r}) failed its checksum; "
                    f"last intact seq is {last_seq}"
                )
            if isinstance(payload, dict) and isinstance(
                payload.get("seq"), int
            ):
                last_seq = payload["seq"]
            payloads.append(payload)
        if not payloads or payloads[0].get("format") != _FORMAT:
            raise CodecError(f"wal: {self.path} has no {_FORMAT} header")
        if payloads[0].get("version") != _WAL_VERSION:
            raise CodecError(
                f"wal: {self.path} has unsupported version "
                f"{payloads[0].get('version')!r}"
            )
        for payload in payloads[1:]:
            entry = _decode_entry(payload)
            if entry.seq > after_seq:
                yield entry

    def replay(self, target: _IngestTarget, after_seq: int = 0) -> int:
        """Re-apply journaled actions after ``after_seq``; returns the count.

        ``target`` is a restored engine or sharded cube (anything with
        ``ingest_batch``/``ingest_many`` and ``advance_to``).  Pass the
        snapshot's ``wal_seq`` as ``after_seq`` so only actions newer than
        the snapshot are replayed — together they reproduce the
        uninterrupted run bit for bit.

        If the target has a WAL attached (the usual recovery idiom:
        restore with the journal wired in, then replay it), journaling is
        suspended for the duration — replayed actions are already durable
        in the log, and re-appending them would double them on the *next*
        recovery.
        """
        ingest = getattr(target, "ingest_batch", None) or getattr(
            target, "ingest_many"
        )
        attached = getattr(target, "wal", None)
        if attached is not None:
            target.wal = None
        applied = 0
        try:
            for entry in self.entries(after_seq):
                if entry.kind == "batch":
                    assert entry.records is not None
                    ingest(entry.records)
                else:
                    assert entry.t is not None
                    target.advance_to(entry.t)
                applied += 1
        finally:
            if attached is not None:
                target.wal = attached
        return applied

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def truncate_through(self, seq: int) -> int:
        """Drop entries with ``seq <= seq``; returns how many were dropped.

        Called after a successful snapshot with the snapshot's ``wal_seq``:
        everything at or below that mark is already durable in the
        snapshot, so in steady state the journal shrinks back to the
        current unsealed quarter's traffic.  The rewrite goes through a
        temp file + ``os.replace`` so a crash mid-compaction leaves either
        the old journal or the new one, never a torn file.
        """
        all_entries = list(self.entries())
        keep = [entry for entry in all_entries if entry.seq > seq]
        dropped = len(all_entries) - len(keep)
        if dropped == 0:
            return 0
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(
                _encode_line({"format": _FORMAT, "version": _WAL_VERSION})
                + "\n"
            )
            for entry in keep:
                if entry.kind == "batch":
                    assert entry.records is not None
                    payload = _encode_batch(
                        entry.seq,
                        entry.quarter,
                        RecordColumns.of(entry.records),
                    )
                else:
                    payload = {
                        "seq": entry.seq,
                        "kind": "advance",
                        "quarter": entry.quarter,
                        "t": entry.t,
                    }
                fh.write(_encode_line(payload) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        return dropped
