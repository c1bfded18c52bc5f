"""A quarter-granular write-ahead log for stream ingestion.

Snapshots (:mod:`repro.stream.state`) make sealed history durable, but the
*current unsealed quarter* lives only in per-cell accumulators — a crash
mid-quarter would lose every record since the last seal.  The
:class:`QuarterWAL` closes that gap: every accepted batch (and every
explicit clock advance) is journaled *before* it is applied, tagged with a
monotonically increasing sequence number and the quarter it lands in.

Recovery composes with snapshots by sequence number, not by time: a cube
snapshot's manifest records the WAL's high-water mark (``wal_seq``) at the
moment the state was copied, and :meth:`QuarterWAL.replay` applies only
entries *after* that mark.  A snapshot taken mid-quarter therefore never
double-counts journaled records, and ``restore + replay`` reproduces the
uninterrupted cube bit for bit — the accumulators are rebuilt by the very
same ``ingest_batch`` calls, in the original order.

Retention is by segment.  Every append goes to the *active* segment, the
file the journal is named by (``wal.jsonl``).  :meth:`truncate_through`
(called after a successful snapshot with its ``wal_seq``) seals the active
segment by renaming it to ``wal.jsonl.<first>-<last>`` (its seq range,
zero-padded to 12 digits), starts a fresh active segment, and unlinks every
sealed segment the mark covers.  Truncation reads nothing — the ranges are
in the names — so in steady state the journal is one active segment
holding the traffic since the last snapshot.  A sealed segment that
straddles the mark stays until a later truncation covers it; replay skips
its covered prefix by seq.  Sequence numbers are dense (a rejected append
does not consume one), so a sealed segment must start right after the
previous one ends and the active segment right after the last sealed one:
a break in that chain inside the replayed range raises
:class:`~repro.errors.WalCorruptionError` naming the missing seqs.

Format: each segment is one JSON object per line (append-only,
human-inspectable), starting with a header that names the seq the segment
follows, so a segment holding no entries still carries the numbering::

    {"format": "repro-wal", "version": 2, "after_seq": 0, "crc": ...}
    {"seq": 1, "kind": "batch", "quarter": 0, "keys": [[3, 1], [0, 2]],
     "codes": "AAEA", "t0": 2, "ticks": "AA==", "runs": "Aw==",
     "z": "...", "crc": ...}
    {"seq": 2, "kind": "advance", "quarter": 3, "t": 45, "crc": ...}

A batch line carries its records as packed columns.  ``keys`` lists the
batch's distinct cell keys once, in first-seen order; the rest are
base64 of little-endian arrays: ``codes`` holds each record's index into
``keys``, ``ticks`` / ``runs`` the ticks run-length encoded — per run of
equal consecutive ticks, its offset from the batch's smallest tick ``t0``
and its length (a batch usually spans very few distinct ticks; every tick
stays exact) — and ``z`` the measures as ``float64`` (bit-exact).  The
integer columns are unsigned and as narrow as their values allow, and no
line names a width: ``codes`` follow from the key count, ``runs`` from
the record count (``z``'s), and ``ticks`` from the run count.  The ingest paths hand the
codes of their own interning pass to the journal, so a key is hashed
once per batch, not once more to be written.

Version 1 journals (the header says ``"version": 1``) wrote each batch as
``"records": [[values, t, z], ...]`` rows.  They still replay, through a
read-only decoder, and a version 1 active segment is appended to in the
packed form (one segment, mixed lines).  A version 2 journal, or a
version 1 segment holding packed lines, is not readable by builds that
predate the packed form.

A journal written as a single file by earlier builds is simply an active
segment with no sealed ones.  Every line carries a CRC32 of its own body;
only a version 1 segment may hold lines without one (journals from before
the checksum).  A torn or unverifiable *final* line (crash mid-append) is
tolerated on read — the entry was never acknowledged, so dropping it is
correct, and opening the journal cuts it off before the next append can
extend it; a line that fails to parse or checksum anywhere else means
acknowledged history is unreadable and raises
:class:`~repro.errors.WalCorruptionError` with the segment, line number,
byte offset and last intact sequence number.  A line that parses and
checksums but has the wrong shape — a missing field, bad base64, columns
whose lengths disagree, a code past the key list — is a schema problem,
not corruption, and raises :class:`~repro.errors.CodecError`.

Appends run through the :mod:`repro.faults` seam (site ``wal.append``)
and repair injected short writes: a failed append rolls the segment back
to its length before the write and retries once, so a transient EIO or
torn write never leaves a half-line for the next recovery to trip over.
"""

from __future__ import annotations

import base64
import binascii
import errno
import json
import os
import re
import zlib
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Iterator, NamedTuple

import numpy as np

from repro import faults
from repro.errors import (
    CodecError,
    StorageError,
    StreamError,
    WalCorruptionError,
)
from repro.regression import kernels
from repro.stream.records import RecordColumns, StreamRecord

if TYPE_CHECKING:
    from repro.service.sharding import ShardedStreamCube

__all__ = ["QuarterWAL", "WalEntry"]

_FORMAT = "repro-wal"

#: The journal's own header version.  Deliberately *not* tied to
#: ``repro.io.STATE_VERSION``.  Version 2 journals batches as packed
#: columns; version 1 segments (row-shaped batches) still replay.
_WAL_VERSION = 2
_READABLE_VERSIONS = (1, 2)

Values = tuple[Hashable, ...]


@dataclass(frozen=True)
class WalEntry:
    """One journaled action, decoded (a batch straight to columns)."""

    seq: int
    kind: str  # "batch" | "advance"
    quarter: int
    batch: RecordColumns | None = None
    t: int | None = None

    @property
    def records(self) -> list[StreamRecord] | None:
        """The batch as records, for inspection (replay ingests ``batch``)."""
        if self.batch is None:
            return None
        return list(
            map(
                StreamRecord,
                self.batch.values,
                self.batch.ticks.tolist(),
                self.batch.z.tolist(),
            )
        )


def _uint(largest: int) -> str:
    """The narrowest little-endian unsigned type that holds ``largest``."""
    for bits in (8, 16, 32):
        if largest < 1 << bits:
            return f"<u{bits // 8}"
    return "<u8"


def _b64(column: Any, dtype: str) -> str:
    return base64.b64encode(np.asarray(column, dtype=dtype).tobytes()).decode(
        "ascii"
    )


def _batch_codes(
    batch: RecordColumns, ids: kernels.Column | None
) -> tuple[list[Values], kernels.Column]:
    """The batch's distinct keys (first-seen order) and each record's code.

    ``ids`` are the records' cell ids when their keys are the batch's
    values: codes are then numbered from them, nothing hashed.  Without
    them the values are interned here, one hash per record.
    """
    if ids is None:
        code: dict[Values, int] = defaultdict(count().__next__)
        group = kernels.int_column(map(code.__getitem__, batch.values))
        return list(code), group
    group, first = kernels.first_seen_groups(ids)
    return [batch.values[i] for i in first.tolist()], group


def _encode_batch(
    seq: int,
    quarter: int,
    batch: RecordColumns,
    ids: kernels.Column | None = None,
) -> dict[str, Any]:
    keys, codes = _batch_codes(batch, ids)
    ticks = batch.ticks
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ticks)) + 1))
    t0 = int(ticks.min())
    # Exact: every tick lies in [t0, t0 + 2**64), whatever int64 wraps to.
    offsets = (ticks[starts] - t0).view(np.uint64)
    return {
        "seq": seq,
        "kind": "batch",
        "quarter": quarter,
        "keys": keys,  # json renders the key tuples as arrays
        "codes": _b64(codes, _uint(len(keys) - 1)),
        "t0": t0,
        "ticks": _b64(offsets, _uint(int(offsets.max()))),
        "runs": _b64(np.diff(starts, append=len(ticks)), _uint(len(ticks))),
        "z": _b64(batch.z, "<f8"),
    }


def _encode_line(payload: dict[str, Any]) -> bytes:
    """One newline-terminated journal line with a CRC32 of its body.

    The checksum covers the line exactly as serialized *without* the
    ``crc`` key, which is spliced in last — the same bytes as
    ``json.dumps({**payload, "crc": crc})`` from one ``json.dumps``.
    Verification re-serializes the loaded payload (JSON object order
    round-trips) so no canonicalization pass is needed.
    """
    body = json.dumps(payload).encode("utf-8")
    return b'%s, "crc": %d}\n' % (body[:-1], zlib.crc32(body))


def _line_crc_ok(payload: dict[str, Any], crc: Any) -> bool:
    expected = zlib.crc32(json.dumps(payload).encode("utf-8"))
    return isinstance(crc, int) and crc == expected


def _seq_of(payload: Any) -> int:
    try:
        return int(payload["seq"])
    except KeyError as exc:
        raise CodecError(f"wal: entry missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CodecError(f"wal: malformed entry ({exc})") from None


def _raw(payload: dict[str, Any], field: str) -> bytes:
    try:
        return base64.b64decode(payload[field], validate=True)
    except binascii.Error as exc:
        raise CodecError(
            f"wal: batch column {field!r} is not base64 ({exc})"
        ) from None


def _column(payload: dict[str, Any], field: str, dtype: str) -> kernels.Column:
    """One base64 column of a packed batch, as a writable native array."""
    raw = _raw(payload, field)
    width = np.dtype(dtype).itemsize
    if len(raw) % width:
        raise CodecError(
            f"wal: batch column {field!r} holds {len(raw)} bytes, not a "
            f"whole number of {width}-byte items"
        )
    return np.frombuffer(raw, dtype=dtype).astype(dtype[1:])


def _decode_packed(payload: dict[str, Any]) -> RecordColumns:
    keys = [tuple(key) for key in payload["keys"]]
    z = _column(payload, "z", "<f8")
    n = len(z)
    codes = _column(payload, "codes", _uint(len(keys) - 1))
    runs = _column(payload, "runs", _uint(n))
    if not n or len(codes) != n or not runs.all() or int(runs.sum()) != n:
        raise CodecError(
            f"wal: batch columns disagree: {n} z, {len(codes)} codes, "
            f"tick runs of {runs.tolist()[:8]} records"
        )
    if int(codes.max()) >= len(keys):
        raise CodecError(
            f"wal: batch code {int(codes.max())} is past its "
            f"{len(keys)} keys"
        )
    # One offset per run: the width is what the run count leaves.
    raw, t0 = _raw(payload, "ticks"), payload["t0"]
    width = len(raw) // len(runs)
    if width not in (1, 2, 4, 8) or width * len(runs) != len(raw):
        raise CodecError(
            f"wal: batch ticks hold {len(raw)} bytes for {len(runs)} runs"
        )
    offsets = np.frombuffer(raw, dtype=f"<u{width}").astype(np.uint64)
    top = t0 + int(offsets.max()) if type(t0) is int else None
    if top is None or not -(2**63) <= t0 <= top < 2**63:
        raise CodecError(f"wal: batch ticks from t0 {t0!r} leave int64")
    ticks = (offsets + np.uint64(t0 % 2**64)).view(np.int64)
    return RecordColumns(
        list(map(keys.__getitem__, codes.tolist())),
        np.repeat(ticks, runs),
        z,
    )


def _decode_rows(rows: Any) -> RecordColumns:
    """A version 1 batch: ``[[values, t, z], ...]`` rows (read only)."""
    return RecordColumns(
        [tuple(values) for values, _, _ in rows],
        kernels.int_column(t for _, t, _ in rows),
        kernels.float_column(z for _, _, z in rows),
    )


def _decode_entry(seq: int, payload: dict[str, Any]) -> WalEntry:
    try:
        kind = payload["kind"]
        quarter = int(payload["quarter"])
        if kind == "batch":
            batch = (
                _decode_rows(payload["records"])
                if "records" in payload
                else _decode_packed(payload)
            )
            return WalEntry(seq, "batch", quarter, batch=batch)
        if kind == "advance":
            return WalEntry(seq, "advance", quarter, t=int(payload["t"]))
        raise CodecError(f"wal: unknown entry kind {kind!r}")
    except CodecError:
        raise
    except KeyError as exc:
        raise CodecError(f"wal: entry missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CodecError(f"wal: malformed entry ({exc})") from None


def _sealed_path(path: Path, first: int, last: int) -> Path:
    return path.with_name(f"{path.name}.{first:012d}-{last:012d}")


def _sealed_segments(path: Path) -> list[tuple[int, int, Path]]:
    """``(first, last, file)`` of each sealed segment of ``path``, oldest
    first — found by name alone."""
    if not path.parent.is_dir():
        return []
    pattern = re.compile(re.escape(path.name) + r"\.(\d{12})-(\d{12})")
    found = []
    for candidate in path.parent.iterdir():
        match = pattern.fullmatch(candidate.name)
        if match:
            found.append((int(match[1]), int(match[2]), candidate))
    return sorted(found)


class _Segment(NamedTuple):
    """One segment as read: what its header and intact lines say."""

    after_seq: int | None  # the seq the header says it follows (None: old)
    first: int | None  # seq of its first entry (None: no entries)
    last: int | None  # seq of its last entry
    entries: list[WalEntry]  # decoded: only those past the requested mark
    intact: int  # byte length of its intact prefix


def _read_header(path: Path, header: Any) -> tuple[int, int | None]:
    """A segment header's ``(version, after_seq)``."""
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise CodecError(f"wal: {path} has no {_FORMAT} header")
    version = header.get("version")
    if version not in _READABLE_VERSIONS:
        raise CodecError(f"wal: {path} has unsupported version {version!r}")
    after = header.get("after_seq")
    if after is not None and not isinstance(after, int):
        raise CodecError(f"wal: {path} header has a malformed after_seq")
    return version, after


def _read_segment(path: Path, decode_after: int | None = None) -> _Segment:
    """Verify one segment line by line, decoding the entries with
    ``seq > decode_after`` (none when ``None``) as it goes — each line's
    parsed JSON is dropped at once, so a long segment never holds more
    than its decoded columns.

    Bytes after the last newline and a checksum-failing final line are
    an append that was never acknowledged: left out, and not counted as
    intact.  A line that fails to parse or checksum anywhere else raises
    :class:`WalCorruptionError` — and so does a line without a checksum
    in a segment whose header is version 2 or later (only version 1
    journals predate the checksum); a missing segment, or one with
    nothing intact, reads as empty.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raw = b""
    *lines, tail = raw.split(b"\n")
    version = None
    after = first = last = None
    entries: list[WalEntry] = []
    offset = intact = 0
    for i, line in enumerate(lines):
        line_offset = offset
        offset += len(line) + 1
        if not line.strip():
            continue
        final = i == len(lines) - 1 and not tail
        try:
            payload = json.loads(line)
        except ValueError:  # not JSON, or a flipped byte broke the UTF-8
            if final:
                break
            raise WalCorruptionError(
                f"wal: {path} line {i + 1} (byte offset {line_offset}) is "
                f"not valid JSON; last intact seq is {last or 0}"
            ) from None
        if not isinstance(payload, dict):
            raise CodecError(f"wal: {path} line {i + 1} is not a JSON object")
        crc = payload.pop("crc", None)
        # Only version 1 segments predate the checksum; a header checks
        # itself against the version it claims.
        claimed = payload.get("version") if version is None else version
        if crc is None:
            unsigned = claimed in _READABLE_VERSIONS and claimed >= 2
            problem = f"has no checksum in a version {claimed} segment"
        else:
            unsigned = not _line_crc_ok(payload, crc)
            problem = "failed its checksum"
        if unsigned:
            if final:
                break
            raise WalCorruptionError(
                f"wal: {path} line {i + 1} (byte offset {line_offset}, "
                f"claims seq {payload.get('seq')!r}) {problem}; "
                f"last intact seq is {last or 0}"
            )
        if version is None:
            version, after = _read_header(path, payload)
        else:
            last = _seq_of(payload)
            first = last if first is None else first
            if decode_after is not None and last > decode_after:
                entries.append(_decode_entry(last, payload))
        intact = offset
    return _Segment(after, first, last, entries, intact)


class QuarterWAL:
    """An append-only journal of ingestion, replayable after a restore.

    Parameters
    ----------
    path:
        The journal's active segment; sealed segments live beside it as
        ``<path>.<first>-<last>``.  Created (with a version header) if
        absent.  An existing active segment is scanned once to recover
        the sequence high-water mark (its header's ``after_seq``, or the
        newest sealed segment's name, supplies it when the active one
        holds no entries), so appends continue where the previous process
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
        self._repairs = 0
        self._headerless = False
        sealed = _sealed_segments(self.path)
        # A crash between a rotation's rename and its new header leaves
        # only sealed segments: numbering continues from the newest.
        self._seq = sealed[-1][1] if sealed else 0
        self._first: int | None = None  # oldest seq in the active segment
        if self.path.exists():
            active = _read_segment(self.path)
            if active.intact < self.path.stat().st_size:
                # A torn final append (or a file with no intact header):
                # cut it so the next append starts on a line of its own.
                os.truncate(self.path, active.intact)
            if active.last is not None:
                self._first, self._seq = active.first, active.last
            elif active.after_seq is not None:
                self._seq = active.after_seq
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open_segment()

    @staticmethod
    def exists(path: str | Path) -> bool:
        """Whether any segment of the journal at ``path`` is on disk."""
        path = Path(path)
        return path.exists() or bool(_sealed_segments(path))

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
        self,
        records: RecordColumns | Iterable[StreamRecord],
        quarter: int,
        ids: kernels.Column | None = None,
    ) -> int:
        """Journal one validated, quarter-ordered batch; returns its seq.

        The ingest paths hand over the batch's columns as they are, and
        ``ids`` — each record's cell id, when the cells are keyed by the
        batch's values — so the packed line's codes are numbered from
        them; records are converted at the door.  ``quarter`` is the batch's
        *ending* quarter (the last record's — batches are quarter-ordered).
        Callers journal after validation and before mutation, so the log
        only ever holds batches the engine accepted — replay cannot trip
        the ordering contract the original ingestion already checked.
        """
        batch = RecordColumns.of(records)
        if not len(batch):
            return self._seq
        return self._append_entry(
            _encode_batch(self._seq + 1, quarter, batch, ids)
        )

    def append_advance(self, t: int, quarter: int) -> int:
        """Journal one explicit clock advance; returns its seq."""
        seq = self._seq + 1
        return self._append_entry(
            {"seq": seq, "kind": "advance", "quarter": quarter, "t": t}
        )

    def _append_entry(self, payload: dict[str, Any]) -> int:
        """Append one entry; its seq is taken only once the line is down,
        so a rejected append leaves no hole in the numbering."""
        if self._headerless:
            self._write_header()  # a failed rotation left it without one
        self._append_line(payload)
        self._seq = payload["seq"]
        if self._first is None:
            self._first = self._seq
        return self._seq

    def _open_segment(self) -> None:
        """Open the active segment for appends; a new one gets its header."""
        self._file = open(self.path, "ab")
        if self._file.tell() == 0:
            self._write_header()

    def _write_header(self) -> None:
        """Start the active segment: the header names the seq it follows,
        so a segment holding no entries still carries the numbering."""
        self._headerless = True
        self._append_line(
            {
                "format": _FORMAT,
                "version": _WAL_VERSION,
                "after_seq": self._seq,
            }
        )
        os.fsync(self._file.fileno())
        self._headerless = False

    def _append_line(self, payload: dict[str, Any]) -> None:
        if self._file.closed:
            raise StreamError(f"WAL {self.path} is closed")
        line = _encode_line(payload)
        start = self._file.tell()
        try:
            self._write_durably(line)
        except OSError as exc:
            self._repair_append(line, start, exc)

    def _write_durably(self, line: bytes) -> None:
        faults.check("wal.append")
        if faults.active() is not None:
            # A write-side bit flip reaches the file silently; the line
            # CRC catches it on the next recovery scan.
            line = faults.corrupt("wal.append", line)
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

    def _repair_append(self, line: bytes, start: int, cause: OSError) -> None:
        """Roll back a failed append to the segment's prior length and retry.

        A failed ``write`` may have left part (or all) of the line behind;
        the entry was never acknowledged, so cutting the segment back to
        where the append began restores the journal exactly and the
        append can run again.  A second failure is rolled back the same
        way and means the device is genuinely refusing writes — that
        surfaces as a typed :class:`StorageError` and the caller's batch
        is cleanly rejected (journal-before-apply: no state was mutated).
        """
        self._rollback(start)
        self._repairs += 1
        try:
            self._write_durably(line)
        except OSError as exc:
            self._rollback(start)
            raise StorageError(
                f"WAL {self.path} append failed even after short-write "
                f"repair (first: {cause}; retry: {exc})"
            ) from exc

    def _rollback(self, size: int) -> None:
        """Cut the active segment back to ``size`` bytes and reopen it."""
        try:
            self._file.close()
        except OSError:
            pass  # the failed write's buffered bytes are discarded anyway
        os.truncate(self.path, size)
        self._file = open(self.path, "ab")
        os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def entries(self, after_seq: int = 0) -> Iterator[WalEntry]:
        """Decoded entries with ``seq > after_seq``, in journal order.

        Sealed segments are chained oldest first, then the active one; a
        sealed segment that ends at or below ``after_seq`` is not opened,
        and only the entries yielded are decoded.  A break in the segment
        chain that reaches past ``after_seq`` raises
        :class:`WalCorruptionError` naming the missing seqs.  A torn or
        checksum-failing *final* line is dropped (the crash interrupted
        an append that was never acknowledged); a line that fails to
        parse or checksum anywhere else raises
        :class:`WalCorruptionError` with the segment, line number, byte
        offset and last intact sequence number.  A line that parses and
        checksums but has the wrong shape raises :class:`CodecError`.
        """
        sealed = _sealed_segments(self.path)
        active = _read_segment(self.path, decode_after=after_seq)
        chain = list(sealed)
        if active.after_seq is not None or active.first is not None:
            # An old header names no after_seq: its first entry stands in.
            first = (
                active.first if active.after_seq is None
                else active.after_seq + 1
            )
            last = active.last if active.last is not None else first - 1
            chain.append((first, last, self.path))
        for (_, prev, _), (first, _, segment) in zip(chain, chain[1:]):
            if first == prev + 1 or max(first - 1, prev) <= after_seq:
                continue  # linked, or the break lies wholly below the mark
            missing = (
                f"; seqs {prev + 1}-{first - 1} are missing"
                if first > prev + 1
                else ""
            )
            raise WalCorruptionError(
                f"wal: segment chain broken at {segment}: it starts at seq "
                f"{first} but the segment before it ends at {prev}"
                f"{missing}"
            )
        for _, last, segment in sealed:
            if last > after_seq:
                yield from _read_segment(segment, after_seq).entries
        yield from active.entries

    def replay(self, cube: ShardedStreamCube, after_seq: int = 0) -> int:
        """Re-apply journaled actions after ``after_seq`` to a restored
        cube (``ingest_batch`` / ``advance_to``); returns the count.

        Pass the snapshot manifest's ``wal_seq`` as ``after_seq`` so only
        actions newer than the snapshot are replayed — together they
        reproduce the uninterrupted run bit for bit.

        If the cube has a WAL attached (the usual recovery idiom: restore
        with the journal wired in, then replay it), journaling is
        suspended for the duration — replayed actions are already durable
        in the log, and re-appending them would double them on the *next*
        recovery.
        """
        attached, cube.wal = cube.wal, None
        applied = 0
        try:
            for entry in self.entries(after_seq):
                if entry.kind == "batch":
                    assert entry.batch is not None
                    cube.ingest_batch(entry.batch)
                else:
                    assert entry.t is not None
                    cube.advance_to(entry.t)
                applied += 1
        finally:
            cube.wal = attached
        return applied

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def truncate_through(self, seq: int) -> int:
        """Drop the segments holding only entries ``<= seq``; returns how
        many entries they held.

        Called after a successful snapshot with the snapshot's ``wal_seq``:
        everything at or below that mark is durable in the snapshot.  When
        the active segment holds any entry it is fsynced and renamed to a
        sealed segment and a fresh one (header fsynced) takes its place;
        then every sealed segment ending at or below ``seq`` is unlinked,
        oldest first.  Nothing is read — the seq ranges are in
        memory and in the segment names — so a covered entry that no
        longer checksums cannot block compaction.
        """
        if self._first is not None:
            os.fsync(self._file.fileno())
            self._file.close()
            sealed = _sealed_path(self.path, self._first, self._seq)
            os.rename(self.path, sealed)
            self._first = None
            self._open_segment()
        dropped = 0
        for first, last, segment in _sealed_segments(self.path):
            if last > seq:
                break
            segment.unlink()
            dropped += last - first + 1
        return dropped
