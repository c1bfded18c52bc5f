"""The packed columnar page codec of the cold store.

One :class:`ColdPage` holds every cell's sealed ISB for one tilt-frame
``(level, [t_b, t_e])`` slot — a hot page of
:class:`~repro.tilt.frame.TiltPages` frozen to disk, columns unchanged.
Because all of an engine's cells advance in lockstep on one quarter grid, a
demoted slot has the *same* interval in every cell, so the interval is
stored once in the header and the body is just the cell keys (hot pages are
positional, but rows move when cells are pruned or re-sharded) plus two
float64 columns.

Binary layout (little-endian)::

    header  "<4sHHqqIIIdd"                               52 bytes
            magic b"RCP1", version, level,
            t_b, t_e, n_rows, keys_len, crc32,
            zero_base, zero_slope
    body    keys: compact JSON array of key arrays      keys_len bytes
            base:  n_rows float64                        8 * n_rows
            slope: n_rows float64                        8 * n_rows

The crc32 signs the *whole page* — header (with the crc field itself
zeroed) plus body — so a flipped bit anywhere, interval and zero row
included, is caught at decode time; body-only coverage would let a
corrupted ``zero_base`` silently rewrite every absent cell's history.

The embedded zero row is the engine's zero prototype's exact ISB for the
interval: a key missing from the page decodes to that row, which is
bit-identical to the zero-backfill a frame of the late-born cell's own
would have held.  A corrupt page raises
:class:`~repro.errors.CorruptionError` instead of decoding garbage.

The keys of a page are a prefix of the cell set it was spilled from, and
that set changes only on a birth, a prune or a reload, so pages share
their keys through a :class:`KeyBlock`: one tuple of key tuples, with the
JSON text of each prefix and a key -> row index built on first use.  The
engine spills every page of one cell generation from one block, and a
store decodes each distinct keys block once and hands the same block to
every page that carries it.

Floats travel as raw little-endian IEEE-754 doubles (``numpy`` ``tobytes``
/ ``frombuffer``), so pages round-trip bit for bit.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import repeat
from typing import Hashable, MutableMapping, Sequence

import numpy as np

from repro.errors import CorruptionError, StorageError
from repro.regression.isb import ISB
from repro.tilt.frame import take_rows

__all__ = [
    "PAGE_VERSION",
    "PAGE_HEADER_BYTES",
    "ColdPage",
    "KeyBlock",
    "read_page_header",
    "pack_f64",
    "unpack_f64",
]

Values = tuple[Hashable, ...]

#: Bump when the page layout changes; decoders reject unknown versions.
PAGE_VERSION = 1

_MAGIC = b"RCP1"
_HEADER = struct.Struct("<4sHHqqIIIdd")

#: Byte offset of the crc32 field within the header (zeroed for signing).
_CRC_OFFSET = struct.calcsize("<4sHHqqII")
_CRC_ZERO = b"\x00\x00\x00\x00"


def _page_crc(header: bytes, body: bytes) -> int:
    """crc32 over the whole page with the header's crc field zeroed."""
    unsigned = header[:_CRC_OFFSET] + _CRC_ZERO + header[_CRC_OFFSET + 4 :]
    return zlib.crc32(body, zlib.crc32(unsigned))

#: Size of the fixed page header in bytes.
PAGE_HEADER_BYTES = _HEADER.size


def pack_f64(values: Sequence[float]) -> bytes:
    """Raw little-endian IEEE-754 doubles (bit-exact)."""
    return np.asarray(values, dtype="<f8").tobytes()


def unpack_f64(buf: bytes, count: int, offset: int = 0) -> tuple[float, ...]:
    """Inverse of :func:`pack_f64` (reads ``count`` doubles at ``offset``)."""
    return tuple(
        np.frombuffer(buf, dtype="<f8", count=count, offset=offset).tolist()
    )


class KeyBlock:
    """One cell set's keys, shared by every page spilled from it.

    ``keys`` is a tuple of key tuples; a page of ``n`` rows holds the first
    ``n``.  :meth:`text` (the compact JSON a page of ``n`` rows stores) and
    :attr:`index` are built on first use and kept.
    """

    __slots__ = ("keys", "_texts", "_index", "__weakref__")

    def __init__(self, keys: tuple[Values, ...], text: bytes | None = None):
        self.keys = keys
        self._texts = {} if text is None else {len(keys): text}
        self._index: dict[Values, int] | None = None

    def text(self, n: int) -> bytes:
        """The compact JSON array of the first ``n`` keys."""
        text = self._texts.get(n)
        if text is None:
            text = self._texts[n] = json.dumps(
                self.keys[:n], separators=(",", ":")
            ).encode("utf-8")
        return text

    @property
    def index(self) -> dict[Values, int]:
        """Each key's row."""
        if self._index is None:
            self._index = dict(zip(self.keys, range(len(self.keys))))
        return self._index


class ColdPage:
    """One demoted tilt slot across all cells, ready to freeze or query.

    ``keys[i]``'s sealed ISB over ``[t_b, t_e]`` is
    ``ISB(t_b, t_e, base[i], slope[i])``; a key not in the page maps to the
    zero row (see the module docstring).  ``keys`` is a sequence of keys
    (a tuple of tuples is taken as it is) or a :class:`KeyBlock`, of which
    the page holds the first ``len(base)``.  Instances are value objects —
    the engine caches decoded pages and shares them freely.
    """

    __slots__ = (
        "level",
        "t_b",
        "t_e",
        "block",
        "base",
        "slope",
        "zero_base",
        "zero_slope",
        "_rows_over",
    )

    def __init__(
        self,
        level: int,
        t_b: int,
        t_e: int,
        keys: KeyBlock | Sequence[Values],
        base: Sequence[float],
        slope: Sequence[float],
        zero_base: float = 0.0,
        zero_slope: float = 0.0,
    ) -> None:
        if t_b > t_e:
            raise StorageError(f"cold page with empty interval [{t_b}, {t_e}]")
        if level < 0:
            raise StorageError(f"cold page with negative level {level}")
        if isinstance(keys, KeyBlock):
            self.block, fits = keys, len(base) <= len(keys.keys)
        else:
            if not isinstance(keys, tuple):
                keys = tuple(map(tuple, keys))
            self.block, fits = KeyBlock(keys), len(base) == len(keys)
        if not (fits and len(base) == len(slope)):
            raise StorageError(
                f"cold page row mismatch: {len(self.block.keys)} keys, "
                f"{len(base)} bases, {len(slope)} slopes"
            )
        self.level = level
        self.t_b = t_b
        self.t_e = t_e
        # The column type of :class:`~repro.tilt.frame.TiltPages`: a hot
        # page's column is adopted as it is, not re-boxed row by row.
        self.base = np.asarray(base, dtype=np.float64)
        self.slope = np.asarray(slope, dtype=np.float64)
        self.zero_base = float(zero_base)
        self.zero_slope = float(zero_slope)
        self._rows_over: tuple[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Introspection / row access
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self.base)

    @property
    def keys(self) -> tuple[Values, ...]:
        keys = self.block.keys
        return keys if len(keys) == len(self.base) else keys[: len(self.base)]

    @property
    def interval(self) -> tuple[int, int]:
        return (self.t_b, self.t_e)

    def zero_isb(self) -> ISB:
        """The zero prototype's exact ISB for this interval."""
        return ISB(self.t_b, self.t_e, self.zero_base, self.zero_slope)

    def row_of(self, key: Values) -> int:
        """``key``'s row in the page, or ``-1`` for a key absent at spill
        time — which reads the zero row (:meth:`isb`, :meth:`gather`)."""
        row = self.block.index.get(tuple(key), -1)
        return row if row < self.n_rows else -1

    def isb(self, key: Values) -> ISB:
        """``key``'s row, or the zero row for keys absent at spill time.

        The fallback is not a convenience: a cell born after this slot was
        sealed never had a row in its page, so its (never-materialized)
        slot for this interval *is* the zero row — returning it here keeps
        cold reads bit-identical to the zero-backfill a frame of the
        cell's own would hold.
        """
        i = self.row_of(key)
        if i < 0:
            return self.zero_isb()
        return ISB(
            self.t_b, self.t_e, float(self.base[i]), float(self.slope[i])
        )

    def gather(
        self, rows: Sequence[int]
    ) -> tuple[Sequence[float], Sequence[float]]:
        """``(base, slope)`` columns holding page row ``rows[i]`` at ``i``,
        the zero row wherever ``rows[i]`` is ``-1`` — a cold slot laid out
        over a reader's own row order, ready for a columnar merge."""
        return (
            take_rows(self.base, rows, self.zero_base),
            take_rows(self.slope, rows, self.zero_slope),
        )

    def rows_over(
        self, generation: str, keys: Sequence[Values], born: np.ndarray
    ) -> np.ndarray:
        """:meth:`gather` rows laying this page over a reader's cell set.

        Row ``i`` is ``keys[i]``'s page row, or ``-1`` where the page holds
        no such key or the cell was born after the page was sealed
        (``born[i] > t_e``: a pruned predecessor's row is not its history).
        ``generation`` names the reader's cell set, keys and births
        included; the rows are built once per generation, by C-level
        lookups, and kept until it moves.
        """
        held = self._rows_over
        if held is None or held[0] != generation:
            rows = np.fromiter(
                map(self.block.index.get, keys, repeat(-1)),
                dtype=np.intp,
                count=len(keys),
            )
            rows[born > self.t_e] = -1
            held = self._rows_over = (generation, rows)
        return held[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColdPage):
            return NotImplemented
        return (
            self.level == other.level
            and self.t_b == other.t_b
            and self.t_e == other.t_e
            and self.keys == other.keys
            and pack_f64(self.base) == pack_f64(other.base)
            and pack_f64(self.slope) == pack_f64(other.slope)
            and self.zero_base == other.zero_base
            and self.zero_slope == other.zero_slope
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColdPage(level={self.level}, [{self.t_b},{self.t_e}], "
            f"rows={self.n_rows})"
        )

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """The page as bytes: checksummed header + keys + two f64 columns."""
        keys_blob = self.block.text(self.n_rows)
        body = keys_blob + pack_f64(self.base) + pack_f64(self.slope)
        header = _HEADER.pack(
            _MAGIC,
            PAGE_VERSION,
            self.level,
            self.t_b,
            self.t_e,
            self.n_rows,
            len(keys_blob),
            0,  # crc placeholder: the signature covers header + body
            self.zero_base,
            self.zero_slope,
        )
        crc = _page_crc(header, body)
        return (
            header[:_CRC_OFFSET]
            + struct.pack("<I", crc)
            + header[_CRC_OFFSET + 4 :]
            + body
        )

    @property
    def encoded_size(self) -> int:
        """Byte length :meth:`encode` will produce (header + body)."""
        return (
            _HEADER.size + len(self.block.text(self.n_rows)) + 16 * self.n_rows
        )

    @classmethod
    def decode(
        cls,
        buf: bytes | memoryview,
        blocks: MutableMapping[tuple[int, bytes], KeyBlock] | None = None,
    ) -> "ColdPage":
        """Inverse of :meth:`encode`; validates magic, version and checksum.

        ``blocks`` maps ``(n_rows, keys block bytes)`` to a
        :class:`KeyBlock` holding those keys first: a block found there is
        shared, not parsed again, and one parsed here is added.  The
        checksum over the whole page is verified first either way.
        """
        data = bytes(buf)
        header = read_page_header(data)
        level, t_b, t_e, n_rows, keys_len, crc, zero_base, zero_slope = header
        at = _HEADER.size + keys_len
        need = at + 16 * n_rows
        if len(data) < need:
            raise StorageError(
                f"cold page truncated: {len(data)} bytes, need {need}"
            )
        body = memoryview(data)[_HEADER.size : need]
        if _page_crc(data[: _HEADER.size], body) != crc:
            raise CorruptionError(
                f"cold page checksum mismatch for level {level} "
                f"[{t_b},{t_e}] (corrupt page)"
            )
        text = data[_HEADER.size : at]
        block = None if blocks is None else blocks.get((n_rows, text))
        if block is None:
            block = _decode_keys(text, n_rows)
            if blocks is not None:
                blocks[n_rows, text] = block
        base = np.frombuffer(data, dtype="<f8", count=n_rows, offset=at)
        slope = np.frombuffer(
            data, dtype="<f8", count=n_rows, offset=at + 8 * n_rows
        )
        return cls(
            level, t_b, t_e, block, base, slope, zero_base, zero_slope
        )


def _decode_keys(text: bytes, n_rows: int) -> KeyBlock:
    try:
        keys = tuple(map(tuple, json.loads(text.decode("utf-8"))))
    except (ValueError, TypeError) as exc:
        raise StorageError(f"cold page keys block is invalid: {exc}") from None
    if len(keys) != n_rows:
        raise StorageError(
            f"cold page declares {n_rows} rows but has {len(keys)} keys"
        )
    return KeyBlock(keys, text)


def read_page_header(
    buf: bytes | memoryview,
) -> tuple[int, int, int, int, int, int, float, float]:
    """Decode just the fixed header of an encoded page.

    Returns ``(level, t_b, t_e, n_rows, keys_len, crc32, zero_base,
    zero_slope)``.  The full page length is ``PAGE_HEADER_BYTES + keys_len
    + 16 * n_rows`` — enough for a backend to index a file by headers alone
    without decoding any body.
    """
    if len(buf) < _HEADER.size:
        raise StorageError(
            f"cold page header truncated: {len(buf)} of {_HEADER.size} bytes"
        )
    magic, version, level, t_b, t_e, n_rows, keys_len, crc, zb, zs = (
        _HEADER.unpack_from(bytes(buf[: _HEADER.size]))
    )
    if magic != _MAGIC:
        raise StorageError(f"not a cold page (magic {magic!r})")
    if version != PAGE_VERSION:
        raise StorageError(
            f"unsupported cold page version {version} "
            f"(this build reads version {PAGE_VERSION})"
        )
    return (level, t_b, t_e, n_rows, keys_len, crc, zb, zs)
