"""Explicit, serializable engine state (the durability seam).

The stream engine's internals — the page-columnar tilt store, the open
quarter's accumulator columns, activity bookkeeping — were process-private
until the durability refactor.  This module names that state:
:class:`EngineState` is a complete, self-contained extract of one
:class:`~repro.stream.engine.StreamCubeEngine`, deep enough that restoring
it (``StreamCubeEngine.restore``) yields an engine bit-identical to the
original, shallow enough that a snapshot never blocks ingestion for longer
than a state copy — and the copy is small: sealed pages are immutable, so
the snapshot *shares* the engine's page columns and copies only the clock,
the page lists and the open quarter.

``tilt`` mirrors the engine: the whole sealed history (one clock — the
zero prototype — plus per level one ``(base, slope)`` column pair per
retained slot, row ``i`` belonging to the ``i``-th cell of ``cells``).
``cells`` does not: in the engine the open quarter is four flat columns
over the cell rows (``sums`` and ``present``, ``ticks_per_quarter`` slots a
row, plus ``last_active_quarter`` and ``cold_since``); a snapshot reads
them out into one :class:`CellSnapshot` per cell — a ``tick_sums`` dict
holding entries only where the row has open ticks — and ``load_state``
scatters them back.  That keeps this type, its codec and every file
written by earlier builds exactly as they were.

What is *not* captured: the critical layers, the exception policy, and the
key function.  Those are code/configuration, not stream state — the caller
supplies them again on restore (exactly as it supplied them to the original
constructor), and the restored cells are re-validated against the supplied
schema so a snapshot cannot be silently loaded under an incompatible cube.
Cold *pages* are not captured either: with tiered storage the snapshot
records each level's demoted span (``cold_spans``) and each cell's birth
tick (``cold_since``); the pages themselves already live in the cold store
the caller reattaches on restore.

Serialization goes through :mod:`repro.io` (``engine_state_to_dict`` /
``engine_state_from_dict``); floats survive the JSON round trip bit for
bit.  On the wire the history is *row-major*: each cell's row carries its
``(base, slope)`` pair for every retained slot as one packed base64
float64 blob (the cold-page float codec,
:func:`repro.storage.pages.pack_f64`), zero rows written out — slot
*intervals* ride once, with the clock.  The codec transposes between that
and the in-memory pages, so the format (and ``STATE_VERSION``) is the one
earlier builds wrote.  There is one format version; a payload of any other
version is refused (re-snapshot with this build to migrate).
"""

from __future__ import annotations

import base64
import struct
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

import numpy as np

from repro.errors import CodecError
from repro.io import (
    STATE_VERSION,
    check_format,
    decoding,
    frame_from_dict,
    frame_to_dict,
    tilt_level_from_dict,
    tilt_level_to_dict,
)
from repro.tilt.frame import Page, TiltLevelSpec, TiltPages

__all__ = ["CellSnapshot", "EngineState"]

Values = tuple[Hashable, ...]

_PAIR = struct.Struct("<qd")


@dataclass(frozen=True)
class CellSnapshot:
    """What one m-layer cell holds beyond its rows in the page store.

    ``tick_sums`` is the cell's row of the open quarter — its per-tick sums
    where a record has landed, in ascending tick order, empty for a cell
    with nothing open — ``last_active_quarter`` the activity marker
    ``prune_idle`` reads, and ``cold_since`` the clock tick of the cell's
    birth (0 when tiered storage is off) — cold pages older than it answer
    the zero row for this cell, see
    :class:`repro.stream.engine.StreamCubeEngine`.  The dict is built for
    the snapshot — mutating the live engine afterwards does not disturb it.
    """

    tick_sums: dict[int, float]
    last_active_quarter: int
    cold_since: int = 0


@dataclass(frozen=True)
class EngineState:
    """A complete extract of one stream engine, ready to serialize.

    Attributes
    ----------
    ticks_per_quarter, frame_levels:
        The engine's time geometry (needed to rebuild compatible frames).
    current_quarter:
        The quarter accumulating at snapshot time.
    records_ingested:
        The engine's lifetime record counter.
    tilt:
        The sealed history of every cell: the engine's clock (its zero
        prototype) and the pages behind it.  Row ``i`` of every page is
        the ``i``-th cell of ``cells``; a page shorter than that answers
        its zero row (:class:`~repro.tilt.frame.TiltPages`).
    cells:
        Per-cell :class:`CellSnapshot`, keyed by m-layer values, in row
        order.
    wal_seq:
        Kept in the format and always 0 from an engine: shard engines
        never journal.  The recovery mark is the cube manifest's
        ``wal_seq`` (see :mod:`repro.stream.wal`).
    cold_spans:
        Per-level demoted ``(lo, hi)`` tick spans (``None`` per level with
        nothing demoted; ``None`` overall when the engine has no cold
        store).  Restore rebuilds the
        :class:`~repro.storage.spill.ColdIndex` from these — the pages
        themselves live in the cold store.
    """

    ticks_per_quarter: int
    frame_levels: tuple[TiltLevelSpec, ...]
    current_quarter: int
    records_ingested: int
    tilt: TiltPages
    cells: dict[Values, CellSnapshot]
    wal_seq: int = 0
    cold_spans: tuple[tuple[int, int] | None, ...] | None = None

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-ready form (see :mod:`repro.io`).

        Tick accumulators are emitted as packed ``(tick, sum)`` pairs in
        dict order (ascending ticks for an engine's snapshot; the restore
        path scatters them into the open-quarter columns, where order does
        not exist).  A page longer than the cell
        list has rows nothing owns; such a state is refused.
        """
        clock = self.tilt.clock
        if self.tilt.max_rows > len(self.cells):
            raise CodecError(
                f"engine_state: a page holds {self.tilt.max_rows} rows for "
                f"{len(self.cells)} cells"
            )
        payload: dict[str, Any] = {
            "format": "repro-engine-state",
            "version": STATE_VERSION,
            "ticks_per_quarter": self.ticks_per_quarter,
            "frame_levels": [
                tilt_level_to_dict(lv) for lv in self.frame_levels
            ],
            "current_quarter": self.current_quarter,
            "records_ingested": self.records_ingested,
            "wal_seq": self.wal_seq,
            "zero_frame": frame_to_dict(clock),
            "cells": [
                self._cell_row(values, cell, blob, self.current_quarter)
                for (values, cell), blob in zip(
                    self.cells.items(), self._slot_blobs()
                )
            ],
        }
        if self.cold_spans is not None:
            payload["cold_spans"] = [
                None if span is None else [span[0], span[1]]
                for span in self.cold_spans
            ]
        return payload

    def _slot_blobs(self) -> list[bytes]:
        """Per cell, its interleaved ``(base, slope)`` float64 pairs, one
        per retained slot, finest level first — the pages transposed."""
        n = len(self.cells)
        columns = [
            column
            for level in range(len(self.tilt.clock.levels))
            for pos in range(len(self.tilt.pages(level)))
            for column in self.tilt.column(level, pos, n)
        ]
        rows = np.empty((n, len(columns)), dtype="<f8")
        for j, column in enumerate(columns):
            rows[:, j] = column
        return [row.tobytes() for row in rows]

    @staticmethod
    def _cell_row(
        values: Values,
        cell: CellSnapshot,
        slots: bytes,
        current_quarter: int,
    ) -> dict[str, Any]:
        row: dict[str, Any] = {
            "v": list(values),
            "s": base64.b64encode(slots).decode("ascii"),
        }
        if cell.last_active_quarter != current_quarter:
            row["q"] = cell.last_active_quarter
        if cell.tick_sums:
            row["t"] = base64.b64encode(
                b"".join(
                    _PAIR.pack(int(t), float(z))
                    for t, z in cell.tick_sums.items()
                )
            ).decode("ascii")
        if cell.cold_since:
            row["c"] = cell.cold_since
        return row

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineState":
        """Inverse of :meth:`to_dict` — bit-identical round trip."""
        check_format(
            "engine_state", payload, "repro-engine-state", STATE_VERSION
        )
        levels = tuple(
            tilt_level_from_dict(entry)
            for entry in decoding(
                "engine_state", lambda: list(payload["frame_levels"])
            )
        )
        clock = frame_from_dict(
            decoding("engine_state", lambda: payload["zero_frame"]),
            levels=levels,
        )
        n_slots = clock.total_retained
        current = decoding(
            "engine_state", lambda: int(payload["current_quarter"])
        )
        cells: dict[Values, CellSnapshot] = {}
        blobs: list[bytes] = []
        for row in decoding("engine_state", lambda: list(payload["cells"])):
            values, cell, blob = decoding(
                "engine_state",
                lambda: cls._packed_cell(row, n_slots, current),
            )
            if values in cells:
                raise CodecError(
                    f"engine_state: duplicate cell {values} in payload"
                )
            cells[values] = cell
            blobs.append(blob)

        def spans() -> tuple[tuple[int, int] | None, ...] | None:
            raw = payload.get("cold_spans")
            if raw is None:
                return None
            return tuple(
                None if span is None else (int(span[0]), int(span[1]))
                for span in raw
            )

        def finish() -> EngineState:
            return cls(
                ticks_per_quarter=int(payload["ticks_per_quarter"]),
                frame_levels=levels,
                current_quarter=int(payload["current_quarter"]),
                records_ingested=int(payload["records_ingested"]),
                tilt=TiltPages(clock, cls._pages_of(blobs, clock)),
                cells=cells,
                wal_seq=int(payload.get("wal_seq", 0)),
                cold_spans=decoding("engine_state", spans),
            )

        return decoding("engine_state", finish)

    @staticmethod
    def _pages_of(blobs: list[bytes], clock) -> list[list[Page]]:
        """The cells' slot blobs transposed back into per-slot pages."""
        n_slots = clock.total_retained
        rows = np.frombuffer(b"".join(blobs), dtype="<f8").reshape(
            len(blobs), 2 * n_slots
        )
        columns = [np.ascontiguousarray(rows[:, j]) for j in range(2 * n_slots)]
        pages: list[list[Page]] = []
        at = 0
        for level in range(len(clock.levels)):
            count = len(clock.slots(level))
            pages.append(
                [
                    (columns[at + 2 * j], columns[at + 2 * j + 1])
                    for j in range(count)
                ]
            )
            at += 2 * count
        return pages

    @staticmethod
    def _packed_cell(
        row: Mapping[str, Any], n_slots: int, current_quarter: int
    ) -> tuple[Values, CellSnapshot, bytes]:
        values = tuple(row["v"])
        try:
            slots = base64.b64decode(
                str(row["s"]).encode("ascii"), validate=True
            )
            if len(slots) != 16 * n_slots:
                raise CodecError(
                    f"engine_state: cell {values} slot blob holds "
                    f"{len(slots)} bytes, expected {16 * n_slots} "
                    "(snapshot disagrees with its zero frame)"
                )
            tick_sums: dict[int, float] = {}
            if "t" in row:
                raw = base64.b64decode(
                    str(row["t"]).encode("ascii"), validate=True
                )
                if len(raw) % _PAIR.size != 0:
                    raise CodecError(
                        f"engine_state: cell {values} has a torn "
                        "accumulator column"
                    )
                for t, z in _PAIR.iter_unpack(raw):
                    tick_sums[t] = z
        except struct.error as exc:  # pragma: no cover - defensive
            raise CodecError(
                f"engine_state: cell {values} packed column is invalid "
                f"({exc})"
            ) from None
        return (
            values,
            CellSnapshot(
                tick_sums=tick_sums,
                last_active_quarter=int(row.get("q", current_quarter)),
                cold_since=int(row.get("c", 0)),
            ),
            slots,
        )
