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
the page lists and the per-row columns.

The state has the engine's own layout: row ``i`` is the cell ``keys[i]``
in every page of ``tilt`` (one clock — the zero prototype — plus per level
one ``(base, slope)`` column pair per retained slot), in the open quarter's
``sums`` and ``present`` (``ticks_per_quarter`` slots a row) and in
``last_active`` and ``cold_since``.  Snapshot, load, prune and re-partition
all move rows of these columns (:meth:`EngineState.gather`); there is no
per-cell object.

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
bit.  The codec below is the one place that knows the file's per-cell
form: one JSON row a cell, whose history is its ``(base, slope)`` pair for
every retained slot as one packed base64 float64 blob (the cold-page float
codec, :func:`repro.storage.pages.pack_f64`), zero rows written out — slot
*intervals* ride once, with the clock — and whose open ticks are packed
``(tick, sum)`` pairs in ascending tick order.  The format (and
``STATE_VERSION``) is the one earlier builds wrote.  There is one format
version; a payload of any other version is refused (re-snapshot with this
build to migrate).
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace
from typing import Any, Hashable, Mapping, Sequence

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
from repro.tilt.frame import Column, Page, TiltLevelSpec, TiltPages

__all__ = ["ROW_COLUMNS", "EngineState"]

Values = tuple[Hashable, ...]

#: The per-row columns beside the keys and the pages.
ROW_COLUMNS = ("sums", "present", "last_active", "cold_since")

#: One packed open tick: ``(tick, sum)`` as little-endian int64 + float64.
_PAIR = np.dtype([("t", "<i8"), ("z", "<f8")])


@dataclass(frozen=True, eq=False)
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
        prototype) and the pages behind it.  A page shorter than ``keys``
        answers its zero row (:class:`~repro.tilt.frame.TiltPages`).
    keys:
        The m-layer values of each row, in row (birth) order.
    sums, present:
        The open quarter, rows x ``ticks_per_quarter``: column ``j`` is tick
        ``current_quarter * ticks_per_quarter + j``, its running sum and
        whether a record has landed there (uint8).
    last_active, cold_since:
        Per row, the quarter of its newest record (what ``prune_idle``
        reads) and the clock tick of its birth (0 without tiered storage:
        cold pages older than it answer the zero row for the cell).
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
    keys: tuple[Values, ...]
    sums: Column
    present: Column
    last_active: Column
    cold_since: Column
    cold_spans: tuple[tuple[int, int] | None, ...] | None = None

    @classmethod
    def gather(
        cls, parts: Sequence[tuple["EngineState", Sequence[int]]], records: int
    ) -> "EngineState":
        """A state whose rows are the listed rows of each part, in order
        (:meth:`~repro.tilt.frame.TiltPages.gather` for the whole state),
        counting ``records`` ingested.  The parts must be aligned; the
        first part's clock and geometry are kept."""
        parts = [(state, np.asarray(rows, dtype=np.intp)) for state, rows in parts]
        return replace(
            parts[0][0],
            records_ingested=records,
            tilt=TiltPages.gather([(state.tilt, rows) for state, rows in parts]),
            keys=tuple(
                state.keys[row] for state, rows in parts for row in rows.tolist()
            ),
            **{
                name: np.concatenate(
                    [getattr(state, name)[rows] for state, rows in parts]
                )
                for name in ROW_COLUMNS
            },
        )

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-ready form (see :mod:`repro.io`).

        A page longer than the key list has rows nothing owns; such a state
        is refused.
        """
        clock = self.tilt.clock
        if self.tilt.max_rows > len(self.keys):
            raise CodecError(
                f"engine_state: a page holds {self.tilt.max_rows} rows for "
                f"{len(self.keys)} cells"
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
            # Kept in the format: shard engines never journal, the cube
            # manifest's ``wal_seq`` is the recovery mark.
            "wal_seq": 0,
            "zero_frame": frame_to_dict(clock),
            "cells": self._cell_rows(),
        }
        if self.cold_spans is not None:
            payload["cold_spans"] = [
                None if span is None else [span[0], span[1]]
                for span in self.cold_spans
            ]
        return payload

    def _cell_rows(self) -> list[dict[str, Any]]:
        """One JSON row a cell: its values and slot blob, then its activity
        marker, open ticks (packed ``(tick, sum)`` pairs, ascending) and
        birth tick where they are not the defaults."""
        rows, offsets = np.nonzero(self.present)
        pairs = np.empty(len(rows), dtype=_PAIR)
        pairs["t"] = self.current_quarter * self.ticks_per_quarter + offsets
        pairs["z"] = self.sums[rows, offsets]
        packed = pairs.tobytes()
        cuts = np.searchsorted(rows, np.arange(len(self.keys) + 1)) * _PAIR.itemsize
        out: list[dict[str, Any]] = []
        for values, slots, last, cold, a, b in zip(
            self.keys,
            self._slot_blobs(),
            self.last_active.tolist(),
            self.cold_since.tolist(),
            cuts.tolist(),
            cuts[1:].tolist(),
        ):
            row: dict[str, Any] = {
                "v": list(values),
                "s": base64.b64encode(slots).decode("ascii"),
            }
            if last != self.current_quarter:
                row["q"] = last
            if b > a:
                row["t"] = base64.b64encode(packed[a:b]).decode("ascii")
            if cold:
                row["c"] = cold
            out.append(row)
        return out

    def _slot_blobs(self) -> list[bytes]:
        """Per cell, its interleaved ``(base, slope)`` float64 pairs, one
        per retained slot, finest level first — the pages transposed."""
        n = len(self.keys)
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
        tpq = decoding("engine_state", lambda: int(payload["ticks_per_quarter"]))
        current = decoding("engine_state", lambda: int(payload["current_quarter"]))
        rows = decoding("engine_state", lambda: list(payload["cells"]))
        sums = decoding("engine_state", lambda: np.zeros((len(rows), tpq)))
        present = np.zeros(sums.shape, dtype=np.uint8)
        cells: dict[Values, tuple[bytes, int, int]] = {}
        for row, open_sums, open_present in zip(rows, sums, present):
            values, *cell = decoding(
                "engine_state",
                lambda: cls._packed_cell(
                    row, clock.total_retained, current, open_sums, open_present
                ),
            )
            if values in cells:
                raise CodecError(
                    f"engine_state: duplicate cell {values} in payload"
                )
            cells[values] = cell
        blobs, last_active, cold_since = (
            [cell[i] for cell in cells.values()] for i in range(3)
        )

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
                ticks_per_quarter=tpq,
                frame_levels=levels,
                current_quarter=current,
                records_ingested=int(payload["records_ingested"]),
                tilt=TiltPages(clock, cls._pages_of(blobs, clock)),
                keys=tuple(cells),
                sums=sums,
                present=present,
                last_active=np.array(last_active, dtype=np.int64),
                cold_since=np.array(cold_since, dtype=np.int64),
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
        row: Mapping[str, Any],
        n_slots: int,
        current_quarter: int,
        sums: Column,
        present: Column,
    ) -> tuple[Values, bytes, int, int]:
        """One JSON row: its values, slot blob, activity marker and birth
        tick; its open ticks go into its ``sums`` / ``present`` row as
        ``0.0 + sum`` (what accumulating into an empty slot leaves), the
        later of two pairs on one tick winning."""
        values = tuple(row["v"])
        slots = base64.b64decode(str(row["s"]).encode("ascii"), validate=True)
        if len(slots) != 16 * n_slots:
            raise CodecError(
                f"engine_state: cell {values} slot blob holds "
                f"{len(slots)} bytes, expected {16 * n_slots} "
                "(snapshot disagrees with its zero frame)"
            )
        if "t" in row:
            raw = base64.b64decode(str(row["t"]).encode("ascii"), validate=True)
            if len(raw) % _PAIR.itemsize != 0:
                raise CodecError(
                    f"engine_state: cell {values} has a torn accumulator column"
                )
            lo = current_quarter * len(sums)
            for t, z in np.frombuffer(raw, dtype=_PAIR).tolist():
                if not lo <= t < lo + len(sums):
                    raise CodecError(
                        f"engine_state: cell {values} holds an open tick {t} "
                        f"outside the current quarter [{lo}, {lo + len(sums) - 1}]"
                    )
                sums[t - lo] = 0.0 + z
                present[t - lo] = 1
        return (
            values,
            slots,
            int(row.get("q", current_quarter)),
            int(row.get("c", 0)),
        )
