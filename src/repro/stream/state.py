"""Explicit, serializable engine state (the durability seam).

The stream engine's internals — per-cell tilt frames, the current quarter's
per-tick accumulators, activity bookkeeping, the shared zero prototype —
were process-private until the durability refactor.  This module names that
state: :class:`EngineState` is a complete, self-contained extract of one
:class:`~repro.stream.engine.StreamCubeEngine`, deep enough that restoring
it (``StreamCubeEngine.restore``) yields an engine bit-identical to the
original, shallow enough that a snapshot never blocks ingestion for longer
than a state copy.

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
bit.  Each cell's sealed history rides as packed base64 float64 columns
(the cold-page float codec, :func:`repro.storage.pages.pack_f64`) — slot
*intervals* are shared with the zero prototype, whose frame every cell's is
aligned with, so only ``(base, slope)`` pairs travel per cell.  There is
one format version; a payload of any other version is refused (re-snapshot
with this build to migrate).
"""

from __future__ import annotations

import base64
import struct
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

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
from repro.regression.isb import ISB
from repro.storage.pages import pack_f64, unpack_f64
from repro.tilt.frame import TiltLevelSpec, TiltTimeFrame

__all__ = ["CellSnapshot", "EngineState"]

Values = tuple[Hashable, ...]

_PAIR = struct.Struct("<qd")


@dataclass(frozen=True)
class CellSnapshot:
    """One m-layer cell's complete streaming state.

    ``frame`` is the cell's tilt frame (sealed history), ``tick_sums`` the
    current unsealed quarter's per-tick accumulators,
    ``last_active_quarter`` the activity marker ``prune_idle`` reads, and
    ``cold_since`` the zero-frame tick of the cell's birth (0 when tiered
    storage is off) — cold pages older than it answer the zero row for
    this cell, see :class:`repro.stream.engine.StreamCubeEngine`.  The
    frame and dict are private copies — mutating the live engine after a
    snapshot does not disturb the snapshot.
    """

    frame: TiltTimeFrame
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
    zero_frame:
        The engine's zero prototype — the always-idle frame every cell
        clones; restoring it keeps new-cell spawning and window planning
        identical after a restore.
    cells:
        Per-cell :class:`CellSnapshot`, keyed by m-layer values.
    wal_seq:
        High-water mark of the attached write-ahead log at snapshot time
        (0 when no WAL is attached).  Recovery replays only WAL entries
        *after* this sequence number, so a mid-quarter snapshot composes
        with the journal without double-counting (see
        :mod:`repro.stream.wal`).
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
    zero_frame: TiltTimeFrame
    cells: dict[Values, CellSnapshot]
    wal_seq: int = 0
    cold_spans: tuple[tuple[int, int] | None, ...] | None = None

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-ready form (see :mod:`repro.io`).

        Tick accumulators are emitted as packed ``(tick, sum)`` pairs in
        insertion order; the restore path rebuilds the dict in the same
        order, so even dict iteration order — which the sealing path sorts
        anyway — survives the round trip.  A cell whose frame is not
        aligned with the zero prototype cannot be represented (and could
        not be loaded back: ``load_state`` rejects it), so it is refused.
        """
        zero = self.zero_frame
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
            "zero_frame": frame_to_dict(zero),
            "cells": [
                self._cell_row(values, cell, zero, self.current_quarter)
                for values, cell in self.cells.items()
            ],
        }
        if self.cold_spans is not None:
            payload["cold_spans"] = [
                None if span is None else [span[0], span[1]]
                for span in self.cold_spans
            ]
        return payload

    @staticmethod
    def _cell_row(
        values: Values,
        cell: CellSnapshot,
        zero: TiltTimeFrame,
        current_quarter: int,
    ) -> dict[str, Any]:
        if not cell.frame.aligned_with(zero):
            raise CodecError(
                f"engine_state: cell {values} frame is not aligned with "
                "the zero prototype; its slots cannot ride the shared "
                "intervals"
            )
        row: dict[str, Any] = {
            "v": list(values),
            # Interleaved (base, slope) float64 pairs, one per retained
            # slot, finest level first — one blob for all levels, since
            # the per-level counts and intervals are the zero frame's.
            "s": base64.b64encode(
                pack_f64(
                    [
                        x
                        for i in range(len(zero.levels))
                        for slot in cell.frame.slots(i)
                        for x in (slot.base, slot.slope)
                    ]
                )
            ).decode("ascii"),
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
        zero = frame_from_dict(
            decoding("engine_state", lambda: payload["zero_frame"]),
            levels=levels,
        )
        intervals = [
            [(slot.t_b, slot.t_e) for slot in zero.slots(i)]
            for i in range(len(levels))
        ]
        current = decoding(
            "engine_state", lambda: int(payload["current_quarter"])
        )
        cells: dict[Values, CellSnapshot] = {}
        for row in decoding("engine_state", lambda: list(payload["cells"])):
            values, cell = decoding(
                "engine_state",
                lambda: cls._packed_cell(row, levels, zero, intervals, current),
            )
            if values in cells:
                raise CodecError(
                    f"engine_state: duplicate cell {values} in payload"
                )
            cells[values] = cell

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
                zero_frame=zero,
                cells=cells,
                wal_seq=int(payload.get("wal_seq", 0)),
                cold_spans=decoding("engine_state", spans),
            )

        return decoding("engine_state", finish)

    @staticmethod
    def _packed_cell(
        row: Mapping[str, Any],
        levels: tuple[TiltLevelSpec, ...],
        zero: TiltTimeFrame,
        intervals: list[list[tuple[int, int]]],
        current_quarter: int,
    ) -> tuple[Values, CellSnapshot]:
        values = tuple(row["v"])
        n_slots = sum(len(spans) for spans in intervals)
        try:
            raw = base64.b64decode(str(row["s"]).encode("ascii"), validate=True)
            if len(raw) != 16 * n_slots:
                raise CodecError(
                    f"engine_state: cell {values} slot blob holds "
                    f"{len(raw)} bytes, expected {16 * n_slots} "
                    "(snapshot disagrees with its zero frame)"
                )
            flat = unpack_f64(raw, 2 * n_slots)
            slots: list[list[ISB]] = []
            at = 0
            for spans in intervals:
                slots.append(
                    [
                        ISB(t_b, t_e, flat[at + 2 * j], flat[at + 2 * j + 1])
                        for j, (t_b, t_e) in enumerate(spans)
                    ]
                )
                at += 2 * len(spans)
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
        frame = TiltTimeFrame.from_state(
            levels,
            origin=zero.origin,
            next_tick=zero.now,
            evicted=zero.evicted_slots,
            slots=slots,
        )
        return values, CellSnapshot(
            frame=frame,
            tick_sums=tick_sums,
            last_active_quarter=int(row.get("q", current_quarter)),
            cold_since=int(row.get("c", 0)),
        )
