"""JSON persistence for ISBs, tilt frames, engine state, and query specs.

Stream analysis checkpoints state: whole tilt frames and engine snapshots,
plus the cell rows and query specs of the service's wire format.  This
module serializes those to a stable, human-inspectable JSON layout.

Value tuples may mix ints and strings (fanout vs explicit hierarchies, plus
the ``"*"`` sentinel), so each value is tagged on disk: ints as-is, strings
as-is — JSON keeps the distinction — but tuple keys become lists, and dict
keys become indexed arrays (JSON objects only allow string keys).

Every decoder raises :class:`repro.errors.CodecError` (a
:class:`~repro.errors.SchemaError`) on malformed payloads, naming the codec
and the offending field — a corrupt checkpoint is diagnosable from the
message alone, never a raw ``KeyError``.

Round-trip exactness: floats are emitted through ``json`` (shortest
round-trip ``repr``), so ``decode(encode(x))`` reproduces every ISB, slot,
and accumulator *bit for bit* — the property the snapshot/restore layer
(:mod:`repro.stream.state`) is built on.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, TypeVar

import numpy as np

from repro import faults
from repro.cube.cuboid import ColumnCells
from repro.errors import CodecError, StorageError, TiltFrameError
from repro.regression.isb import ISB
from repro.tilt.frame import TiltLevelSpec, TiltTimeFrame

__all__ = [
    "write_atomic",
    "payload_checksum",
    "isb_to_dict",
    "isb_from_dict",
    "tilt_level_to_dict",
    "tilt_level_from_dict",
    "frame_to_dict",
    "frame_from_dict",
    "cells_to_payload",
    "cells_to_json",
    "engine_state_to_dict",
    "engine_state_from_dict",
    "spec_to_dict",
    "spec_from_dict",
]

Values = tuple[Hashable, ...]

#: Version tag of the state codecs (tilt frames, engine snapshots, cube
#: manifests).  Bump when the payload shape changes; decoders reject
#: unknown versions with a :class:`CodecError` instead of misreading them.
#: Version 2 packs per-cell ISB history as base64 float64 columns (the
#: cold-page float codec) instead of JSON object arrays; version-1
#: snapshots still load (the WAL keeps its own version, see
#: :mod:`repro.stream.wal`).
STATE_VERSION = 2

_T = TypeVar("_T")


def decoding(codec: str, fn: Callable[[], _T]) -> _T:
    """Run one decode step, converting raw lookup/type errors to CodecError.

    Explicit validation stays preferable where the check is cheap; this
    wrapper is the backstop that guarantees *no* decoder in this module (or
    the state codecs built on it) ever surfaces a bare ``KeyError`` /
    ``TypeError`` / ``ValueError`` from a malformed payload.
    """
    try:
        return fn()
    except CodecError:
        raise
    except KeyError as exc:
        raise CodecError(f"{codec}: payload missing field {exc}") from None
    except (
        TypeError,
        ValueError,
        AttributeError,
        IndexError,
        TiltFrameError,  # invalid level specs / frame geometry in payloads
    ) as exc:
        raise CodecError(f"{codec}: malformed payload ({exc})") from None


def check_format(codec: str, payload: Any, fmt: str, version: int) -> None:
    """Validate a document's ``format`` / ``version`` envelope."""
    if not isinstance(payload, Mapping):
        raise CodecError(
            f"{codec}: expected a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != fmt:
        raise CodecError(
            f"{codec}: not a {fmt} payload "
            f"(format tag is {payload.get('format')!r})"
        )
    got = payload.get("version")
    if got != version:
        raise CodecError(
            f"{codec}: unsupported version {got!r} "
            f"(this build reads version {version})"
        )


def write_atomic(path: str | Path, text: str) -> None:
    """Write a file through a temp name + fsync + ``os.replace``.

    Shared by every durability writer (snapshot shard files, manifests,
    worker-side snapshot RPCs).  The fsync before the rename matters:
    checkpoint flows compact the WAL against the snapshot immediately
    after, so the files must be durable — not just renamed in the page
    cache — before the journal entries they supersede disappear.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    # A failed checkpoint write (ENOSPC, EIO, torn) must leave no
    # half-written temp file behind and must never touch the previous
    # checkpoint — clean up and try again.  Three attempts, because one
    # write can meet two *distinct* transient faults in a row (a plan may
    # arm an ENOSPC and a torn write together); a device that still
    # refuses after that is genuinely unwritable and surfaces as a typed
    # StorageError with the old checkpoint intact under the final name.
    failures: list[OSError] = []
    for _ in range(3):
        try:
            _write_tmp(tmp, text)
            break
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            failures.append(exc)
    else:
        raise StorageError(
            f"atomic write of {path} failed even after retry "
            f"({'; '.join(str(f) for f in failures)})"
        ) from failures[-1]
    os.replace(tmp, path)


def _write_tmp(tmp: Path, text: str) -> None:
    faults.check("snapshot.write")
    with open(tmp, "w", encoding="utf-8") as fh:
        if faults.torn("snapshot.write"):
            fh.write(text[: max(1, len(text) // 2)])
            fh.flush()
            raise OSError(5, "injected torn write at snapshot.write")
        fh.write(text)
        fh.flush()
        if not faults.lie("snapshot.write"):
            os.fsync(fh.fileno())


def payload_checksum(payload: Mapping[str, Any]) -> int:
    """A CRC32 over the canonical JSON form of ``payload``.

    Key order and file formatting don't affect it (``sort_keys`` +
    compact separators), so a manifest can be checksummed before it is
    pretty-printed and verified after a round-trip through disk.  The
    ``checksum`` key itself is excluded.
    """
    canon = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(canon.encode("utf-8"))


def isb_to_dict(isb: ISB) -> dict[str, Any]:
    """A stable JSON-ready mapping for one ISB."""
    return {
        "t_b": isb.t_b,
        "t_e": isb.t_e,
        "base": isb.base,
        "slope": isb.slope,
    }


def isb_from_dict(payload: Mapping[str, Any]) -> ISB:
    """Inverse of :func:`isb_to_dict`."""
    return decoding(
        "isb",
        lambda: ISB(
            t_b=int(payload["t_b"]),
            t_e=int(payload["t_e"]),
            base=float(payload["base"]),
            slope=float(payload["slope"]),
        ),
    )


# ----------------------------------------------------------------------
# Tilt-frame codecs (the regression/tilt layer of the snapshot format).
# ----------------------------------------------------------------------
def tilt_level_to_dict(spec: TiltLevelSpec) -> dict[str, Any]:
    """JSON-ready form of one :class:`~repro.tilt.frame.TiltLevelSpec`."""
    return {
        "name": spec.name,
        "unit_ticks": spec.unit_ticks,
        "capacity": spec.capacity,
    }


def tilt_level_from_dict(payload: Mapping[str, Any]) -> TiltLevelSpec:
    """Inverse of :func:`tilt_level_to_dict`."""
    return decoding(
        "tilt_level",
        lambda: TiltLevelSpec(
            name=str(payload["name"]),
            unit_ticks=int(payload["unit_ticks"]),
            capacity=int(payload["capacity"]),
        ),
    )


def frame_to_dict(frame: TiltTimeFrame) -> dict[str, Any]:
    """Versioned JSON-ready form of a whole tilt frame.

    Captures everything :meth:`TiltTimeFrame.from_state` needs: level
    specs, origin, clock (``now``), the eviction counter, and every
    retained slot per level.  ``frame_from_dict(frame_to_dict(f))`` is
    bit-identical to ``f`` — same slots, same clock, same accounting.
    """
    return {
        "format": "repro-tilt-frame",
        "version": STATE_VERSION,
        "levels": [tilt_level_to_dict(lv) for lv in frame.levels],
        "origin": frame.origin,
        "next_tick": frame.now,
        "evicted": frame.evicted_slots,
        "slots": [
            [isb_to_dict(slot) for slot in frame.slots(i)]
            for i in range(len(frame.levels))
        ],
    }


def frame_from_dict(
    payload: Mapping[str, Any],
    levels: tuple[TiltLevelSpec, ...] | None = None,
) -> TiltTimeFrame:
    """Inverse of :func:`frame_to_dict`.

    ``levels``, when given, must equal the payload's level specs and is
    used *by identity* for the rebuilt frame — the engine-state codec
    passes its own tuple so the restored clock and the state agree on one
    object (:meth:`TiltTimeFrame.aligned_with` tests identity first).
    """
    check_format("tilt_frame", payload, "repro-tilt-frame", STATE_VERSION)
    decoded = tuple(
        tilt_level_from_dict(entry)
        for entry in decoding("tilt_frame", lambda: list(payload["levels"]))
    )
    if levels is not None:
        if tuple(levels) != decoded:
            raise CodecError(
                "tilt_frame: payload levels do not match the shared level "
                f"specs ({decoded} vs {tuple(levels)})"
            )
        decoded = tuple(levels)

    def build() -> TiltTimeFrame:
        try:
            return TiltTimeFrame.from_state(
                decoded,
                origin=int(payload["origin"]),
                next_tick=int(payload["next_tick"]),
                evicted=int(payload["evicted"]),
                slots=[
                    [isb_from_dict(entry) for entry in level_slots]
                    for level_slots in payload["slots"]
                ],
            )
        except TiltFrameError as exc:
            # Structurally invalid state (over-capacity slots, bad level
            # geometry) is a malformed payload from the codec's viewpoint.
            raise CodecError(f"tilt_frame: invalid frame state ({exc})") from None

    return decoding("tilt_frame", build)


def cells_to_payload(cells: Mapping[Values, ISB]) -> list[dict[str, Any]]:
    """A JSON-ready row list for a cell mapping (one ``{values, isb}`` per
    cell) — the wire format of the HTTP service in :mod:`repro.service`."""
    return [
        {"values": list(values), "isb": isb_to_dict(isb)}
        for values, isb in cells.items()
    ]


def cells_to_json(cells: Mapping[Values, ISB]) -> str:
    """``json.dumps(cells_to_payload(cells))``, character for character.

    A column-backed mapping (:class:`~repro.cube.cuboid.ColumnCells`) is
    rendered from its columns and boxes nothing: each row's text up to its
    first number — ``{"values": [...], "isb": {"t_b": `` — depends on the
    keys alone and is kept with them (:meth:`CuboidColumns.memo`, so a
    held cubing plan renders it once per cell set, not once per answer),
    and the numbers are formatted as ``json`` formats them:
    ``int.__repr__``, ``float.__repr__``, ``NaN`` / ``Infinity`` /
    ``-Infinity``.
    """
    if not isinstance(cells, ColumnCells):
        return json.dumps(cells_to_payload(cells))
    columns = cells.columns
    isbs = columns.isbs
    rows = map(
        _ROW.__mod__,
        zip(
            columns.memo("json_heads", _row_heads),
            isbs.t_b.tolist(),
            isbs.t_e.tolist(),
            _float_texts(isbs.base),
            _float_texts(isbs.slope),
        ),
    )
    return "[" + ", ".join(rows) + "]"


_ROW = '%s%d, "t_e": %d, "base": %s, "slope": %s}}'
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _row_heads(columns: Any) -> list[str]:
    return [
        '{"values": %s, "isb": {"t_b": ' % json.dumps(list(values))
        for values in columns.keys()
    ]


def _float_texts(column: Any) -> list[str]:
    texts = list(map(float.__repr__, column.tolist()))
    if not np.isfinite(column).all():
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


# ----------------------------------------------------------------------
# Engine-state codecs (the stream layer of the snapshot format).
# The encode/decode logic lives with EngineState in repro.stream.state;
# these wrappers keep repro.io the one serialization facade.  Imports are
# function-local because repro.stream.state imports this module at load
# time.
# ----------------------------------------------------------------------
def engine_state_to_dict(state: Any) -> dict[str, Any]:
    """JSON-ready form of a :class:`~repro.stream.state.EngineState`."""
    return state.to_dict()


def engine_state_from_dict(payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`engine_state_to_dict` — bit-identical round trip."""
    from repro.stream.state import EngineState

    return EngineState.from_dict(payload)


# ----------------------------------------------------------------------
# Query-spec codecs (the wire format of the declarative query API).
# The encode/decode logic lives with the spec classes in repro.query.spec;
# these wrappers make repro.io the one serialization facade.  Imports are
# function-local because repro.query.exec imports this module at load time.
# ----------------------------------------------------------------------
def spec_to_dict(spec: Any) -> dict[str, Any]:
    """JSON-ready wire form of a :class:`~repro.query.spec.QuerySpec`."""
    return spec.to_dict()


def spec_from_dict(payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`spec_to_dict`: ``decode(encode(spec)) == spec``."""
    from repro.query.spec import spec_from_dict as decode

    return decode(payload)
