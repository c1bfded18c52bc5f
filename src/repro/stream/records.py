"""Primitive-layer stream records (paper Section 2.3 / Example 1).

A :class:`StreamRecord` is one reading at the stream's most detailed level —
e.g. ``(individual user, street address, minute) -> kWh``.  The online engine
rolls records up to the m-layer on ingestion; the record type itself is a
plain value object so any source (simulator, file replay, socket) can
produce them.

A *batch* does not travel as records.  :class:`RecordColumns` is a batch as
three aligned columns, and it is what every batch entry point works on:
``ingest_many`` / ``ingest_batch`` / ``QuarterWAL.append_batch`` convert an
iterable of records once, at the door (:meth:`RecordColumns.of`), and the
HTTP edge builds the columns straight from the parsed request rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.errors import StreamError
from repro.regression import kernels

__all__ = [
    "RecordColumns",
    "Segment",
    "StreamRecord",
    "require_finite_z",
    "require_int_ticks",
    "sort_records",
    "validate_monotonic",
]


@dataclass(frozen=True, slots=True)
class StreamRecord:
    """One primitive-layer observation.

    Attributes
    ----------
    values:
        Primitive dimension values, schema order.
    t:
        Integer tick at the primitive time granularity (e.g. the minute).
    z:
        The measured value (e.g. kWh used during that minute).
    """

    values: tuple[Hashable, ...]
    t: int
    z: float


#: One quarter of a batch: ``(quarter, ids, ticks, z)`` — per record
#: (arrival order) its cell's table id, its tick and its value.
Segment = tuple[int, kernels.Column, kernels.Column, kernels.Column]


def require_finite_z(z: Any) -> None:
    """Refuse a NaN or infinite measure (``z`` is a column or a sequence of
    floats) before it is journaled: one such record would make every
    regression of every window and ancestor cell that covers it NaN."""
    finite = np.isfinite(z)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise StreamError(
            f"batch record {bad} has a non-finite z ({float(z[bad])!r}); "
            "batch rejected, no records ingested"
        )


def require_int_ticks(ticks: list | tuple) -> None:
    """Refuse a tick that is not an ``int`` (a ``bool`` is none here) before
    a column coercion truncates ``1.7`` or parses ``"2"``: what the Python
    API takes is what it journals.  (The HTTP edge coerces on its own.)"""
    for t in ticks:
        if type(t) is not int:
            raise StreamError(
                f"a record's tick must be an int, got {type(t).__name__} "
                f"{t!r} — nothing ingested"
            )


class RecordColumns:
    """A batch of records as columns: ``values``, ``ticks``, ``z``.

    ``values`` is a list of value tuples, ``ticks`` an int64 and ``z`` a
    float64 numpy column (:func:`repro.regression.kernels.int_column` /
    ``float_column``), all in arrival order.
    """

    __slots__ = ("values", "ticks", "z")

    def __init__(
        self, values: list[tuple[Hashable, ...]], ticks: Any, z: Any
    ) -> None:
        self.values = values
        self.ticks = ticks
        self.z = z

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def of(
        cls, records: "RecordColumns | Iterable[StreamRecord]"
    ) -> "RecordColumns":
        """``records`` as columns (as it is when it already is)."""
        if isinstance(records, cls):
            return records
        batch = list(records)
        ticks = [record.t for record in batch]
        require_int_ticks(ticks)
        try:
            ticks = kernels.int_column(ticks)
        except OverflowError as exc:
            raise StreamError(f"a record's tick is outside int64: {exc}") from exc
        return cls(
            [record.values for record in batch],
            ticks,
            kernels.float_column([record.z for record in batch]),
        )

    def keys(
        self, key_fn: Callable[[StreamRecord], tuple[Hashable, ...]] | None
    ) -> list[tuple[Hashable, ...]]:
        """The m-layer key column: ``values`` itself, or a custom ``key_fn``
        mapped over the rows (the one place a batch is seen as records)."""
        if key_fn is None:
            return self.values
        records = map(
            StreamRecord, self.values, self.ticks.tolist(), self.z.tolist()
        )
        return [key_fn(record) for record in records]


def sort_records(records: Iterable[StreamRecord]) -> list[StreamRecord]:
    """Records sorted by tick (stable for equal ticks)."""
    return sorted(records, key=lambda r: r.t)


def validate_monotonic(records: Iterable[StreamRecord]) -> Iterator[StreamRecord]:
    """Yield records, raising :class:`StreamError` on any tick regression.

    Use when a source promises time order and silently-broken order would
    corrupt quarter sealing.
    """
    last_t: int | None = None
    for record in records:
        if last_t is not None and record.t < last_t:
            raise StreamError(
                f"out-of-order record at t={record.t} after t={last_t}"
            )
        last_t = record.t
        yield record
