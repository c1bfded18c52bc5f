"""A materialized cuboid: cells of one lattice coordinate with ISB measures.

:class:`Cuboid` is the carrier every cubing algorithm returns: the cells of
one coordinate.  Aggregation between cuboids (roll-up over standard
dimensions via Theorem 3.2) lives here because it is shared by every
algorithm.

The cells are columns: :class:`CuboidColumns` holds integer key codes and
ISB columns, and :class:`ColumnCells` presents them as the ``{values: isb}``
mapping, building value tuples and :class:`ISB` objects only for what a
caller reads.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.cube.cell import canonical_cell_order
from repro.cube.hierarchy import LevelCodes
from repro.cube.schema import CubeSchema
from repro.errors import QueryError, SchemaError
from repro.regression import kernels
from repro.regression.aggregation import merge_standard
from repro.regression.isb import ISB
from repro.regression.kernels import ISBColumns

__all__ = ["ColumnCells", "Cuboid", "CuboidColumns"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


class CuboidColumns:
    """A cuboid as packed columns: integer key codes plus ISB columns.

    What a :class:`Cuboid` holds, and what the cubing walks compute on:
    ``codes[d]`` holds every row's value in dimension ``d`` as a code of
    ``tables[d]`` at level ``coord[d]``, ``isbs`` the measures, rows in the
    order ``Cuboid.cells`` iterates.  Roll-ups are array gathers and one
    grouped kernel call; value tuples and :class:`ISB` objects exist only
    for the rows :meth:`keys` / :meth:`cells` are asked for.  ``isbs`` is ``None`` on the key-only
    instances a :class:`~repro.cubing.mo_cubing.CubePlan` records (the
    structure of a cuboid, awaiting :meth:`with_isbs`).

    What is derived from the key columns alone (:meth:`keys`, and whatever
    a reader keeps through :meth:`memo`) is shared by every
    :meth:`with_isbs` copy, so a plan's cuboid builds it once for as long
    as its cell set holds, not once per run.
    """

    __slots__ = ("coord", "tables", "codes", "isbs", "_memo")

    def __init__(
        self,
        coord: Coord,
        tables: Sequence[LevelCodes],
        codes: Sequence,
        isbs: ISBColumns | None,
        memo: dict | None = None,
    ) -> None:
        self.coord = coord
        self.tables = tables
        self.codes = codes
        self.isbs = isbs
        self._memo = {} if memo is None else memo

    def __len__(self) -> int:
        return len(self.codes[0])  # a schema has at least one dimension

    @classmethod
    def from_cells(
        cls,
        schema: CubeSchema,
        coord: Coord,
        keys: Sequence[Values],
        isbs: Iterable[ISB] | None,
        tables: Sequence[LevelCodes] | None = None,
    ) -> "CuboidColumns":
        """Encode value-tuple keys and their measures, one row per key.

        Without ``tables`` each dimension's values are numbered in
        first-seen order at this cuboid's level, and the keys are checked
        against the hierarchies on the way: a key of the wrong length or
        with a value its level does not hold raises what
        :meth:`~repro.cube.schema.CubeSchema.values_validator` raises for
        the first bad row.  With ``tables``, the keys are looked up in
        tables another cuboid of the same data already built (``coord``
        must not be finer than their levels).  ``isbs=None`` encodes the
        keys alone.
        """
        isbs = None if isbs is None else ISBColumns.from_isbs(isbs)
        if tables is not None:
            codes = [
                np.array(
                    list(map(table.index(level).__getitem__, column)), dtype=np.int64
                )
                for table, level, column in zip(
                    tables, coord, _columns(keys, len(tables))
                )
            ]
            return cls(coord, tables, codes, isbs)
        if set(map(len, keys)) - {schema.n_dims}:
            _validate_rows(schema, coord, keys)
        columns = list(_columns(keys, schema.n_dims))
        encoded = [
            LevelCodes.encode(dim.hierarchy, level, column)
            for dim, level, column in zip(schema.dimensions, coord, columns)
        ]
        # Membership is checked once per distinct value; a column mixing
        # types (whose equal values the encoding dict conflates: 1 and 1.0)
        # goes to the row validator like any other doubt.
        if any(
            len(set(map(type, column))) > 1
            or not all(dim.hierarchy.contains(v, level) for v in table.index(level))
            for dim, level, (table, _), column in zip(
                schema.dimensions, coord, encoded, columns
            )
        ):
            _validate_rows(schema, coord, keys)
        return cls(
            coord,
            [table for table, _ in encoded],
            [codes for _, codes in encoded],
            isbs,
        )

    @classmethod
    def canonical(
        cls, schema: CubeSchema, coord: Coord, keys: Sequence[Values]
    ) -> tuple["CuboidColumns", Any]:
        """``keys`` encoded (as :meth:`from_cells`) in canonical cell order,
        and the permutation taking ``keys`` there: each dimension's values
        ranked once by :func:`~repro.cube.cell.canonical_cell_order`, then
        one stable ``lexsort`` over the ranks (a hierarchy admits no two
        equal values that print apart, so a code is one value)."""
        rows = cls.from_cells(schema, coord, keys, None)
        ranks = []
        for table, level, column in zip(rows.tables, coord, rows.codes):
            values = list(table.index(level))
            by_key = sorted(
                range(len(values)),
                key=lambda code: canonical_cell_order((values[code],)),
            )
            ranks.append(np.argsort(by_key)[column])
        order = np.lexsort(ranks[::-1])
        return rows.take(order), order

    def codes_at(self, to_coord: Coord) -> list:
        """Every row's ancestor codes at the coarser-or-equal ``to_coord``."""
        return [
            column if t == f else table.lift(f, t)[column]
            for table, column, f, t in zip(
                self.tables, self.codes, self.coord, to_coord
            )
        ]

    def cards(self, coord: Coord) -> list[int]:
        """Distinct values per dimension at ``coord`` (the packing radices)."""
        return [
            len(table.index(level))
            for table, level in zip(self.tables, coord)
        ]

    def lifted(self, to_coord: Coord) -> "CuboidColumns":
        """The same rows keyed at a coarser coordinate, not yet merged."""
        return CuboidColumns(
            to_coord, self.tables, self.codes_at(to_coord), self.isbs
        )

    def take(self, rows) -> "CuboidColumns":
        """The given rows (an index array), in the order given."""
        return CuboidColumns(
            self.coord,
            self.tables,
            [column[rows] for column in self.codes],
            None if self.isbs is None else self.isbs.take(rows),
        )

    def with_isbs(self, isbs: ISBColumns) -> "CuboidColumns":
        """These key columns over ``isbs``, sharing their :meth:`memo`."""
        return CuboidColumns(
            self.coord, self.tables, self.codes, isbs, memo=self._memo
        )

    def memo(self, name: str, build: Callable[["CuboidColumns"], Any]) -> Any:
        """``build(self)``, kept under ``name`` for every instance over these
        key columns; ``build`` may read the keys, never the measures."""
        value = self._memo.get(name)
        if value is None:
            value = self._memo[name] = build(self)
        return value

    def mask(self, at: Coord, values: Mapping[int, Hashable]):
        """Rows whose level-``at[d]`` ancestor in dimension ``d`` is
        ``values[d]`` for every ``d`` given, as a boolean array (``at`` is
        coarser than or equal to this cuboid's coordinate)."""
        match = np.ones(len(self), dtype=bool)
        codes = self.codes_at(at)
        for d, value in values.items():
            try:
                code = self.tables[d].index(at[d]).get(value)
            except TypeError:  # unhashable: equal to no value
                code = None
            if code is None:
                return np.zeros(len(self), dtype=bool)
            match &= codes[d] == code
        return match

    def grouping(self):
        """``(group id per row, first row per group)`` of rows with equal
        keys, groups in first-appearance order."""
        return kernels.first_seen_groups(
            kernels.pack_keys(self.codes, self.cards(self.coord), len(self))
        )

    def merged(self) -> "CuboidColumns":
        """Rows with equal keys merged (Theorem 3.2): cells in
        first-appearance order, each summed in row order."""
        keys = kernels.pack_keys(self.codes, self.cards(self.coord), len(self))
        isbs, first = kernels.group_merge(self.isbs, keys)
        return CuboidColumns(
            self.coord, self.tables, [column[first] for column in self.codes], isbs
        )

    def roll_up(self, to_coord: Coord) -> "CuboidColumns":
        """Aggregate to a coarser coordinate — what :meth:`Cuboid.roll_up`
        does one tuple at a time, with the same cell order and sums."""
        return self.lifted(to_coord).merged()

    def keys(self) -> list[Values]:
        """Every row's value tuple (built once, then kept)."""
        return self.memo("keys", _keys)

    def cells(self) -> dict[Values, ISB]:
        """Materialize ``{values: isb}``, one entry per row."""
        return dict(zip(self.keys(), self.isbs.to_isbs()))


class ColumnCells(Mapping):
    """A column-backed cuboid's ``{values: isb}``, boxed only when read.

    ``len`` costs nothing, iterating builds the value tuples, a lookup
    builds a key-to-row index and one :class:`ISB`, and only the dict views
    (``keys()`` / ``items()`` / ``values()``, hence ``dict(cells)``) box
    every row — once; the dict is kept.  Read-only: the columns are the
    data.
    """

    __slots__ = ("columns", "_boxed")

    def __init__(self, columns: CuboidColumns) -> None:
        self.columns = columns
        self._boxed: dict[Values, ISB] | None = None

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Values]:
        return iter(self.columns.keys())

    def __getitem__(self, values: Values) -> ISB:
        if self._boxed is not None:
            return self._boxed[values]
        rows = self.columns.memo("rows", _row_index)
        return self.columns.isbs.row(rows[values])

    def _all(self) -> dict[Values, ISB]:
        if self._boxed is None:
            self._boxed = self.columns.cells()
        return self._boxed

    def keys(self):  # what ``dict(cells)`` reads: box once, not per key
        return self._all().keys()

    def items(self):
        return self._all().items()

    def values(self):
        return self._all().values()


def _keys(columns: CuboidColumns) -> list[Values]:
    value_columns = [
        map(list(table.index(level)).__getitem__, column.tolist())
        for table, level, column in zip(columns.tables, columns.coord, columns.codes)
    ]
    return list(zip(*value_columns))


def _row_index(columns: CuboidColumns) -> dict[Values, int]:
    keys = columns.keys()
    return dict(zip(keys, range(len(keys))))


def _columns(keys: Sequence[Values], n_dims: int):
    """Per-dimension value columns of a list of key tuples."""
    return zip(*keys) if keys else [()] * n_dims


def _validate_rows(schema: CubeSchema, coord: Coord, keys: Sequence[Values]) -> None:
    """Raise what :meth:`CubeSchema.values_validator` raises for the first
    bad row."""
    validate = schema.values_validator(coord)
    for values in keys:
        validate(values)


class Cuboid:
    """Cells of one cuboid coordinate, keyed by value tuple.

    Wraps a :class:`CuboidColumns` (kept as it is, not copied); ``cells`` is
    its read-only :class:`ColumnCells` view.
    """

    __slots__ = ("schema", "coord", "columns", "cells")

    def __init__(self, schema: CubeSchema, columns: CuboidColumns) -> None:
        self.schema = schema
        self.coord = schema.validate_coord(columns.coord)
        self.columns = columns
        self.cells = ColumnCells(columns)

    @classmethod
    def from_cells(
        cls,
        schema: CubeSchema,
        coord: Coord,
        cells: Iterable[tuple[Values, ISB]] = (),
    ) -> "Cuboid":
        """The cuboid of ``(values, isb)`` pairs, one cell per pair, in the
        order given (no pairs: an empty cuboid)."""
        pairs = list(cells)
        keys = [values for values, _ in pairs]
        isbs = [isb for _, isb in pairs]
        return cls(schema, CuboidColumns.from_cells(schema, coord, keys, isbs))

    # ------------------------------------------------------------------
    # Mapping-ish interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Values]:
        return iter(self.cells)

    def __contains__(self, values: Values) -> bool:
        return tuple(values) in self.cells

    def __getitem__(self, values: Values) -> ISB:
        try:
            return self.cells[tuple(values)]
        except KeyError:
            raise QueryError(
                f"no cell {tuple(values)} in cuboid {self.coord}"
            ) from None

    def get(self, values: Values) -> ISB | None:
        return self.cells.get(tuple(values))

    def items(self) -> Iterator[tuple[Values, ISB]]:
        return iter(self.cells.items())

    # ------------------------------------------------------------------
    # Aggregation (Theorem 3.2 across cells)
    # ------------------------------------------------------------------
    def roll_up(self, to_coord: Coord) -> "Cuboid":
        """Aggregate this cuboid to a coarser coordinate.

        Every cell's values are rolled up through the concept hierarchies and
        cells mapping to the same ancestor are merged with Theorem 3.2.
        """
        return Cuboid(self.schema, self.columns.roll_up(self._coarser(to_coord)))

    def roll_up_cell(self, to_coord: Coord, target_values: Values) -> ISB | None:
        """Aggregate only the cells that roll up to ``target_values``.

        The rows whose lifted key codes equal the target's are merged with
        :func:`~repro.regression.aggregation.merge_standard` (``fsum``), and
        only those rows are boxed.  Used by popular-path drilling and by
        queries for a cell no cuboid retained.  Returns ``None`` when no
        source cell contributes.
        """
        to_coord = self._coarser(to_coord)
        columns = self.columns
        if not len(columns) or len(target_values) != len(to_coord):
            return None
        rows = np.flatnonzero(columns.mask(to_coord, dict(enumerate(target_values))))
        if not len(rows):
            return None
        return merge_standard(columns.isbs.take(rows).to_isbs())

    def _coarser(self, to_coord: Coord) -> Coord:
        """``to_coord`` validated as coarser-or-equal in every dimension."""
        to_coord = self.schema.validate_coord(to_coord)
        for i, (f, t) in enumerate(zip(self.coord, to_coord)):
            if t > f:
                raise SchemaError(
                    f"dimension {self.schema.dimensions[i].name!r}: cannot "
                    f"roll up cuboid level {f} to finer level {t}"
                )
        return to_coord

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cuboid({self.coord}, cells={len(self.cells)})"
