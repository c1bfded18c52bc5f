"""Cells and the ancestor / descendant / sibling relations (Section 2.1).

A cell is addressed by a *cuboid coordinate* (per-dimension level indices,
0 = ``*``) plus a *value tuple* (one value per dimension, ``"*"`` where the
level is 0).  :class:`CellRef` bundles the two for the relational predicates
the paper defines; the cubing algorithms themselves work with bare value
tuples keyed per cuboid for compactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.cube.hierarchy import ALL
from repro.cube.schema import CubeSchema
from repro.errors import SchemaError

__all__ = [
    "CellRef",
    "canonical_cell_order",
    "roll_up_values",
    "is_ancestor",
    "is_descendant",
    "is_sibling",
]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def canonical_cell_order(values: Values) -> tuple[tuple[str, str], ...]:
    """A total order over cell keys that tolerates mixed value types.

    Keys mix ints and strings (fanout vs explicit hierarchies), which do not
    compare directly; ordering by ``(type name, repr)`` per value is total,
    deterministic across processes, and cheap.  It is the order merged
    m-layers are presented in, whatever engine or shard the cells live on.
    """
    return tuple((type(v).__name__, repr(v)) for v in values)


@dataclass(frozen=True)
class CellRef:
    """A fully-addressed cell: cuboid coordinate + value tuple."""

    coord: Coord
    values: Values

    @property
    def k(self) -> int:
        """The paper's *k-d cell* arity: number of non-``*`` values."""
        return sum(1 for v in self.values if v != ALL)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell{self.values}@{self.coord}"


def roll_up_values(
    schema: CubeSchema,
    values: Sequence[Hashable],
    from_coord: Sequence[int],
    to_coord: Sequence[int],
) -> Values:
    """Ancestor value tuple of ``values`` when rolling up between cuboids.

    ``to_coord`` must be component-wise <= ``from_coord`` (coarser or equal in
    every dimension).
    """
    from_coord = schema.validate_coord(from_coord)
    to_coord = schema.validate_coord(to_coord)
    out: list[Hashable] = []
    for dim, value, f_level, t_level in zip(
        schema.dimensions, values, from_coord, to_coord
    ):
        if t_level > f_level:
            raise SchemaError(
                f"dimension {dim.name!r}: cannot roll up from level {f_level} "
                f"to finer level {t_level}"
            )
        out.append(dim.hierarchy.ancestor(value, f_level, t_level))
    return tuple(out)


def is_ancestor(schema: CubeSchema, a: CellRef, b: CellRef) -> bool:
    """``a`` is an ancestor of ``b`` (Section 2.1).

    True iff the cells are distinct, ``a``'s cuboid is coarser-or-equal in
    every dimension, and ``b`` rolls up to ``a``.
    """
    if a == b:
        return False
    if any(la > lb for la, lb in zip(a.coord, b.coord)):
        return False
    return roll_up_values(schema, b.values, b.coord, a.coord) == a.values


def is_descendant(schema: CubeSchema, a: CellRef, b: CellRef) -> bool:
    """``a`` is a descendant of ``b`` iff ``b`` is an ancestor of ``a``."""
    return is_ancestor(schema, b, a)


def is_sibling(schema: CubeSchema, a: CellRef, b: CellRef) -> bool:
    """``a`` and ``b`` are siblings (Section 2.1).

    True iff both live in the same cuboid, differ in exactly one dimension,
    and share the same parent value in that dimension.
    """
    if a.coord != b.coord or a.values == b.values:
        return False
    diff_dims = [
        i for i, (va, vb) in enumerate(zip(a.values, b.values)) if va != vb
    ]
    if len(diff_dims) != 1:
        return False
    d = diff_dims[0]
    level = a.coord[d]
    if level == 0:
        return False  # both would be "*", hence not different
    hier = schema.dimensions[d].hierarchy
    return hier.parent(a.values[d], level) == hier.parent(b.values[d], level)
