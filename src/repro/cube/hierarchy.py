"""Concept hierarchies for cube dimensions (paper Section 2.1).

Every standard dimension of a regression cube carries a concept hierarchy:
an ordered list of levels from coarse to fine (above which sits the implicit
``*`` / "all" level), with each value at a level having exactly one parent at
the level above.

Level indexing convention used throughout the library:

    level 0          = "*" (all; the implicit top)
    level 1 .. depth = the named levels, coarsest (1) to finest (depth)

Two implementations are provided:

* :class:`ExplicitHierarchy` — parent maps given explicitly (real schemas,
  e.g. the power grid's street-address → street-block → city).
* :class:`FanoutHierarchy` — integer-encoded hierarchy where every node has
  exactly ``fanout`` children, matching the paper's synthetic datasets
  ("the node fan-out factor (cardinality) is 10").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import HierarchyError

__all__ = [
    "ALL",
    "ConceptHierarchy",
    "ExplicitHierarchy",
    "FanoutHierarchy",
    "LevelCodes",
]

#: Sentinel dimension value for the "*" (all) level.
ALL = "*"


class ConceptHierarchy(ABC):
    """Abstract concept hierarchy over one dimension."""

    def __init__(self, name: str, level_names: Sequence[str]) -> None:
        if not level_names:
            raise HierarchyError(f"hierarchy {name!r} needs at least one level")
        if len(set(level_names)) != len(level_names):
            raise HierarchyError(f"hierarchy {name!r} has duplicate level names")
        self.name = name
        self.level_names = tuple(level_names)

    @property
    def depth(self) -> int:
        """Number of named levels (excluding ``*``)."""
        return len(self.level_names)

    def level_name(self, level: int) -> str:
        """Human-readable name for a level index (0 is ``*``)."""
        if level == 0:
            return ALL
        if not 1 <= level <= self.depth:
            raise HierarchyError(
                f"hierarchy {self.name!r} has no level {level} (depth {self.depth})"
            )
        return self.level_names[level - 1]

    def level_index(self, name: str) -> int:
        """Inverse of :meth:`level_name`."""
        if name == ALL:
            return 0
        try:
            return self.level_names.index(name) + 1
        except ValueError:
            raise HierarchyError(
                f"hierarchy {self.name!r} has no level named {name!r}"
            ) from None

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.depth:
            raise HierarchyError(
                f"hierarchy {self.name!r}: level {level} out of range "
                f"1..{self.depth}"
            )

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    @abstractmethod
    def parent(self, value: Hashable, level: int) -> Hashable:
        """Parent (at ``level - 1``) of ``value`` (at ``level >= 1``).

        The parent of any level-1 value is :data:`ALL`.
        """

    @abstractmethod
    def cardinality(self, level: int) -> int:
        """Number of distinct values at a named level (level 0 has 1)."""

    @abstractmethod
    def contains(self, value: Hashable, level: int) -> bool:
        """Whether ``value`` is a valid member of ``level``."""

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def ancestor(self, value: Hashable, from_level: int, to_level: int) -> Hashable:
        """Roll ``value`` up from ``from_level`` to ``to_level <= from_level``."""
        if to_level > from_level:
            raise HierarchyError(
                f"cannot roll up from level {from_level} to finer level {to_level}"
            )
        if to_level == 0:
            return ALL
        current = value
        for lvl in range(from_level, to_level, -1):
            current = self.parent(current, lvl)
        return current

    def ancestor_mapper(self, from_level: int, to_level: int):
        """A fast ``value -> ancestor`` callable for a fixed level pair.

        Row-at-a-time aggregation calls :meth:`ancestor` once per tuple per
        dimension; subclasses override this to return a closure with the
        per-pair work (divisors, chained maps) hoisted out of the loop.
        """
        if to_level > from_level:
            raise HierarchyError(
                f"cannot roll up from level {from_level} to finer level {to_level}"
            )
        if to_level == from_level:
            return lambda value: value
        if to_level == 0:
            return lambda value: ALL
        return lambda value: self.ancestor(value, from_level, to_level)

    def validate_value(self, value: Hashable, level: int) -> None:
        """Raise :class:`HierarchyError` unless ``value`` belongs to ``level``."""
        if level == 0:
            if value != ALL:
                raise HierarchyError(
                    f"level 0 of {self.name!r} only contains {ALL!r}, got {value!r}"
                )
            return
        self._check_level(level)
        if not self.contains(value, level):
            raise HierarchyError(
                f"{value!r} is not a level-{level} "
                f"({self.level_name(level)}) value of {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, levels={self.level_names})"


def _is_member(members: Mapping[Hashable, Hashable], value: Hashable) -> bool:
    """``value`` is one of ``members`` (each mapped to itself), as written:
    equal values that print apart (``True``, ``1.0`` and ``1``; ``-0.0``
    and ``0.0``) would share a cell and a code (:class:`LevelCodes`) but
    print and order apart."""
    if value not in members:
        return False
    member = members[value]
    return member is value or (
        type(member) is type(value) and repr(member) == repr(value)
    )


class ExplicitHierarchy(ConceptHierarchy):
    """Hierarchy defined by explicit child → parent maps.

    Parameters
    ----------
    name:
        Dimension name.
    level_names:
        Level names coarse → fine.
    parent_maps:
        One mapping per level from 2 to ``depth`` (in that order): the map at
        position ``i`` sends each level-``i+2`` value to its level-``i+1``
        parent.  Level-1 values are given separately.
    level1_values:
        The values of the coarsest named level.
    """

    def __init__(
        self,
        name: str,
        level_names: Sequence[str],
        level1_values: Iterable[Hashable],
        parent_maps: Sequence[Mapping[Hashable, Hashable]] = (),
    ) -> None:
        super().__init__(name, level_names)
        if len(parent_maps) != self.depth - 1:
            raise HierarchyError(
                f"hierarchy {name!r}: need {self.depth - 1} parent maps for "
                f"{self.depth} levels, got {len(parent_maps)}"
            )
        # Each level's members mapped to themselves, for :func:`_is_member`.
        self._values: list[dict[Hashable, Hashable]] = [
            {v: v for v in dict.fromkeys(level1_values)}
        ]
        if not self._values[0]:
            raise HierarchyError(f"hierarchy {name!r}: level 1 has no values")
        self._parents: list[dict[Hashable, Hashable]] = []
        for i, mapping in enumerate(parent_maps):
            level = i + 2
            parents = dict(mapping)
            if not parents:
                raise HierarchyError(
                    f"hierarchy {name!r}: level {level} has no values"
                )
            upper = self._values[i]
            for child, parent in parents.items():
                if not _is_member(upper, parent):
                    raise HierarchyError(
                        f"hierarchy {name!r}: level-{level} value {child!r} "
                        f"has unknown parent {parent!r}"
                    )
            self._parents.append(parents)
            self._values.append({child: child for child in parents})

    def parent(self, value: Hashable, level: int) -> Hashable:
        self._check_level(level)
        if level == 1:
            if value not in self._values[0]:
                raise HierarchyError(
                    f"{value!r} is not a level-1 value of {self.name!r}"
                )
            return ALL
        try:
            return self._parents[level - 2][value]
        except KeyError:
            raise HierarchyError(
                f"{value!r} is not a level-{level} value of {self.name!r}"
            ) from None

    def cardinality(self, level: int) -> int:
        if level == 0:
            return 1
        self._check_level(level)
        return len(self._values[level - 1])

    def contains(self, value: Hashable, level: int) -> bool:
        if level == 0:
            return value == ALL
        self._check_level(level)
        return _is_member(self._values[level - 1], value)

    def values(self, level: int) -> frozenset[Hashable]:
        """All values of a named level."""
        self._check_level(level)
        return frozenset(self._values[level - 1])

    def ancestor_mapper(self, from_level: int, to_level: int):
        if to_level > from_level:
            raise HierarchyError(
                f"cannot roll up from level {from_level} to finer level {to_level}"
            )
        if to_level == from_level:
            return lambda value: value
        if to_level == 0:
            return lambda value: ALL
        # Compose the parent maps once; lookups become a single dict access.
        composed = {v: v for v in self._values[from_level - 1]}
        for level in range(from_level, to_level, -1):
            parents = self._parents[level - 2]
            composed = {v: parents[a] for v, a in composed.items()}
        return composed.__getitem__


class FanoutHierarchy(ConceptHierarchy):
    """Integer-encoded hierarchy with uniform fanout.

    Level ``l`` holds the integers ``0 .. fanout**l - 1`` (``True`` is not
    ``1`` here); the parent of value ``v`` at level ``l`` is ``v // fanout``
    at level ``l - 1``.  This is the encoding behind the paper's ``DxLyCz``
    synthetic datasets: ``C10`` means every node has 10 children, so level
    ``l`` has cardinality ``10**l``.
    """

    def __init__(self, name: str, depth: int, fanout: int,
                 level_names: Sequence[str] | None = None) -> None:
        if depth < 1:
            raise HierarchyError(f"hierarchy {name!r}: depth must be >= 1")
        if fanout < 1:
            raise HierarchyError(f"hierarchy {name!r}: fanout must be >= 1")
        if level_names is None:
            level_names = tuple(f"{name}{i}" for i in range(1, depth + 1))
        super().__init__(name, level_names)
        if len(level_names) != depth:
            raise HierarchyError(
                f"hierarchy {name!r}: {len(level_names)} names for depth {depth}"
            )
        self.fanout = fanout

    def parent(self, value: Hashable, level: int) -> Hashable:
        self._check_level(level)
        v = self._as_member(value, level)
        if level == 1:
            return ALL
        return v // self.fanout

    def cardinality(self, level: int) -> int:
        if level == 0:
            return 1
        self._check_level(level)
        return self.fanout**level

    def contains(self, value: Hashable, level: int) -> bool:
        if level == 0:
            return value == ALL
        self._check_level(level)
        # A bool is an int equal to 0 or 1: see _is_member.
        return (
            isinstance(value, int)
            and type(value) is not bool
            and 0 <= value < self.fanout**level
        )

    def ancestor(self, value: Hashable, from_level: int, to_level: int) -> Hashable:
        # Closed form instead of the generic level-by-level walk.
        if to_level > from_level:
            raise HierarchyError(
                f"cannot roll up from level {from_level} to finer level {to_level}"
            )
        if to_level == from_level:
            return value
        if to_level == 0:
            return ALL
        v = self._as_member(value, from_level)
        return v // (self.fanout ** (from_level - to_level))

    def ancestor_mapper(self, from_level: int, to_level: int):
        if to_level > from_level:
            raise HierarchyError(
                f"cannot roll up from level {from_level} to finer level {to_level}"
            )
        if to_level == from_level:
            return lambda value: value
        if to_level == 0:
            return lambda value: ALL
        divisor = self.fanout ** (from_level - to_level)
        return lambda value: value // divisor

    def leaf_for(self, index: int) -> int:
        """Map an arbitrary non-negative integer onto a leaf value (mod card)."""
        return index % self.cardinality(self.depth)

    def _as_member(self, value: Hashable, level: int) -> int:
        if (
            not isinstance(value, int)
            or type(value) is bool
            or not 0 <= value < self.fanout**level
        ):
            raise HierarchyError(
                f"{value!r} is not a level-{level} value of {self.name!r}"
            )
        return value


def _int64(codes: list[int]):
    return np.array(codes, dtype=np.int64)


class LevelCodes:
    """Integer codes for one dimension's values, with ancestor-code arrays.

    The columnar roll-ups (:class:`repro.cube.cuboid.CuboidColumns`) never
    touch hierarchy values row by row: a dimension's distinct values at the
    finest level in play are numbered once, in first-seen order, and each
    coarser level, when first asked for, gets an array sending every fine
    code to its ancestor's code (ancestors numbered in first-seen order
    too).  The arrays are built through
    :meth:`ConceptHierarchy.ancestor_mapper` over the *distinct* values, so
    every hierarchy implementation takes the same path.  Requires numpy.
    """

    __slots__ = ("hierarchy", "level", "_index", "_up", "_lifts")

    def __init__(
        self,
        hierarchy: ConceptHierarchy,
        level: int,
        index: Mapping[Hashable, int],
    ) -> None:
        """``index`` numbers the distinct level-``level`` values ``0..n-1``
        in iteration order (the dict a first-seen encoding pass leaves)."""
        self.hierarchy = hierarchy
        self.level = level
        self._index: dict[int, Mapping[Hashable, int]] = {level: index}
        self._up: dict[int, object] = {}
        self._lifts: dict[tuple[int, int], object] = {}

    @classmethod
    def encode(
        cls, hierarchy: ConceptHierarchy, level: int, column: Iterable[Hashable]
    ) -> tuple["LevelCodes", object]:
        """Number a column of level-``level`` values; returns the table and
        the column's int64 codes."""
        index: dict[Hashable, int] = {}
        codes = [index.setdefault(v, len(index)) for v in column]
        return cls(hierarchy, level, index), _int64(codes)

    def index(self, level: int) -> Mapping[Hashable, int]:
        """``value -> code`` for the level-``level`` values present; a code
        is the value's position in iteration order."""
        index = self._index.get(level)
        if index is None:
            # Map up from the nearest finer level already numbered: its
            # distinct values are the fewest the mapper has to be called on.
            finer = min(lvl for lvl in self._index if lvl > level)
            mapper = self.hierarchy.ancestor_mapper(finer, level)
            index = {}
            up = _int64(
                [
                    index.setdefault(mapper(v), len(index))
                    for v in self._index[finer]
                ]
            )
            self._index[level] = index
            self._up[level] = up if finer == self.level else up[self._up[finer]]
        return index

    def lift(self, from_level: int, to_level: int):
        """Array sending level-``from_level`` codes to their ancestors'
        level-``to_level`` codes (``to_level < from_level``)."""
        self.index(to_level)
        if from_level == self.level:
            return self._up[to_level]
        lift = self._lifts.get((from_level, to_level))
        if lift is None:
            lift = np.empty(len(self.index(from_level)), dtype=np.int64)
            lift[self._up[from_level]] = self._up[to_level]
            self._lifts[(from_level, to_level)] = lift
        return lift
