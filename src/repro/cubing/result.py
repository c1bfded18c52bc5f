"""Cubing results and the Framework 4.1 retention semantics.

A :class:`CubeResult` is what every cubing algorithm returns: the retained
cuboids (m-layer and o-layer in full; intermediate cuboids restricted to the
algorithm's retained exception cells), the policy that judged exceptions,
and the run's resource statistics.

:func:`framework_closure` implements the paper's Framework 4.1 / footnote 7
retention semantics as a specification over a *fully materialized* cube:
starting from the drill seeds (the o-layer's exception cells, plus — for
popular-path cubing — every exception cell of the cuboids materialized along
the path), a cell of a non-seeded cuboid is retained iff it is exceptional
and one of its parent cells (one dimension, one level up) is a retained
driver.  Algorithm 2's output must equal this closure exactly; Algorithm 1's
output (all exception cells everywhere) is a superset — the test-suite pins
both facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from repro.cube.cell import roll_up_values
from repro.cube.cuboid import ColumnCells, Cuboid
from repro.cube.lattice import CuboidLattice
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.stats import CubingStats
from repro.errors import QueryError
from repro.regression.isb import ISB

__all__ = ["CubeResult", "framework_closure"]

Coord = tuple[int, ...]
Values = tuple[Hashable, ...]


@dataclass
class CubeResult:
    """Output of a cubing algorithm.

    ``complete_coords`` names the cuboids (beyond the always-complete m- and
    o-layers) whose entry in ``cuboids`` holds *every* cell of the group-by
    rather than just retained exception cells: popular-path cubing completes
    its path cuboids, full materialization completes everything.  Queries
    use :meth:`complete_cuboid` to serve whole-cuboid scans from them
    instead of re-aggregating the m-layer.

    The cell mappings (``Cuboid.cells``, the values of
    ``retained_exceptions``) are the column-backed
    :class:`~repro.cube.cuboid.ColumnCells` every walk returns: value tuples
    and ISB objects exist only for the cells a caller has read.
    """

    layers: CriticalLayers
    policy: ExceptionPolicy
    cuboids: dict[Coord, Cuboid]
    stats: CubingStats
    retained_exceptions: dict[Coord, Mapping[Values, ISB]] = field(
        default_factory=dict
    )
    complete_coords: frozenset[Coord] | None = None

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def o_layer(self) -> Cuboid:
        return self.cuboids[self.layers.o_coord]

    @property
    def m_layer(self) -> Cuboid:
        return self.cuboids[self.layers.m_coord]

    def is_complete(self, coord: Iterable[int]) -> bool:
        """Whether ``cuboids[coord]`` holds every cell of its group-by."""
        c = tuple(coord)
        if c not in self.cuboids:
            return False
        if c in (self.layers.m_coord, self.layers.o_coord):
            return True
        return self.complete_coords is not None and c in self.complete_coords

    def complete_cuboid(self, coord: Iterable[int]) -> Cuboid | None:
        """The fully materialized cuboid at ``coord``, or ``None``."""
        c = tuple(coord)
        return self.cuboids[c] if self.is_complete(c) else None

    def cuboid(self, coord: Iterable[int]) -> Cuboid:
        c = tuple(coord)
        try:
            return self.cuboids[c]
        except KeyError:
            raise QueryError(f"cuboid {c} was not materialized") from None

    def exceptions_at(self, coord: Iterable[int]) -> dict[Values, ISB]:
        """Retained exception cells of one cuboid (empty if none)."""
        return dict(self.retained_exceptions.get(tuple(coord), {}))

    def o_layer_exceptions(self) -> ColumnCells:
        """Exception cells at the observation layer (judged on demand, as
        one mask over the o-layer's columns; read-only, boxed on read)."""
        return ColumnCells(self.policy.exceptions(self.o_layer.columns))

    @property
    def total_retained_exceptions(self) -> int:
        return sum(len(v) for v in self.retained_exceptions.values())

    def describe(self) -> str:
        """A short multi-line summary (used by examples)."""
        lines = [
            f"{self.stats.algorithm}: {len(self.cuboids)} cuboids held, "
            f"{self.total_retained_exceptions} exception cells retained",
            f"  o-layer cells: {len(self.o_layer)}   "
            f"m-layer cells: {len(self.m_layer)}",
            f"  runtime: {self.stats.runtime_s:.4f}s   "
            f"memory model: {self.stats.megabytes:.3f} MB",
        ]
        return "\n".join(lines)


def framework_closure(
    full_cuboids: Mapping[Coord, Cuboid],
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    path_coords: Iterable[Coord] | None = None,
) -> dict[Coord, dict[Values, ISB]]:
    """Framework 4.1 retention over a fully materialized cube.

    Parameters
    ----------
    full_cuboids:
        Every lattice cuboid, fully materialized (the oracle).
    layers:
        The critical layers.
    policy:
        The exception policy.
    path_coords:
        Cuboids whose *every* exception cell seeds drilling (Algorithm 2
        materializes all cells of the popular path, so their exceptions all
        drive).  The o-layer always seeds.  With ``path_coords=None`` the
        closure describes pure o-layer-seeded drilling.

    Returns
    -------
    dict
        Per non-m-layer cuboid, the retained exception cells.  Seeded
        cuboids (o-layer + path) retain all of their exception cells;
        other cuboids retain the drill closure.
    """
    lattice: CuboidLattice = layers.lattice
    schema = layers.schema
    seeds = {layers.o_coord}
    if path_coords is not None:
        seeds.update(tuple(c) for c in path_coords)

    retained: dict[Coord, dict[Values, ISB]] = {}
    # Drivers per cuboid: the cells whose children get computed.
    drivers: dict[Coord, set[Values]] = {}

    for coord in lattice.top_down_order():
        cuboid = full_cuboids[coord]
        exceptional = {
            values: isb
            for values, isb in cuboid.items()
            if policy.is_exception(isb, coord)
        }
        if coord in seeds:
            kept = exceptional
        else:
            parent_drivers = [
                (p, drivers.get(p, set())) for p in lattice.parents(coord)
            ]
            kept = {}
            for values, isb in exceptional.items():
                for p_coord, p_driver in parent_drivers:
                    if not p_driver:
                        continue
                    parent_values = roll_up_values(
                        schema, values, coord, p_coord
                    )
                    if parent_values in p_driver:
                        kept[values] = isb
                        break
        drivers[coord] = set(kept)
        if coord != layers.m_coord:
            retained[coord] = kept
    return retained
