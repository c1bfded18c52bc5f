"""Algorithm 1: m/o H-cubing (paper Section 4.4).

Compute regressions for every cuboid from the m-layer up to the o-layer via
the H-tree, retaining only the exception cells in between (all cells are
retained at the two critical layers).  The computation is bottom-up and
shared: each cuboid is aggregated (Theorem 3.2) from its cheapest
already-computed descendant cuboid, mirroring H-cubing's reuse of lower
group-bys; working cuboids are freed as soon as every cuboid that could roll
up from them has been computed.

Memory model note: H-cubing's transient space is "one local H-header table
for each level", reused across sibling group-bys — the header for a group-by
holds one entry per distinct cell of the cuboid under computation.  The
model therefore charges the *largest single cuboid* ever computed as the
transient working set (a conservative bound on the local header tables), not
the Python-side working dictionary, which is an implementation convenience.
Retained memory is the o-layer plus the exception cells — the paper's "only
the exception cells take additional space".

Plan and run.  The walk is split in two.  What it derives from the
m-layer's *cell set* alone — its keys as code columns, encoded once by the
caller (``mo_cubing`` encodes its mapping; the sharded cube hands over the
rows its merged cell set is held in) — is a :class:`CubePlan`: duplicate
cells grouped, the H-tree's leaf order, per cuboid its source cuboid and
the ``(group id, first row)`` of the roll-up, and every counter of the
memory model that does not depend on a float.  What is left for the
measures is :meth:`CubePlan.run`: one grouped Theorem 3.2 kernel call per
cuboid over the plan's recorded grouping and one exception mask — the same rows in the same order through the same
``bincount`` passes as grouping them afresh, so the same bits.
``mo_cubing`` plans and runs in one call; a caller whose cell set outlives
its measures (a stream cube between seals) keeps the plan and hands
``mo_cubing`` a :class:`PlannedCells`.  Value tuples and :class:`ISB`
objects are built only for the cells a reader asks the result for
(:class:`~repro.cube.cuboid.ColumnCells`).  The paper's own walk — build the
H-tree (:func:`~repro.cubing.build.build_mo_htree`), then roll its leaves up
one cuboid at a time (:func:`mo_cubing_from_tree`) — is never a fallback: it
is the differential reference the plan is tested against: key order,
exception sets and every counter equal, floats per the contract in
:mod:`repro.regression.kernels`.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.cube.cuboid import Cuboid, CuboidColumns
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.htree.tree import HTree, cardinality_ascending_order
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.regression.kernels import ISBColumns

__all__ = ["CubePlan", "PlannedCells", "mo_cubing", "mo_cubing_from_tree"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def mo_cubing(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]] | PlannedCells,
    policy: ExceptionPolicy,
) -> CubeResult:
    """Run Algorithm 1 end to end: load the m-layer, then cube.

    ``m_cells`` are the m-layer regression cells ("Step 1" — aggregating the
    raw stream to the m-layer — is the stream engine's job; benchmarks and
    tests produce m-layer cells directly), or a :class:`PlannedCells` from a
    caller that kept the plan of an unchanged cell set.
    """
    if isinstance(m_cells, PlannedCells):
        return m_cells.plan.run(m_cells.columns, policy)
    items = m_cells.items() if isinstance(m_cells, Mapping) else m_cells
    pairs = list(items)
    keys = [values for values, _ in pairs]
    rows = CuboidColumns.from_cells(layers.schema, layers.m_coord, keys, None)
    plan = CubePlan(layers, rows)
    return plan.run(ISBColumns.from_isbs(isb for _, isb in pairs), policy)


class CubePlan:
    """Everything Algorithm 1 derives from the m-layer's cell set alone.

    Built from the cell keys encoded at the m-layer (``rows``, a key-only
    :class:`~repro.cube.cuboid.CuboidColumns`, one row per cell): duplicate
    cells grouped, the H-tree's leaf order, and per cuboid of the bottom-up
    walk its source cuboid, the ``(group id, first row)`` of the roll-up and
    its key columns — plus the structure-derived counters (``htree_nodes``,
    ``header_entries``, ``rows_scanned``, ``cells_computed``,
    ``transient_peak_cells``, ``cuboids_computed``).  Nothing in it depends
    on how the codes were numbered or on a measure, so it holds for as long
    as the cell set does; any change of keys or of their order needs a new
    plan.  Immutable once built: concurrent :meth:`run` calls may share one.
    """

    def __init__(self, layers: CriticalLayers, rows: CuboidColumns) -> None:
        self.layers = layers
        schema, m_coord, lattice = layers.schema, layers.m_coord, layers.lattice
        # Duplicate cells merge (Theorem 3.2) before anything else.
        gid, first = rows.grouping()
        self._duplicates = None if len(first) == len(rows) else (gid, first)

        # Leaf order: the last header table's values in first-seen order,
        # each value's side-link chain in insertion order.
        attributes = cardinality_ascending_order(schema, m_coord)
        last_dim, last_level = attributes[-1]
        at_last = tuple(
            last_level if d == last_dim else level
            for d, level in enumerate(m_coord)
        )
        last = rows.codes_at(at_last)[last_dim][first]
        self._leaf_order = np.argsort(
            kernels.first_seen_groups(last)[0], kind="stable"
        )
        m_layer = rows.take(first[self._leaf_order])

        stats = CubingStats("m/o-cubing", n_dims=schema.n_dims)
        # One tree node per distinct attribute prefix, one header entry per
        # distinct attribute value.
        depth = [0] * schema.n_dims
        for d, level in attributes:
            depth[d] = max(depth[d], level)
            prefix = tuple(depth)
            stats.htree_nodes += kernels.distinct_count(
                kernels.pack_keys(
                    m_layer.codes_at(prefix), m_layer.cards(prefix), len(m_layer)
                )
            )
        stats.header_entries = sum(
            len(m_layer.tables[d].index(level)) for d, level in attributes
        )

        # The shared bottom-up walk: each cuboid rolls up from its cheapest
        # computed descendant; descendants are freed (as sources) once every
        # cuboid that could roll up from them has been computed.
        parents_remaining = {
            coord: len(lattice.parents(coord)) for coord in lattice.coords()
        }
        working: dict[Coord, CuboidColumns] = {}
        #: Per cuboid, bottom-up: ``(key columns, source coord, gid, first)``.
        self._steps: list[tuple[CuboidColumns, Coord | None, object, object]] = []
        for coord in lattice.bottom_up_order():
            if coord == m_coord:
                cuboid, src_coord, gid, first = m_layer, None, None, None
                stats.rows_scanned += len(cuboid)
                stats.htree_leaf_isbs = len(cuboid)
            else:
                src_coord = lattice.closest_descendant(coord, list(working))
                assert src_coord is not None, "children are freed only after parents"
                lifted = working[src_coord].lifted(coord)
                gid, first = lifted.grouping()
                cuboid = lifted.take(first)
                stats.rows_scanned += len(lifted)
                # Local-header-table bound: the largest group-by under
                # computation (see module docstring).
                stats.transient_peak_cells = max(
                    stats.transient_peak_cells, len(cuboid)
                )
            stats.cells_computed += len(cuboid)
            stats.cuboids_computed += 1
            working[coord] = cuboid
            self._steps.append((cuboid, src_coord, gid, first))
            for child in lattice.children(coord):
                parents_remaining[child] -= 1
                if parents_remaining[child] == 0:
                    working.pop(child, None)
        self._stats = stats

    def run(self, columns: ISBColumns, policy: ExceptionPolicy) -> CubeResult:
        """Algorithm 1 over the m-layer measures ``columns``, one row per
        key the plan was built from, in that order."""
        layers = self.layers
        watch = Stopwatch()
        if self._duplicates is not None:
            columns = kernels.merge_by_group(columns, *self._duplicates)
        stats = dataclasses.replace(self._stats)
        computed: dict[Coord, ISBColumns] = {}
        cuboids: dict[Coord, Cuboid] = {}
        retained_exceptions: dict[Coord, Mapping[Values, ISB]] = {}
        for keys, src_coord, gid, first in self._steps:
            coord = keys.coord
            isbs = computed[coord] = (
                columns.take(self._leaf_order)
                if src_coord is None
                else kernels.merge_by_group(computed[src_coord], gid, first)
            )
            cuboid = keys.with_isbs(isbs)
            critical = coord in (layers.m_coord, layers.o_coord)
            if not critical:  # in between, only the exception cells stay
                cuboid = policy.exceptions(cuboid)
            cuboids[coord] = Cuboid(layers.schema, cuboid)
            if not critical:
                retained_exceptions[coord] = cuboids[coord].cells
            # The m-layer is the tree's own data: memory is charged to the
            # tree leaves, not to retained cells.
            if coord != layers.m_coord:
                stats.retained_cells += len(cuboid)
        stats.runtime_s = watch.elapsed()
        return CubeResult(
            layers=layers,
            policy=policy,
            cuboids=cuboids,
            stats=stats,
            retained_exceptions=retained_exceptions,
        )


class PlannedCells(NamedTuple):
    """An m-layer handed over as columns under the plan of its cell set:
    ``columns`` has one row per key ``plan`` was built from, in that order."""

    plan: CubePlan
    columns: ISBColumns


def mo_cubing_from_tree(
    layers: CriticalLayers, tree: HTree, policy: ExceptionPolicy
) -> CubeResult:
    """Run Algorithm 1's Step 2 on an already-built H-tree: the leaves are
    encoded once, then each cuboid rolls up from a computed descendant."""
    schema = layers.schema
    lattice = layers.lattice
    stats = CubingStats("m/o-cubing", n_dims=schema.n_dims)
    watch = Stopwatch()

    stats.htree_nodes = tree.node_count
    stats.header_entries = tree.header_entry_count

    order = lattice.bottom_up_order()
    parents_remaining: dict[Coord, int] = {
        coord: len(lattice.parents(coord)) for coord in order
    }

    working: dict[Coord, CuboidColumns] = {}
    result_cuboids: dict[Coord, Cuboid] = {}
    retained_exceptions: dict[Coord, Mapping[Values, ISB]] = {}

    for coord in order:
        if coord == layers.m_coord:
            cuboid = Cuboid.from_cells(schema, coord, tree.leaf_cells()).columns
            stats.rows_scanned += len(cuboid)
            stats.htree_leaf_isbs = len(cuboid)
        else:
            src_coord = lattice.closest_descendant(coord, list(working))
            assert src_coord is not None, "children are freed only after parents"
            src = working[src_coord]
            cuboid = src.roll_up(coord)
            stats.rows_scanned += len(src)
            # Local-header-table bound: the largest group-by under
            # computation (see module docstring).
            if len(cuboid) > stats.transient_peak_cells:
                stats.transient_peak_cells = len(cuboid)
        stats.cells_computed += len(cuboid)
        stats.cuboids_computed += 1
        working[coord] = cuboid

        if coord == layers.o_coord:
            result_cuboids[coord] = Cuboid(schema, cuboid)
            stats.retained_cells += len(cuboid)
        elif coord == layers.m_coord:
            # The m-layer is the tree's own data; memory is charged to the
            # tree leaves, not to retained cells.
            result_cuboids[coord] = Cuboid(schema, cuboid)
        else:
            exceptions = result_cuboids[coord] = Cuboid(
                schema, policy.exceptions(cuboid)
            )
            retained_exceptions[coord] = exceptions.cells
            stats.retained_cells += len(exceptions)

        # Free any descendant whose every parent cuboid is now computed
        # (Python-side memory hygiene; the model charge is the local header).
        for child in lattice.children(coord):
            parents_remaining[child] -= 1
            if parents_remaining[child] == 0:
                working.pop(child, None)

    stats.runtime_s = watch.elapsed()
    return CubeResult(
        layers=layers,
        policy=policy,
        cuboids=result_cuboids,
        stats=stats,
        retained_exceptions=retained_exceptions,
    )
