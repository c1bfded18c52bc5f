"""Algorithm 2: popular-path cubing (paper Section 4.4).

Materialize only the cuboids along a popular drilling path (they live in the
H-tree's interior nodes after a bottom-up aggregation pass), then compute
exception cells *on demand*: starting at the o-layer, the children of every
exception cell of a computed cuboid are aggregated — by rolling up from the
closest computed path cuboid — and only those children that are themselves
exceptional are retained and drilled further, recursively down to the
m-layer (Framework 4.1, footnote 7).

Cost profile, matching the paper's analysis: at low exception rates almost
no off-path cuboid is touched (fast, but the path cells must be stored); at
high exception rates nearly every cuboid is drilled, and each drill scans a
path source without the cross-cuboid sharing m/o-cubing enjoys (slower).

The path cuboids leave the tree as code columns under the m-layer's tables,
and drilling stays on them (:func:`_drill`): roll-ups and driver membership
run on integer codes, with one grouped Theorem 3.2 kernel call per cuboid.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.cube.cuboid import ColumnCells, Cuboid, CuboidColumns
from repro.cube.lattice import PopularPath
from repro.cube.layers import CriticalLayers
from repro.cubing.build import build_path_htree
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.errors import CubingError
from repro.htree.tree import HTree
from repro.regression import kernels
from repro.regression.isb import ISB

__all__ = ["popular_path_cubing", "popular_path_cubing_from_tree"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def popular_path_cubing(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]],
    policy: ExceptionPolicy,
    path: PopularPath | None = None,
) -> CubeResult:
    """Run Algorithm 2 end to end: build the path-order H-tree, then cube.

    ``path`` defaults to :meth:`PopularPath.default` (drill dimensions in
    schema order).
    """
    if path is None:
        path = PopularPath.default(layers.lattice)
    _check_path(layers, path)
    items = m_cells.items() if isinstance(m_cells, Mapping) else m_cells
    tree = build_path_htree(layers, path, items)
    return popular_path_cubing_from_tree(layers, tree, policy, path)


def _check_path(layers: CriticalLayers, path: PopularPath) -> None:
    if path.m_coord != layers.m_coord or path.o_coord != layers.o_coord:
        raise CubingError(
            f"path runs {path.m_coord}->{path.o_coord} but the layers are "
            f"m={layers.m_coord}, o={layers.o_coord}"
        )


def _extract_path_cells(
    tree: HTree, layers: CriticalLayers, path: PopularPath
) -> dict[Coord, CuboidColumns]:
    """Read every path cuboid out of the aggregated tree in one DFS.

    In path attribute order, the node at depth ``n_o_attrs + j`` *is* a cell
    of the ``j``-th path cuboid (counted o-layer-first); its cell key per
    dimension is the prefix value at that dimension's level attribute, or
    ``*`` where the cuboid's level is 0.  The m-layer cuboid is encoded
    first and every other path cuboid under its code tables, so all of
    them — and every cuboid drilled from them — share one key numbering.
    """
    from repro.cube.hierarchy import ALL

    n_o_attrs = sum(layers.o_coord)
    o_first = list(reversed(path.coords))
    plans: dict[int, tuple[Coord, tuple[int | None, ...]]] = {}
    for j, coord in enumerate(o_first):
        plan = tuple(
            None if level == 0 else tree.attr_position(d, level)
            for d, level in enumerate(coord)
        )
        plans[n_o_attrs + j] = (coord, plan)
    out: dict[Coord, dict[Values, ISB]] = {coord: {} for coord in o_first}
    max_depth = max(plans) if plans else 0

    # Iterative pre-order DFS over (node, depth): when a node at depth d is
    # popped, prefix[0..d-2] still holds its ancestors' values (siblings
    # overwrite exactly slot d-1), so one shared buffer replaces recursion
    # frames on this node-count-sized hot path.  Subtrees below the deepest
    # plan depth are never entered.
    prefix: list = [None] * max_depth
    stack: list = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth:
            prefix[depth - 1] = node.value
        entry = plans.get(depth)
        if entry is not None:
            coord, plan = entry
            key = tuple([ALL if p is None else prefix[p] for p in plan])
            out[coord][key] = node.isb
        if depth < max_depth:
            # Reversed push keeps the recursive visit order (and with it the
            # cuboids' cell insertion order) unchanged.
            for child in reversed(node.children.values()):
                stack.append((child, depth + 1))
    schema, m_coord = layers.schema, layers.m_coord
    m_layer = CuboidColumns.from_cells(
        schema, m_coord, list(out[m_coord]), out[m_coord].values()
    )
    return {
        coord: m_layer
        if coord == m_coord
        else CuboidColumns.from_cells(
            schema, coord, list(cells), cells.values(), m_layer.tables
        )
        for coord, cells in out.items()
    }


def _drill(
    source: CuboidColumns,
    coord: Coord,
    parents: list[CuboidColumns],
    all_driven: bool,
) -> CuboidColumns:
    """The cells of cuboid ``coord`` that some parent's driver rows drive,
    aggregated from ``source``.

    Every cuboid of the run shares the m-layer's code tables, so this is
    gathers and packed keys: roll the source rows up to ``coord``, roll
    those up to each parent and test membership among the parent's drivers
    with ``np.isin``, then merge the driven rows with the grouped
    Theorem 3.2 kernel.  No per-row Python, whatever the hierarchies are.
    """
    rows = source.lifted(coord)
    if not all_driven:
        driven = np.zeros(len(rows), dtype=bool)
        for drivers in parents:
            # Packed together, so both sides share one key numbering.
            k = len(drivers)
            ids = kernels.pack_keys(
                [
                    np.concatenate(pair)
                    for pair in zip(drivers.codes, rows.codes_at(drivers.coord))
                ],
                rows.cards(drivers.coord),
                k + len(rows),
            )
            driven |= np.isin(ids[k:], ids[:k])
        rows = rows.take(np.flatnonzero(driven))
    return rows.merged()


def popular_path_cubing_from_tree(
    layers: CriticalLayers,
    tree: HTree,
    policy: ExceptionPolicy,
    path: PopularPath,
) -> CubeResult:
    """Run Algorithm 2's Steps 2-3 on an already-built path-order H-tree."""
    schema = layers.schema
    lattice = layers.lattice
    _check_path(layers, path)
    stats = CubingStats("popular-path", n_dims=schema.n_dims)
    watch = Stopwatch()
    result_cuboids: dict[Coord, Cuboid] = {}
    retained_exceptions: dict[Coord, Mapping[Values, ISB]] = {}
    path_set = set(path.coords)

    if not tree.node_count:  # an empty m-layer: nothing to aggregate or drill
        for coord in lattice.top_down_order():
            empty = result_cuboids[coord] = Cuboid.from_cells(schema, coord)
            if coord not in (layers.m_coord, layers.o_coord):
                retained_exceptions[coord] = empty.cells
        return CubeResult(
            layers=layers,
            policy=policy,
            cuboids=result_cuboids,
            stats=stats,
            retained_exceptions=retained_exceptions,
            complete_coords=frozenset(path_set),
        )

    # ------------------------------------------------------------------
    # Step 2: roll up along the path; the tree stores the path cuboids.
    # ------------------------------------------------------------------
    tree.aggregate_interior()
    stats.rows_scanned += tree.node_count  # one bottom-up pass
    stats.htree_nodes = tree.node_count

    path_cells = _extract_path_cells(tree, layers, path)
    for cells in path_cells.values():
        stats.cells_computed += len(cells)
        stats.cuboids_computed += 1
    stats.htree_leaf_isbs = len(path_cells[layers.m_coord])
    # Every non-leaf node stores a regression point (root included).
    stats.htree_interior_isbs = tree.node_count - stats.htree_leaf_isbs + 1

    # ------------------------------------------------------------------
    # Step 3: exception-guided drilling, o-layer downward.
    # ------------------------------------------------------------------
    #: Per computed cuboid, its exception rows: the cells whose children
    #: get computed.
    drivers: dict[Coord, CuboidColumns] = {}
    # Path cuboids are fully materialized, so "every computed cell is a
    # driver" means every child group's parent exists and drives — the
    # membership scan below can be skipped wholesale.  (Not sound for
    # drilled cuboids: their computed cells are only the driven subset.)
    fully_driven: set[Coord] = set()

    for coord in lattice.top_down_order():
        if coord in path_set:
            cells = path_cells[coord]
        else:
            active_parents = [
                drivers[p] for p in lattice.parents(coord) if drivers.get(p)
            ]
            if not active_parents:
                skipped = result_cuboids[coord] = Cuboid.from_cells(schema, coord)
                retained_exceptions[coord] = skipped.cells
                stats.cuboids_skipped += 1
                continue
            src_coord = lattice.closest_descendant(coord, path.coords)
            assert src_coord is not None  # the m-layer is on the path
            src = path_cells[src_coord]
            stats.rows_scanned += len(src)
            all_driven = any(p.coord in fully_driven for p in active_parents)
            cells = _drill(src, coord, active_parents, all_driven)
            stats.cells_computed += len(cells)
            stats.cuboids_computed += 1
            if len(cells) > stats.transient_peak_cells:
                stats.transient_peak_cells = len(cells)

        exceptions = drivers[coord] = policy.exceptions(cells)
        if coord in path_set and len(cells) and len(exceptions) == len(cells):
            fully_driven.add(coord)

        if coord == layers.o_coord:
            result_cuboids[coord] = Cuboid(schema, cells)
            stats.retained_cells += len(cells)
        elif coord == layers.m_coord:
            result_cuboids[coord] = Cuboid(schema, cells)
            # The m-layer is charged to the tree's leaf regression points.
        elif coord in path_set:
            # Path cells stay resident in the tree (charged as interior
            # ISBs); the *output* is the exception cells.
            result_cuboids[coord] = Cuboid(schema, cells)
            retained_exceptions[coord] = ColumnCells(exceptions)
        else:
            kept = result_cuboids[coord] = Cuboid(schema, exceptions)
            retained_exceptions[coord] = kept.cells
            stats.retained_cells += len(exceptions)

    stats.runtime_s = watch.elapsed()
    return CubeResult(
        layers=layers,
        policy=policy,
        cuboids=result_cuboids,
        stats=stats,
        retained_exceptions=retained_exceptions,
        # Path cuboids are fully materialized (step 2), so whole-cuboid
        # queries can serve from them instead of re-aggregating the m-layer.
        complete_coords=frozenset(path_set),
    )
