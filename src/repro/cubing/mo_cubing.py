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

Two carriers, one walk.  With numpy the m-layer is encoded once into
integer code columns (:class:`~repro.cube.cuboid.CuboidColumns`) and every
roll-up is a gather, a packed key and two ``np.bincount`` passes; value
tuples and :class:`ISB` objects are built only for the cells the result
retains.  What the H-tree contributes to the result — the m-layer's leaf
order and the node / header-entry counts of the memory model — is derived
from the code columns.  Without numpy the H-tree is built and the same walk
runs over :class:`~repro.cube.cuboid.Cuboid` dicts; that scalar walk
(:func:`mo_cubing_from_tree`) is also the differential reference the
columnar one is tested against: key order, exception sets and every counter
equal, floats per the contract in :mod:`repro.regression.kernels`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cube.cuboid import Cuboid, CuboidColumns
from repro.cube.layers import CriticalLayers
from repro.cubing.build import build_mo_htree
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.htree.tree import HTree, cardinality_ascending_order
from repro.regression import kernels
from repro.regression.isb import ISB

__all__ = ["mo_cubing", "mo_cubing_from_tree"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def mo_cubing(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]],
    policy: ExceptionPolicy,
) -> CubeResult:
    """Run Algorithm 1 end to end: load the m-layer, then cube.

    ``m_cells`` are the m-layer regression cells ("Step 1" — aggregating the
    raw stream to the m-layer — is the stream engine's job; benchmarks and
    tests produce m-layer cells directly).
    """
    items = m_cells.items() if isinstance(m_cells, Mapping) else m_cells
    if kernels.HAVE_NUMPY:
        return _cube(layers, policy, *_columnar_m_layer(layers, items))
    tree = build_mo_htree(layers, items)
    return mo_cubing_from_tree(layers, tree, policy)


def mo_cubing_from_tree(
    layers: CriticalLayers, tree: HTree, policy: ExceptionPolicy
) -> CubeResult:
    """Run Algorithm 1's Step 2 on an already-built H-tree (scalar walk)."""
    m_layer = Cuboid(layers.schema, layers.m_coord, dict(tree.leaf_cells()))
    return _cube(
        layers,
        policy,
        m_layer,
        m_layer.cells,
        tree.node_count,
        tree.header_entry_count,
    )


def _columnar_m_layer(
    layers: CriticalLayers, items: Iterable[tuple[Values, ISB]]
) -> tuple[CuboidColumns, dict[Values, ISB], int, int]:
    """Encode the m-layer cells and derive what the H-tree contributes.

    Returns the m-layer as columns and as the ``{values: isb}`` dict the
    result retains, both in H-tree leaf order, plus the node and
    header-entry counts of the tree :func:`build_mo_htree` would build.
    Duplicate cells merge (Theorem 3.2) and values outside the hierarchies
    raise what :meth:`HTree.insert_many`'s validator raises.
    """
    np = kernels.np
    schema = layers.schema
    m_coord = layers.m_coord
    pairs = list(items)
    keys = [tuple(values) for values, _ in pairs]
    isbs = [isb for _, isb in pairs]
    if set(map(len, keys)) - {schema.n_dims}:
        _validate_rows(layers, keys)
    rows = CuboidColumns.from_cells(schema, m_coord, keys, isbs)
    # Membership is checked once per distinct value; a column mixing types
    # (whose equal values the encoding dict conflates: 1 and 1.0) goes to
    # the row validator like any other doubt.
    if any(
        len(set(map(type, column))) > 1
        or not all(dim.hierarchy.contains(v, level) for v in table.index(level))
        for dim, level, table, column in zip(
            schema.dimensions, m_coord, rows.tables, zip(*keys)
        )
    ):
        _validate_rows(layers, keys)
    cards = rows.cards(m_coord)
    merged, first = kernels.group_merge(
        rows.isbs, kernels.pack_keys(rows.codes, cards, len(rows))
    )

    # Leaf order: the last header table's values in first-seen order, each
    # value's side-link chain in insertion order.
    attributes = cardinality_ascending_order(schema, m_coord)
    last_dim, last_level = attributes[-1]
    at_last = tuple(
        last_level if d == last_dim else level
        for d, level in enumerate(m_coord)
    )
    chain = np.argsort(rows.codes_at(at_last)[last_dim][first], kind="stable")
    source = first[chain]
    m_layer = CuboidColumns(
        m_coord,
        rows.tables,
        [column[source] for column in rows.codes],
        merged.take(chain),
    )
    leaf_isbs = (
        map(isbs.__getitem__, source.tolist())
        if len(first) == len(rows)  # no duplicates: the inputs are the cells
        else m_layer.isbs.to_isbs()
    )
    m_cells = dict(zip(map(keys.__getitem__, source.tolist()), leaf_isbs))

    # One tree node per distinct attribute prefix, one header entry per
    # distinct attribute value.
    nodes = 0
    depth = [0] * schema.n_dims
    for d, level in attributes:
        depth[d] = max(depth[d], level)
        prefix = tuple(depth)
        nodes += kernels.distinct_count(
            kernels.pack_keys(
                m_layer.codes_at(prefix), m_layer.cards(prefix), len(m_layer)
            )
        )
    header_entries = sum(
        len(m_layer.tables[d].index(level)) for d, level in attributes
    )
    return m_layer, m_cells, nodes, header_entries


def _validate_rows(layers: CriticalLayers, keys: list[Values]) -> None:
    """Raise what :meth:`HTree.insert_many` raises for the first bad row."""
    validate = layers.schema.values_validator(layers.m_coord)
    for values in keys:
        validate(values)


def _retained(
    cuboid: Cuboid | CuboidColumns, policy: ExceptionPolicy | None
) -> dict[Values, ISB]:
    """The cells of ``cuboid`` the result keeps: its exceptions under
    ``policy``, or every cell when ``policy`` is ``None``."""
    if isinstance(cuboid, Cuboid):
        if policy is None:
            return cuboid.cells
        return {
            values: isb
            for values, isb in cuboid.items()
            if policy.is_exception(isb, cuboid.coord)
        }
    if policy is None:
        return cuboid.cells()
    mask = policy.exception_mask(cuboid.isbs.slope, cuboid.coord)
    return cuboid.take(kernels.np.flatnonzero(mask)).cells()


def _cube(
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    m_layer: Cuboid | CuboidColumns,
    m_cells: dict[Values, ISB],
    htree_nodes: int,
    header_entries: int,
) -> CubeResult:
    """Algorithm 1's Step 2: the shared bottom-up walk from the m-layer."""
    schema = layers.schema
    lattice = layers.lattice
    stats = CubingStats("m/o-cubing", n_dims=schema.n_dims)
    watch = Stopwatch()

    stats.htree_nodes = htree_nodes
    stats.header_entries = header_entries

    order = lattice.bottom_up_order()
    parents_remaining: dict[Coord, int] = {
        coord: len(lattice.parents(coord)) for coord in order
    }

    working: dict[Coord, Cuboid | CuboidColumns] = {}
    result_cuboids: dict[Coord, Cuboid] = {}
    retained_exceptions: dict[Coord, dict[Values, ISB]] = {}

    for coord in order:
        if coord == layers.m_coord:
            cuboid = m_layer
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
            result_cuboids[coord] = Cuboid(schema, coord, _retained(cuboid, None))
            stats.retained_cells += len(cuboid)
        elif coord == layers.m_coord:
            # The m-layer is the tree's own data; memory is charged to the
            # tree leaves, not to retained cells.
            result_cuboids[coord] = Cuboid(schema, coord, m_cells)
        else:
            exceptions = _retained(cuboid, policy)
            retained_exceptions[coord] = exceptions
            result_cuboids[coord] = Cuboid(schema, coord, exceptions)
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
