"""The H-tree: a hyper-linked prefix tree over expanded m-layer tuples.

Following Section 4.4 (and [18]'s H-cubing structure, revised for multiple
levels per dimension), every m-layer tuple is *expanded* to include the
ancestor values of each dimension value at every hierarchy level up to the
m-layer level, and inserted as a root→leaf path in a fixed attribute order.
Shared prefixes make the tree compact; header tables with side links allow
level-wise traversal; leaves store the aggregated ISBs of m-layer cells.

Two attribute orders matter:

* **cardinality-ascending** (Algorithm 1 / Fig 7): more sharing near the
  root — Example 5's ``<A1, B1, C1, C2, A2, B2>``.
* **popular-path order** (Algorithm 2): the o-layer attributes followed by
  the drilled attribute of each path step, so that the nodes at depth
  ``len(o-attrs) + j`` are exactly the cells of the ``j``-th cuboid along the
  path — the tree then *stores* the path cuboids in its interior nodes.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from repro.cube.hierarchy import ALL
from repro.cube.schema import CubeSchema
from repro.errors import CubingError, SchemaError
from repro.htree.header import HeaderTable
from repro.htree.node import HTreeNode
from repro.regression import kernels
from repro.regression.aggregation import merge_standard
from repro.regression.isb import ISB

__all__ = ["HTree", "cardinality_ascending_order"]

Attr = tuple[int, int]  # (dimension index, level)
Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def cardinality_ascending_order(
    schema: CubeSchema, m_coord: Sequence[int]
) -> tuple[Attr, ...]:
    """Attribute order sorted by level cardinality, smallest first.

    Covers every ``(dimension, level)`` with ``1 <= level <= m_level`` —
    the expansion Example 5 prescribes.  Lower-cardinality attributes sit
    nearer the root "since there are likely more sharings at higher level
    nodes".  Ties break by (dimension, level) for determinism.
    """
    m = schema.validate_coord(m_coord)
    attrs = [
        (d, level)
        for d in range(schema.n_dims)
        for level in range(1, m[d] + 1)
    ]
    return tuple(
        sorted(
            attrs,
            key=lambda a: (
                schema.dimensions[a[0]].hierarchy.cardinality(a[1]),
                a,
            ),
        )
    )


class HTree:
    """An H-tree over one m-layer dataset.

    Parameters
    ----------
    schema:
        Cube schema.
    m_coord:
        The m-layer coordinate the inserted tuples live at.
    attributes:
        The attribute order; must contain each ``(dim, level)`` with
        ``1 <= level <= m_level[dim]`` exactly once.
    """

    def __init__(
        self,
        schema: CubeSchema,
        m_coord: Sequence[int],
        attributes: Sequence[Attr],
    ) -> None:
        self.schema = schema
        self.m_coord: Coord = schema.validate_coord(m_coord)
        expected = {
            (d, level)
            for d in range(schema.n_dims)
            for level in range(1, self.m_coord[d] + 1)
        }
        if set(attributes) != expected or len(attributes) != len(expected):
            raise SchemaError(
                f"attribute order {list(attributes)} must cover exactly "
                f"{sorted(expected)}"
            )
        self.attributes: tuple[Attr, ...] = tuple(attributes)
        self._attr_pos = {attr: i for i, attr in enumerate(self.attributes)}
        self.root = HTreeNode(attr_index=-1, value=None)
        self.headers = [HeaderTable(i) for i in range(len(self.attributes))]
        self.node_count = 0
        self.tuple_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def expand(self, m_values: Sequence[Hashable]) -> list[Hashable]:
        """Expanded attribute values of an m-layer tuple, in tree order."""
        values = self.schema.validate_values(m_values, self.m_coord)
        out: list[Hashable] = []
        for d, level in self.attributes:
            hier = self.schema.dimensions[d].hierarchy
            out.append(hier.ancestor(values[d], self.m_coord[d], level))
        return out

    def insert(self, m_values: Sequence[Hashable], isb: ISB) -> HTreeNode:
        """Insert one m-layer tuple; returns the leaf holding its cell.

        Repeated inserts for the same m-layer cell aggregate their ISBs with
        Theorem 3.2 (the tuples describe sibling streams of one cell).
        """
        node = self.root
        for attr_index, value in enumerate(self.expand(m_values)):
            child = node.children.get(value)
            if child is None:
                child = HTreeNode(attr_index, value, parent=node)
                node.children[value] = child
                self.headers[attr_index].register(child)
                self.node_count += 1
            node = child
        node.isb = isb if node.isb is None else merge_standard([node.isb, isb])
        self.tuple_count += 1
        return node

    def insert_many(
        self, cells: Iterable[tuple[Sequence[Hashable], ISB]]
    ) -> None:
        """Bulk-insert m-layer tuples with the per-tuple work hoisted out.

        Semantically ``for values, isb in cells: self.insert(values, isb)``,
        but the expansion resolves each attribute through a prebuilt
        :meth:`~repro.cube.hierarchy.ConceptHierarchy.ancestor_mapper` and a
        coordinate-bound value validator instead of re-deriving both per
        tuple — the builders in :mod:`repro.cubing.build` load whole
        m-layers through this.
        """
        validate = self.schema.values_validator(self.m_coord)
        mappers = [
            (
                d,
                self.schema.dimensions[d].hierarchy.ancestor_mapper(
                    self.m_coord[d], level
                ),
            )
            for d, level in self.attributes
        ]
        headers = self.headers
        for m_values, isb in cells:
            values = validate(m_values)
            node = self.root
            for attr_index, (d, mapper) in enumerate(mappers):
                value = mapper(values[d])
                child = node.children.get(value)
                if child is None:
                    child = HTreeNode(attr_index, value, parent=node)
                    node.children[value] = child
                    headers[attr_index].register(child)
                    self.node_count += 1
                node = child
            node.isb = (
                isb
                if node.isb is None
                else merge_standard([node.isb, isb])
            )
            self.tuple_count += 1

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def nodes_at_depth(self, depth: int) -> Iterator[HTreeNode]:
        """All nodes at the given depth (attribute position ``depth - 1``).

        Depth 0 yields the root.  Traversal goes through the header table of
        the attribute, chain by chain — the H-cubing access pattern.
        """
        if depth == 0:
            yield self.root
            return
        if not 1 <= depth <= len(self.attributes):
            raise CubingError(f"no depth {depth} in a {len(self.attributes)}-attribute tree")
        header = self.headers[depth - 1]
        for value in header.values():
            yield from header.chain(value)

    def leaves(self) -> Iterator[HTreeNode]:
        """All leaf nodes (the m-layer cells)."""
        return self.nodes_at_depth(len(self.attributes))

    @property
    def header_entry_count(self) -> int:
        return sum(len(h) for h in self.headers)

    # ------------------------------------------------------------------
    # Cell addressing
    # ------------------------------------------------------------------
    def attr_position(self, dim: int, level: int) -> int:
        """Position of attribute ``(dim, level)`` in the tree order."""
        try:
            return self._attr_pos[(dim, level)]
        except KeyError:
            raise CubingError(
                f"attribute (dim={dim}, level={level}) not in tree order"
            ) from None

    def cell_values(self, node: HTreeNode, coord: Sequence[int]) -> Values:
        """The value tuple of ``node``'s cell in cuboid ``coord``.

        Every non-``*`` level of ``coord`` must appear within the node's
        root-path prefix (guaranteed for path-order trees when ``coord`` is
        the path cuboid matching the node's depth).
        """
        coord = self.schema.validate_coord(coord)
        prefix = node.path_values()
        out: list[Hashable] = []
        for d, level in enumerate(coord):
            if level == 0:
                out.append(ALL)
                continue
            pos = self.attr_position(d, level)
            if pos >= len(prefix):
                raise CubingError(
                    f"attribute (dim={d}, level={level}) at position {pos} "
                    f"is beyond the node's depth {len(prefix)}"
                )
            out.append(prefix[pos])
        return tuple(out)

    def leaf_cells(self) -> Iterator[tuple[Values, ISB]]:
        """The m-layer cells as ``(values, isb)`` pairs."""
        # cell_values() per leaf would re-validate the coordinate and
        # re-resolve every attribute position; a leaf's path covers every
        # attribute, so one plan serves them all.
        plan = [
            None if level == 0 else self.attr_position(d, level)
            for d, level in enumerate(self.m_coord)
        ]
        for leaf in self.leaves():
            if leaf.isb is None:  # pragma: no cover - insert always sets it
                raise CubingError("leaf without an ISB")
            prefix = leaf.path_values()
            yield tuple([ALL if p is None else prefix[p] for p in plan]), leaf.isb

    # ------------------------------------------------------------------
    # Interior aggregation (popular-path storage)
    # ------------------------------------------------------------------
    def aggregate_interior(self) -> None:
        """Store at every interior node the Theorem 3.2 merge of its subtree.

        After this, a path-order tree materializes every cuboid along the
        popular path in its nodes ("with the aggregated regression points
        stored in the nonleaf nodes", Algorithm 2 Step 2).

        The pass runs level-wise bottom-up: each depth's parent sums are one
        grouped kernel call (:func:`repro.regression.kernels.segment_merge`)
        over the children gathered through the header tables, each parent's
        children added sequentially in child order.
        """
        depth = len(self.attributes)
        for leaf in self.nodes_at_depth(depth):
            if leaf.isb is None:
                raise CubingError("leaf without an ISB; insert data first")
        window: tuple[int, int] | None = None
        for depth in range(len(self.attributes) - 1, -1, -1):
            parents = list(self.nodes_at_depth(depth))
            if not parents:  # nothing registered at this depth yet
                continue
            children_isbs: list[ISB] = []
            starts: list[int] = []
            for parent in parents:
                if not parent.children:
                    # A leaf shallower than the full depth cannot exist by
                    # construction (insert always walks every attribute) —
                    # except the root of an empty tree, caught below.
                    raise CubingError("leaf without an ISB; insert data first")
                starts.append(len(children_isbs))
                for child in parent.children.values():
                    assert child.isb is not None  # set by the deeper pass
                    children_isbs.append(child.isb)
            cols = kernels.ISBColumns.from_isbs(children_isbs)
            if window is None:
                if len(children_isbs) and not (
                    int(cols.t_b.min()) == int(cols.t_b.max())
                    and int(cols.t_e.min()) == int(cols.t_e.max())
                ):
                    raise CubingError(
                        "m-layer cells with differing windows cannot share "
                        "a tree"
                    )
                window = (int(cols.t_b[0]), int(cols.t_e[0]))
            merged = kernels.segment_merge(cols, starts).to_isbs()
            for parent, isb in zip(parents, merged):
                parent.isb = isb

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HTree(attrs={len(self.attributes)}, nodes={self.node_count}, "
            f"tuples={self.tuple_count})"
        )
