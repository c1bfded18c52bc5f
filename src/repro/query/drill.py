"""Exception-guided drilling (paper Sections 4.2-4.3).

The analyst's workflow: watch the o-layer; when a cell is flagged
exceptional, drill down to its exceptional descendants — the "exception
supporters" — to localize the cause.  :class:`ExceptionDriller` builds that
drill tree from a cubing result, preferring retained exception cells (no
recomputation) and falling back to on-the-fly aggregation when asked to
drill past what was materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.cube.cell import roll_up_values
from repro.cubing.result import CubeResult
from repro.query.exec import RegressionCubeView, execute
from repro.query.spec import Q
from repro.regression.isb import ISB

__all__ = ["DrillNode", "ExceptionDriller"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


@dataclass
class DrillNode:
    """One cell of the exception drill tree."""

    coord: Coord
    values: Values
    isb: ISB
    children: list["DrillNode"] = field(default_factory=list)

    def walk(self) -> Iterable["DrillNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, schema_names: tuple[str, ...], indent: int = 0) -> str:
        """Human-readable drill tree (used by the examples)."""
        label = ", ".join(
            f"{name}={value}" for name, value in zip(schema_names, self.values)
        )
        line = (
            f"{'  ' * indent}({label})  slope={self.isb.slope:+.4f}  "
            f"base={self.isb.base:.3f}"
        )
        return "\n".join(
            [line]
            + [c.render(schema_names, indent + 1) for c in self.children]
        )


class ExceptionDriller:
    """Builds exception drill trees over a cubing result."""

    def __init__(self, result: CubeResult) -> None:
        self.result = result
        self.view = RegressionCubeView(result)
        self.layers = result.layers
        self.schema = result.layers.schema
        self.lattice = result.layers.lattice

    def drill_tree(self, max_depth: int | None = None) -> list[DrillNode]:
        """Drill every o-layer exception down through exceptional descendants.

        A child is attached when it is exceptional under the result's policy;
        retained exception cells are used where available, and children are
        aggregated on the fly otherwise.  ``max_depth`` bounds the number of
        drill steps from the o-layer (``None`` = down to the m-layer).
        """
        roots = []
        o = self.layers.o_coord
        for values, isb in self.result.o_layer_exceptions().items():
            node = DrillNode(o, values, isb)
            self._expand(node, depth=0, max_depth=max_depth)
            roots.append(node)
        return roots

    def _expand(self, node: DrillNode, depth: int, max_depth: int | None) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        for child_coord in self.lattice.children(node.coord):
            for child_values, child_isb in self._children_of(
                node, child_coord
            ).items():
                if not self.result.policy.is_exception(child_isb, child_coord):
                    continue
                child = DrillNode(child_coord, child_values, child_isb)
                self._expand(child, depth + 1, max_depth)
                node.children.append(child)

    def _children_of(
        self, node: DrillNode, child_coord: Coord
    ) -> dict[Values, ISB]:
        """Children of ``node`` in ``child_coord``, cheapest source first."""
        retained = self.result.retained_exceptions.get(child_coord)
        if retained:
            out = {
                values: isb
                for values, isb in retained.items()
                if roll_up_values(
                    self.schema, values, child_coord, node.coord
                )
                == node.values
            }
            if out:
                return out
        # Fall back to exact on-the-fly aggregation from the m-layer.
        drilled_dim = next(
            self.schema.dimensions[i].name
            for i, (a, b) in enumerate(zip(node.coord, child_coord))
            if a != b
        )
        return execute(
            self.view, Q.drill_down(node.coord, node.values, drilled_dim)
        ).value

    def supporters(
        self, values: Iterable[Hashable], max_depth: int | None = None
    ) -> DrillNode:
        """Drill one specific o-layer cell (exceptional or not)."""
        o = self.layers.o_coord
        vals = self.schema.validate_values(tuple(values), o)
        isb = execute(self.view, Q.cell(o, vals)).value
        node = DrillNode(o, vals, isb)
        self._expand(node, depth=0, max_depth=max_depth)
        return node
