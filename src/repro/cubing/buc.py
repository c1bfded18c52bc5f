"""BUC-style regression cubing (Section 7's "explore other cubing techniques").

Bottom-Up Computation [5] computes a cube by recursive partitioning: output
the aggregate of the current tuple group, then, for each dimension not yet
refined past, partition the group by the next-finer level of that dimension
and recurse into each part.  Extended here to multi-level dimensions: a
recursion step refines one dimension by exactly one hierarchy level, and
dimensions may only be refined in non-decreasing dimension order — which
visits every cuboid of the m/o lattice exactly once.

Unlike iceberg BUC, no support-based pruning applies: exception-ness of a
regression slope is not anti-monotone (a flat aggregate can have steep
children), so the algorithm computes every cell and — like Algorithm 1 —
retains only the exceptions between the layers.  Its value is as the
alternative computation-order baseline the paper's future work calls for:
partition-based aggregation from raw m-layer groups versus H-cubing's
shared roll-ups.  The partitioning stays scalar (one ``merge_standard``
per group) for that reason; only the finished cuboids are encoded into
columns.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cube.cuboid import Cuboid
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.regression.aggregation import merge_standard
from repro.regression.isb import ISB

__all__ = ["buc_cubing"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def buc_cubing(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]],
    policy: ExceptionPolicy,
) -> CubeResult:
    """Compute the m/o lattice by BUC-style recursive partitioning."""
    schema = layers.schema
    lattice = layers.lattice
    stats = CubingStats("buc", n_dims=schema.n_dims)
    watch = Stopwatch()

    items = list(m_cells.items() if isinstance(m_cells, Mapping) else m_cells)
    m_coord = layers.m_coord
    o_coord = layers.o_coord

    cuboids: dict[Coord, dict[Values, ISB]] = {
        coord: {} for coord in lattice.coords()
    }

    def emit(coord: Coord, values: Values, group: list[tuple[Values, ISB]]) -> ISB:
        isb = merge_standard([isb for _, isb in group])
        stats.rows_scanned += len(group)
        stats.cells_computed += 1
        cuboids[coord][values] = isb
        return isb

    def partition(
        group: list[tuple[Values, ISB]], dim: int, level: int
    ) -> dict[Hashable, list[tuple[Values, ISB]]]:
        hier = schema.dimensions[dim].hierarchy
        parts: dict[Hashable, list[tuple[Values, ISB]]] = {}
        for m_values, isb in group:
            key = hier.ancestor(m_values[dim], m_coord[dim], level)
            parts.setdefault(key, []).append((m_values, isb))
        return parts

    def recurse(
        start_dim: int,
        coord: Coord,
        values: Values,
        group: list[tuple[Values, ISB]],
    ) -> None:
        for dim in range(start_dim, schema.n_dims):
            next_level = coord[dim] + 1
            if next_level > m_coord[dim]:
                continue
            child_coord = coord[:dim] + (next_level,) + coord[dim + 1 :]
            for value, sub in partition(group, dim, next_level).items():
                child_values = values[:dim] + (value,) + values[dim + 1 :]
                emit(child_coord, child_values, sub)
                recurse(dim, child_coord, child_values, sub)

    # Seed with the o-layer cells, then refine recursively.
    seed_coord = o_coord
    seeds: dict[Values, list[tuple[Values, ISB]]] = {}
    for m_values, isb in items:
        key = tuple(
            schema.dimensions[d].hierarchy.ancestor(
                m_values[d], m_coord[d], o_coord[d]
            )
            for d in range(schema.n_dims)
        )
        seeds.setdefault(key, []).append((m_values, isb))
    for o_values, group in seeds.items():
        emit(seed_coord, o_values, group)
        recurse(0, seed_coord, o_values, group)
    stats.cuboids_computed = lattice.size

    # Retention identical to Algorithm 1, over the encoded output.
    result_cuboids: dict[Coord, Cuboid] = {}
    retained_exceptions: dict[Coord, Mapping[Values, ISB]] = {}
    for coord, cells in cuboids.items():
        cuboid = Cuboid.from_cells(schema, coord, cells.items())
        if coord in (layers.m_coord, layers.o_coord):
            result_cuboids[coord] = cuboid
            if coord == layers.o_coord:
                stats.retained_cells += len(cells)
            else:
                stats.htree_leaf_isbs = len(cells)  # base-data charge
        else:
            exceptions = result_cuboids[coord] = Cuboid(
                schema, policy.exceptions(cuboid.columns)
            )
            retained_exceptions[coord] = exceptions.cells
            stats.retained_cells += len(exceptions)
            if len(cells) > stats.transient_peak_cells:
                stats.transient_peak_cells = len(cells)

    stats.runtime_s = watch.elapsed()
    return CubeResult(
        layers=layers,
        policy=policy,
        cuboids=result_cuboids,
        stats=stats,
        retained_exceptions=retained_exceptions,
    )
