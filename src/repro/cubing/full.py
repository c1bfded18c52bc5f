"""Full materialization of the m/o lattice — the baseline and the oracle.

The paper declines to benchmark full materialization ("comparing clear
winners against obvious losers"), but the reproduction needs it twice over:
as the correctness oracle for both exception-based algorithms, and as the
calibration population for turning a target exception *rate* into a slope
threshold (the x-axis of Figure 8).

The m-layer is encoded once; every cuboid between the layers is computed —
with computation sharing, each from its cheapest already-computed descendant
— and every cell is retained.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cube.cuboid import ColumnCells, Cuboid
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy, GlobalSlopeThreshold
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.regression.isb import ISB

__all__ = ["full_materialization", "intermediate_slopes"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def full_materialization(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]],
    policy: ExceptionPolicy | None = None,
) -> CubeResult:
    """Materialize every cuboid of the m/o lattice, retaining every cell.

    ``policy`` only affects which cells the result reports as exceptions;
    it does not influence computation.  Defaults to a zero threshold
    (everything exceptional), which callers that just want the cells ignore.
    """
    if policy is None:
        policy = GlobalSlopeThreshold(0.0)
    stats = CubingStats("full-materialization", n_dims=layers.schema.n_dims)
    watch = Stopwatch()
    lattice = layers.lattice

    cells = m_cells if isinstance(m_cells, Mapping) else dict(m_cells)
    cuboids: dict[Coord, Cuboid] = {}
    for coord in lattice.bottom_up_order():
        if coord == layers.m_coord:
            cuboid = Cuboid.from_cells(layers.schema, coord, cells.items())
            stats.rows_scanned += len(cells)
        else:
            src_coord = lattice.closest_descendant(coord, list(cuboids))
            assert src_coord is not None  # m-layer is everyone's descendant
            src = cuboids[src_coord]
            cuboid = src.roll_up(coord)
            stats.rows_scanned += len(src)
        cuboids[coord] = cuboid
        stats.cells_computed += len(cuboid)
        stats.cuboids_computed += 1
        stats.retained_cells += len(cuboid)

    retained_exceptions = {
        coord: ColumnCells(policy.exceptions(cuboid.columns))
        for coord, cuboid in cuboids.items()
        if coord != layers.m_coord
    }
    stats.runtime_s = watch.elapsed()
    return CubeResult(
        layers=layers,
        policy=policy,
        cuboids=cuboids,
        stats=stats,
        retained_exceptions=retained_exceptions,
        complete_coords=frozenset(cuboids),
    )


def intermediate_slopes(result: CubeResult) -> list[float]:
    """Slopes of every cell in the cuboids strictly between the layers.

    The calibration population for :func:`~repro.cubing.policy.calibrate_threshold`:
    Figure 8's "percentage of aggregated cells that belong to exception
    cells" is judged on exactly these cells.
    """
    layers = result.layers
    out: list[float] = []
    for coord, cuboid in result.cuboids.items():
        if coord in (layers.m_coord, layers.o_coord):
            continue
        out.extend(isb.slope for isb in cuboid.cells.values())
    return out
