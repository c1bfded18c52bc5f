"""Multiway simultaneous regression cubing (Section 7's other candidate).

Zhao, Deshpande & Naughton's multiway array aggregation [28] computes many
group-bys in a single pass over the base data, updating every target
simultaneously.  The paper lists it, with BUC, as a cubing technique worth
exploring for regression cubes; this module provides that exploration:

* one scan of the m-layer cells, encoded once into code columns;
* every lattice cuboid aggregated straight from those rows: each row's
  ancestor key in the target is gathered from the code tables and the rows
  are merged per key (Theorem 3.2 reduces to addition, so the per-target
  sums are running sums in row order);
* retention afterwards is identical to Algorithm 1 (all cells at the
  critical layers, exceptions in between).

Trade-off profile versus m/o H-cubing: no intermediate cuboids are shared,
so every target groups all base rows — ``#cuboids`` key gathers and grouped
merges over the whole m-layer instead of roll-ups from the nearest computed
descendant, each of which is smaller.  The ``bench_multiway`` benchmark
records where each wins.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.cube.cuboid import Cuboid
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.cubing.stats import CubingStats, Stopwatch
from repro.errors import AggregationError
from repro.regression.isb import ISB

__all__ = ["multiway_cubing"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def multiway_cubing(
    layers: CriticalLayers,
    m_cells: Mapping[Values, ISB] | Iterable[tuple[Values, ISB]],
    policy: ExceptionPolicy,
) -> CubeResult:
    """Compute the whole m/o lattice in one simultaneous pass."""
    schema = layers.schema
    lattice = layers.lattice
    stats = CubingStats("multiway", n_dims=schema.n_dims)
    watch = Stopwatch()

    items = m_cells.items() if isinstance(m_cells, Mapping) else m_cells
    base = Cuboid.from_cells(schema, layers.m_coord, items).columns
    t_b, t_e = base.isbs.t_b, base.isbs.t_e
    other = (t_b != t_b[:1]) | (t_e != t_e[:1])
    if other.any():
        i = int(np.argmax(other))
        raise AggregationError(
            "multiway cubing requires one shared analysis window; "
            f"got {(int(t_b[0]), int(t_e[0]))} and {(int(t_b[i]), int(t_e[i]))}"
        )
    stats.rows_scanned = stats.htree_leaf_isbs = len(base)  # base-data charge
    stats.cuboids_computed = lattice.size

    result_cuboids: dict[Coord, Cuboid] = {
        layers.m_coord: Cuboid(schema, base.merged())
    }
    retained_exceptions: dict[Coord, Mapping[Values, ISB]] = {}
    for coord in lattice.coords():
        if coord == layers.m_coord:
            continue
        cells = base.lifted(coord).merged()
        stats.cells_computed += len(cells)
        if coord == layers.o_coord:
            result_cuboids[coord] = Cuboid(schema, cells)
            stats.retained_cells += len(cells)
        else:
            exceptions = result_cuboids[coord] = Cuboid(
                schema, policy.exceptions(cells)
            )
            retained_exceptions[coord] = exceptions.cells
            stats.retained_cells += len(exceptions)
            stats.transient_peak_cells = max(stats.transient_peak_cells, len(cells))

    stats.runtime_s = watch.elapsed()
    return CubeResult(
        layers=layers,
        policy=policy,
        cuboids=result_cuboids,
        stats=stats,
        retained_exceptions=retained_exceptions,
    )
