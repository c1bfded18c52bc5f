"""Exact cross-shard merge of partitioned regression cubes, over boxed cells.

Shards own *disjoint* m-layer key sets, so the global m-layer is a disjoint
union — no ISB arithmetic at all at the finest level.  Coarser cuboids are
then re-aggregated from the union with Theorem 3.2, which is lossless: the
merged cube is exactly the cube one shard would compute over the same
records.  The union is canonically ordered
(:func:`~repro.cube.cell.canonical_cell_order`) so every downstream float
aggregation folds in the same order regardless of how many shards the cells
came from.

:func:`disjoint_union` and :func:`merge_cube` do this over boxed
``{values: isb}`` mappings, for the end-to-end tracer.  The sharded cube
does not box: it checks the shards' cell ids for overlap, encodes the keys
once and orders them by their codes' ranks
(:meth:`~repro.cube.cuboid.CuboidColumns.canonical`, the same total
order) — see :class:`repro.service.sharding.ShardedStreamCube`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cube.cell import canonical_cell_order
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.errors import ServiceError
from repro.regression.isb import ISB
from repro.stream.engine import run_cubing

__all__ = ["canonical_cell_order", "disjoint_union", "merge_cube"]

Values = tuple[Hashable, ...]


def disjoint_union(
    parts: Iterable[Mapping[Values, ISB]],
) -> dict[Values, ISB]:
    """Merge per-shard cell mappings whose key sets must not overlap.

    A duplicate key means the partitioner mis-routed a record (or two shards
    were fed overlapping streams) and the merge would silently double-count,
    so it is an error, not a merge.  The result is canonically ordered.
    """
    merged: dict[Values, ISB] = {}
    for part in parts:
        for values, isb in part.items():
            if values in merged:
                raise ServiceError(
                    f"cell {values} present on more than one shard; "
                    "partitions must be disjoint"
                )
            merged[values] = isb
    return {
        values: merged[values]
        for values in sorted(merged, key=canonical_cell_order)
    }


def merge_cube(
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    shard_m_layers: Iterable[Mapping[Values, ISB]],
) -> CubeResult:
    """Assemble a global :class:`CubeResult` from per-shard m-layers.

    The disjoint union *is* the global m-layer; every coarser cuboid and the
    exception cells are recomputed from it by m/o-cubing, so the result
    carries no trace of the partitioning.

    No ``src/`` caller: the frozen end-to-end tracer
    (``benchmarks/e2e/replay.py``) wraps it by name, and it goes when that
    hook does.
    """
    return run_cubing(layers, disjoint_union(shard_m_layers), policy)
