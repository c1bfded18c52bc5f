"""Exact cross-shard merge of partitioned regression cubes.

Shards own *disjoint* m-layer key sets, so the global m-layer is a disjoint
union — no ISB arithmetic at all at the finest level.  Coarser cuboids are
then re-aggregated from the union with Theorem 3.2, which is lossless: the
merged cube is exactly the cube a single engine would compute over the same
records.  (That re-aggregation runs on the columnar grouped kernels — see
:func:`repro.regression.kernels.group_merge`, which ``Cuboid.roll_up``
and the cubing algorithms call — so :func:`merge_cube` gets the vectorized
fast path without any code here.)  The union is canonically ordered so every downstream float
aggregation folds in the same order regardless of how many shards the cells
came from — the property tests in ``tests/service`` pin shard-count
invariance down to bit equality.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.cube.lattice import PopularPath
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.errors import ServiceError
from repro.regression.isb import ISB
from repro.stream.engine import Algorithm, run_cubing

__all__ = ["canonical_cell_order", "disjoint_union", "merge_cube"]

Values = tuple[Hashable, ...]


def canonical_cell_order(values: Values) -> tuple[tuple[str, str], ...]:
    """A total order over cell keys that tolerates mixed value types.

    Keys mix ints and strings (fanout vs explicit hierarchies), which do not
    compare directly; ordering by ``(type name, repr)`` per value is total,
    deterministic across processes, and cheap.
    """
    return tuple((type(v).__name__, repr(v)) for v in values)


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
    algorithm: Algorithm = "mo",
    path: PopularPath | None = None,
) -> CubeResult:
    """Assemble a global :class:`CubeResult` from per-shard m-layers.

    The disjoint union *is* the global m-layer; every coarser cuboid and the
    exception closure are recomputed from it by the chosen cubing algorithm,
    so the result carries no trace of the partitioning.
    """
    return run_cubing(
        layers, disjoint_union(shard_m_layers), policy, algorithm, path
    )
