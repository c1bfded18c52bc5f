"""Differential suite: the columnar m/o-cubing walk vs the scalar H-tree walk.

``mo_cubing`` runs the columnar walk; the scalar walk it replaced stays
reachable as ``mo_cubing_from_tree`` over a tree from ``build_mo_htree`` (the
paper's Algorithm 1 as written), and is the reference here.  The contract,
per ``repro.regression.kernels``' compatibility notes:

* the same keys in the same dict iteration order in every cuboid (m-layer in
  H-tree leaf order, roll-ups in first-appearance order);
* the same exception sets and the same ``CubingStats`` counters;
* floats bit-identical where the scalar walk summed sequentially, within
  4 ulps where it used ``fsum`` (groups of three or more in small batches).
"""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cube.hierarchy import ExplicitHierarchy, FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.build import build_mo_htree
from repro.cubing.mo_cubing import mo_cubing, mo_cubing_from_tree
from repro.cubing.policy import (
    GlobalSlopeThreshold,
    PerCuboidSlopeThreshold,
    PerDimensionLevelThreshold,
)
from repro.errors import AggregationError, HierarchyError, SchemaError
from repro.regression.isb import ISB
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from tests.service.conftest import TPQ, workload

MAX_ULPS = 4


def scalar_mo_cubing(layers, cells, policy):
    items = cells.items() if isinstance(cells, dict) else cells
    return mo_cubing_from_tree(layers, build_mo_htree(layers, items), policy)


def ulps_apart(a: float, b: float) -> int:
    """Distance in representable doubles (``-0.0`` and ``0.0`` coincide)."""

    def ordinal(x: float) -> int:
        (bits,) = struct.unpack("<q", struct.pack("<d", x))
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(a) - ordinal(b))


def assert_same_result(columnar, scalar, max_ulps: int) -> None:
    ours = dataclasses.asdict(columnar.stats)
    theirs = dataclasses.asdict(scalar.stats)
    del ours["runtime_s"], theirs["runtime_s"]
    assert ours == theirs
    assert list(columnar.cuboids) == list(scalar.cuboids)
    for coord, reference in scalar.cuboids.items():
        cuboid = columnar.cuboids[coord]
        assert list(cuboid.cells) == list(reference.cells), coord
        for values, expected in reference.cells.items():
            got = cuboid.cells[values]
            assert got.interval == expected.interval
            assert ulps_apart(got.base, expected.base) <= max_ulps, (coord, values)
            assert ulps_apart(got.slope, expected.slope) <= max_ulps, (coord, values)
    assert list(columnar.retained_exceptions) == list(scalar.retained_exceptions)
    for coord, reference in scalar.retained_exceptions.items():
        assert list(columnar.retained_exceptions[coord]) == list(reference), coord


# ----------------------------------------------------------------------
# Strategies: schemas, layers, cells, policies
# ----------------------------------------------------------------------
@st.composite
def explicit_dimension(draw, name: str) -> Dimension:
    """A string hierarchy of depth 1-3 with uneven fan-out; a parent may
    have no children, so a finer level can be *smaller* than a coarser one
    (the cardinality-ascending attribute order is then not level order)."""
    depth = draw(st.integers(1, 3))
    levels = [[f"{name}1_{i}" for i in range(draw(st.integers(1, 3)))]]
    parent_maps = []
    for level in range(2, depth + 1):
        children = [f"{name}{level}_{i}" for i in range(draw(st.integers(1, 5)))]
        parents = draw(
            st.lists(
                st.sampled_from(levels[-1]),
                min_size=len(children),
                max_size=len(children),
            )
        )
        parent_maps.append(dict(zip(children, parents)))
        levels.append(children)
    names = [f"{name}L{i}" for i in range(1, depth + 1)]
    return Dimension(name, ExplicitHierarchy(name, names, levels[0], parent_maps))


@st.composite
def fanout_dimension(draw, name: str) -> Dimension:
    return Dimension(
        name, FanoutHierarchy(name, draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    )


def level_values(dim: Dimension, level: int) -> list:
    hierarchy = dim.hierarchy
    if isinstance(hierarchy, FanoutHierarchy):
        return list(range(hierarchy.cardinality(level)))
    return sorted(hierarchy.values(level))


@st.composite
def layers_strategy(draw, kind: str) -> CriticalLayers:
    n_dims = draw(st.integers(1, 3))
    makers = {
        "fanout": [fanout_dimension] * n_dims,
        "explicit": [explicit_dimension] * n_dims,
        "mixed": [fanout_dimension, explicit_dimension, fanout_dimension][:n_dims],
    }[kind]
    dims = [draw(make(f"d{i}")) for i, make in enumerate(makers)]
    schema = CubeSchema(dims)
    m_coord = tuple(draw(st.integers(1, dim.depth)) for dim in dims)
    o_coord = tuple(draw(st.integers(0, m)) for m in m_coord)
    if o_coord == m_coord:
        o_coord = (m_coord[0] - 1,) + m_coord[1:]
    return CriticalLayers(schema, m_coord, o_coord)


def exact_floats():
    """Multiples of 1/64 of modest size: every sum of a test's worth of them
    is exact in any order, so fsum, sequential adds and bincount agree to
    the bit and no cell can sit on the wrong side of a threshold."""
    return st.integers(-640, 640).map(lambda k: k / 64.0)


@st.composite
def cells_strategy(draw, layers: CriticalLayers, floats) -> list[tuple[tuple, ISB]]:
    """Up to 60 ``(values, isb)`` rows, duplicates and skew included: each
    dimension draws from a short prefix of its values most of the time."""
    pools = [
        level_values(dim, level)
        for dim, level in zip(layers.schema.dimensions, layers.m_coord)
    ]
    hot = [pool[: max(1, len(pool) // 3)] for pool in pools]
    value = st.tuples(
        *[
            st.one_of(st.sampled_from(h), st.sampled_from(p))
            for h, p in zip(hot, pools)
        ]
    )
    rows = draw(st.lists(st.tuples(value, floats, floats), max_size=60))
    return [(values, ISB(8, 23, base, slope)) for values, base, slope in rows]


@st.composite
def policy_strategy(draw, layers: CriticalLayers):
    thresholds = st.sampled_from([0.0, 0.25, 1.0, 3.0, 12.0])
    kind = draw(st.sampled_from(["global", "per-cuboid", "per-level"]))
    if kind == "global":
        return GlobalSlopeThreshold(draw(thresholds))
    if kind == "per-cuboid":
        coords = list(layers.lattice.coords())
        chosen = draw(st.lists(st.sampled_from(coords), max_size=4))
        return PerCuboidSlopeThreshold(
            draw(thresholds), {coord: draw(thresholds) for coord in chosen}
        )
    pairs = [
        (d, level)
        for d, m in enumerate(layers.m_coord)
        for level in range(0, m + 1)
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=4))
    return PerDimensionLevelThreshold(
        draw(thresholds),
        {pair: draw(thresholds) for pair in chosen},
        combine=draw(st.sampled_from([max, min])),
    )


@st.composite
def case(draw, kind: str, floats):
    layers = draw(layers_strategy(kind))
    return layers, draw(cells_strategy(layers, floats)), draw(policy_strategy(layers))


# ----------------------------------------------------------------------
# The differential properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["fanout", "explicit", "mixed"])
class TestColumnarEqualsScalar:
    @given(data=st.data())
    def test_duplicate_bearing_rows(self, kind, data):
        """An iterable with repeated cells: duplicates merge, then the walk
        agrees bit for bit (sums are exact by construction)."""
        layers, rows, policy = data.draw(case(kind, exact_floats()))
        assert_same_result(
            mo_cubing(layers, rows, policy),
            scalar_mo_cubing(layers, rows, policy),
            max_ulps=0,
        )

    @given(data=st.data())
    def test_mapping_input(self, kind, data):
        layers, rows, policy = data.draw(case(kind, exact_floats()))
        cells = dict(rows)
        assert_same_result(
            mo_cubing(layers, cells, policy),
            scalar_mo_cubing(layers, cells, policy),
            max_ulps=0,
        )

    @given(data=st.data())
    def test_inexact_sums_stay_within_four_ulps(self, kind, data):
        """Arbitrary same-sign doubles: the scalar walk's small batches fold
        groups of three or more with ``fsum``, the columnar walk adds left
        to right.  Threshold 0 retains every cell, so every float of every
        cuboid is compared."""
        layers = data.draw(layers_strategy(kind))
        floats = st.floats(0.001, 1000.0)
        cells = dict(data.draw(cells_strategy(layers, floats)))
        policy = GlobalSlopeThreshold(0.0)
        assert_same_result(
            mo_cubing(layers, cells, policy),
            scalar_mo_cubing(layers, cells, policy),
            max_ulps=MAX_ULPS,
        )


def test_skewed_dataset_at_scale(small_dataset):
    """Above ``GROUP_MERGE_MIN_ROWS`` the scalar walk already ran the
    sequential kernels, so the two walks are bit-identical on real floats."""
    policy = PerDimensionLevelThreshold(0.3, {(0, 2): 0.1, (2, 1): 0.6})
    assert_same_result(
        mo_cubing(small_dataset.layers, small_dataset.cells, policy),
        scalar_mo_cubing(small_dataset.layers, small_dataset.cells, policy),
        max_ulps=0,
    )


def test_example5_leaf_order_and_counts(example5_layers):
    """Example 5's irregular cardinalities (the attribute order interleaves
    dimensions): leaf order and the H-tree node / header counts must come
    out of the code columns exactly as out of the tree."""
    import random

    rng = random.Random(5)
    cells = {
        (f"a2_{rng.randrange(10)}", f"b2_{rng.randrange(12)}", f"c2_{rng.randrange(8)}"): ISB(
            0, 11, rng.randrange(-64, 64) / 8.0, rng.randrange(-64, 64) / 8.0
        )
        for _ in range(200)
    }
    policy = GlobalSlopeThreshold(2.0)
    columnar = mo_cubing(example5_layers, cells, policy)
    scalar = scalar_mo_cubing(example5_layers, cells, policy)
    assert_same_result(columnar, scalar, max_ulps=0)
    assert columnar.stats.htree_nodes > len(cells)
    assert list(columnar.m_layer.cells) != list(cells)  # leaf order, not input order


def test_finer_level_with_fewer_values_than_its_parent_level():
    """Childless parents make level 2 smaller than level 1, so the
    cardinality-ascending order visits ``(d, 2)`` before ``(d, 1)``: the
    last header table (leaf order) and the prefix counts (tree nodes) then
    belong to a coarse level."""
    sparse = ExplicitHierarchy(
        "s", ["s1", "s2"], ["p", "q", "r"], [{"x": "p", "y": "p"}]
    )
    dense = ExplicitHierarchy(
        "t", ["t1", "t2"], ["u", "v"], [{"a": "u", "b": "u", "c": "v", "d": "v"}]
    )
    schema = CubeSchema([Dimension("s", sparse), Dimension("t", dense)])
    layers = CriticalLayers(schema, (2, 2), (0, 1))
    cells = {
        (s, t): ISB(0, 7, i / 4.0, (i - 3) / 8.0)
        for i, (s, t) in enumerate(
            [("y", "c"), ("x", "a"), ("y", "a"), ("x", "d"), ("x", "b"), ("y", "d")]
        )
    }
    policy = GlobalSlopeThreshold(0.2)
    assert_same_result(
        mo_cubing(layers, cells, policy),
        scalar_mo_cubing(layers, cells, policy),
        max_ulps=0,
    )


def test_empty_m_layer(fanout_layers):
    policy = GlobalSlopeThreshold(0.1)
    assert_same_result(
        mo_cubing(fanout_layers, {}, policy),
        scalar_mo_cubing(fanout_layers, {}, policy),
        max_ulps=0,
    )


# ----------------------------------------------------------------------
# The same typed errors as HTree.insert_many's validator
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rows, error",
    [
        ([((0, 99), ISB(0, 3, 1.0, 1.0))], HierarchyError),
        ([((0, "north"), ISB(0, 3, 1.0, 1.0))], HierarchyError),
        ([((0, 1), ISB(0, 3, 1.0, 1.0)), ((0,), ISB(0, 3, 1.0, 1.0))], SchemaError),
        # 1.0 == 1 as a dict key, but is not a member of an integer level.
        ([((0, 1), ISB(0, 3, 1.0, 1.0)), ((0, 1.0), ISB(0, 3, 1.0, 1.0))], HierarchyError),
        # A duplicate cell over another window cannot merge.
        ([((0, 1), ISB(0, 3, 1.0, 1.0)), ((0, 1), ISB(4, 7, 1.0, 1.0))], AggregationError),
    ],
)
def test_bad_input_raises_what_the_tree_raises(fanout_layers, rows, error):
    policy = GlobalSlopeThreshold(0.1)
    with pytest.raises(error) as scalar:
        scalar_mo_cubing(fanout_layers, rows, policy)
    with pytest.raises(error) as columnar:
        mo_cubing(fanout_layers, rows, policy)
    if error is not AggregationError:
        assert str(columnar.value) == str(scalar.value)


# ----------------------------------------------------------------------
# Service level: shard-count invariance on the new path
# ----------------------------------------------------------------------
def test_refresh_is_bit_identical_across_shard_counts():
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    records = workload(7)
    results = []
    for n_shards in (1, 2, 7):
        with ShardedStreamCube(
            layers, GlobalSlopeThreshold(0.1), n_shards=n_shards, ticks_per_quarter=TPQ
        ) as cube:
            cube.ingest_batch(records)
            cube.advance_to(6 * TPQ)
            results.append(cube.refresh(window_quarters=4))
    reference = results[0]
    assert reference.total_retained_exceptions > 0
    for result in results[1:]:
        assert_same_result(result, reference, max_ulps=0)
        for coord, cuboid in reference.cuboids.items():
            for values, isb in cuboid.cells.items():
                other = result.cuboids[coord].cells[values]
                # Not merely 0 ulps apart: the very same bits.
                assert math.copysign(1.0, isb.slope) == math.copysign(1.0, other.slope)
                assert (isb.base, isb.slope) == (other.base, other.slope)
