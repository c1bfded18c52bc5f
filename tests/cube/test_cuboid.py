"""Tests for materialized cuboids and their roll-ups."""

from __future__ import annotations

import math

import pytest

from repro.cube.cuboid import ColumnCells, Cuboid
from repro.cube.hierarchy import ALL, FanoutHierarchy
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import QueryError, SchemaError
from repro.regression.aggregation import merge_standard
from repro.regression.isb import ISB
from tests.conftest import CUBING_WALKS


@pytest.fixture
def schema() -> CubeSchema:
    return CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 2)),
            Dimension("b", FanoutHierarchy("b", 2, 2)),
        ]
    )


@pytest.fixture
def base(schema) -> Cuboid:
    """A 2x2-leaf cuboid at the finest coordinate."""
    cells = {
        (0, 0): ISB(0, 9, 1.0, 0.1),
        (1, 0): ISB(0, 9, 2.0, 0.2),
        (2, 1): ISB(0, 9, 3.0, 0.3),
        (3, 3): ISB(0, 9, 4.0, 0.4),
    }
    return Cuboid.from_cells(schema, (2, 2), cells.items())


class TestMappingInterface:
    def test_len_iter_contains(self, base):
        assert len(base) == 4
        assert set(base) == {(0, 0), (1, 0), (2, 1), (3, 3)}
        assert (0, 0) in base and (9, 9) not in base

    def test_getitem_and_get(self, base):
        assert base[(0, 0)].base == 1.0
        assert base.get((9, 9)) is None
        with pytest.raises(QueryError):
            _ = base[(9, 9)]


class TestRollUp:
    def test_roll_up_one_dim(self, schema, base):
        up = base.roll_up((1, 2))
        # leaves 0,1 share parent 0; leaves 2,3 share parent 1 (fanout 2).
        assert set(up) == {(0, 0), (1, 1), (1, 3)}
        merged = up[(0, 0)]
        assert math.isclose(merged.base, 3.0)  # 1.0 + 2.0
        assert math.isclose(merged.slope, 0.3)

    def test_roll_up_to_apex(self, schema, base):
        apex = base.roll_up((0, 0))
        assert set(apex) == {(ALL, ALL)}
        isb = apex[(ALL, ALL)]
        assert math.isclose(isb.base, 10.0)
        assert math.isclose(isb.slope, 1.0)

    def test_roll_up_identity(self, base):
        same = base.roll_up((2, 2))
        assert set(same) == set(base)

    def test_roll_up_rejects_downward(self, schema):
        c = Cuboid.from_cells(schema, (1, 1), [((0, 0), ISB(0, 1, 0, 0))])
        with pytest.raises(SchemaError):
            c.roll_up((2, 1))

    def test_roll_up_cell_single_target(self, base):
        isb = base.roll_up_cell((1, 2), (0, 0))
        assert isb is not None
        assert math.isclose(isb.base, 3.0)

    def test_roll_up_cell_missing_target(self, base):
        assert base.roll_up_cell((1, 2), (0, 3)) is None

    def test_roll_up_cell_matches_full_roll_up(self, base):
        full = base.roll_up((1, 1))
        for values, isb in full.items():
            single = base.roll_up_cell((1, 1), values)
            assert single is not None
            assert math.isclose(single.base, isb.base)
            assert math.isclose(single.slope, isb.slope)


class TestRollUpCellFromColumns:
    """The rows whose lifted codes match, merged with ``merge_standard``
    (``fsum``), and nothing else boxed."""

    @pytest.fixture
    def cancelling(self, schema):
        # Sequential sums lose the 1.0s against 1e16; fsum keeps them.
        return {
            (0, 0): ISB(0, 9, 1e16, 0.5),
            (1, 0): ISB(0, 9, 1.0, 0.25),
            (2, 1): ISB(0, 9, -1e16, -0.5),
            (3, 3): ISB(0, 9, 1.0, 0.125),
        }

    def test_fsum_of_the_matching_rows(self, schema, cancelling):
        expected = merge_standard(cancelling.values())
        assert expected.base == 2.0
        cuboid = Cuboid.from_cells(schema, (2, 2), cancelling.items())
        assert cuboid.roll_up_cell((0, 0), (ALL, ALL)) == expected
        assert cuboid.roll_up_cell((1, 2), (1, 1)) == cancelling[(2, 1)]
        assert cuboid.roll_up_cell((1, 2), (1, 0)) is None
        assert cuboid.roll_up_cell((1, 1), (0, 0)) == merge_standard(
            [cancelling[(0, 0)], cancelling[(1, 0)]]
        )

    def test_cells_are_not_boxed(self, schema, cancelling):
        cuboid = Cuboid.from_cells(schema, (2, 2), cancelling.items())
        assert cuboid.roll_up_cell((0, 1), (ALL, 0)) == merge_standard(
            [cancelling[(0, 0)], cancelling[(1, 0)], cancelling[(2, 1)]]
        )
        assert cuboid.cells._boxed is None

    def test_rejects_downward(self, schema):
        c = Cuboid.from_cells(schema, (1, 1), [((0, 0), ISB(0, 1, 0, 0))])
        with pytest.raises(SchemaError):
            c.roll_up_cell((2, 1), (0, 0))


@pytest.mark.parametrize("walk", CUBING_WALKS.values(), ids=list(CUBING_WALKS))
def test_every_walk_returns_column_backed_cells(walk, small_dataset):
    result = walk(small_dataset.layers, small_dataset.cells, GlobalSlopeThreshold(0.3))
    assert result.total_retained_exceptions > 0
    for cells in [
        *(cuboid.cells for cuboid in result.cuboids.values()),
        *result.retained_exceptions.values(),
    ]:
        assert type(cells) is ColumnCells
