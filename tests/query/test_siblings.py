"""Tests for sibling queries and sibling-deviation analysis."""

from __future__ import annotations

import math

import pytest

from repro.cube.hierarchy import FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import QueryError
from repro.query import Q, RegressionCubeView, execute
from repro.regression.isb import ISB


@pytest.fixture
def view():
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 2)),
            Dimension("b", FanoutHierarchy("b", 2, 2)),
        ]
    )
    layers = CriticalLayers(schema, (2, 2), (1, 1))
    # Leaves 0 and 1 share parent 0 on dim a; leaf (0,0) trends alone.
    cells = {
        (0, 0): ISB(0, 9, 1.0, 2.0),
        (1, 0): ISB(0, 9, 1.0, 0.1),
        (2, 0): ISB(0, 9, 1.0, 0.1),  # parent 1: not a sibling of 0/1
        (0, 1): ISB(0, 9, 1.0, 0.2),
    }
    result = mo_cubing(layers, cells, GlobalSlopeThreshold(0.5))
    return RegressionCubeView(result)


class TestSiblings:
    def test_siblings_share_parent_and_other_dims(self, view):
        sibs = execute(view, Q.siblings((2, 2), (0, 0), "a")).value
        # Only (1, 0) qualifies: same b value, same a-parent (0).
        assert set(sibs) == {(1, 0)}

    def test_cell_itself_excluded(self, view):
        sibs = execute(view, Q.siblings((2, 2), (0, 0), "a")).value
        assert (0, 0) not in sibs

    def test_different_parent_excluded(self, view):
        sibs = execute(view, Q.siblings((2, 2), (0, 0), "a")).value
        assert (2, 0) not in sibs

    def test_other_dim_must_match(self, view):
        sibs = execute(view, Q.siblings((2, 2), (0, 0), "a")).value
        assert (0, 1) not in sibs

    def test_no_siblings_empty(self, view):
        # (2, 0) has a-parent 1, whose only other child is 3 — absent.
        sibs = execute(view, Q.siblings((2, 2), (2, 0), "a")).value
        assert sibs == {}


class TestSiblingDeviation:
    def test_lone_trender_deviates(self, view):
        deviation = execute(view, Q.sibling_deviation((2, 2), (0, 0), "a")).value
        assert math.isclose(deviation, 2.0 - 0.1, rel_tol=1e-9)

    def test_symmetric_view_from_the_flat_sibling(self, view):
        deviation = execute(view, Q.sibling_deviation((2, 2), (1, 0), "a")).value
        assert math.isclose(deviation, 0.1 - 2.0, rel_tol=1e-9)

    def test_no_siblings_raises(self, view):
        with pytest.raises(QueryError):
            execute(view, Q.sibling_deviation((2, 2), (2, 0), "a")).value
