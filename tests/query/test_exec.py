"""The execution engine: spec answers equal the oracle.

The acceptance contract of the declarative API: every operation is a spec,
``execute(view, spec)`` answers it exactly as a from-scratch full
materialization would, and whole-cuboid scans serve from *complete*
materialized cuboids (popular-path cuboids included) without changing
answers.  ``exceptions`` / ``change_exceptions`` run through the same
engine, the latter against the view's change source.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.cell import roll_up_values
from repro.cube.cuboid import Cuboid
from repro.cube.lattice import PopularPath
from repro.cubing.full import full_materialization, intermediate_slopes
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold, calibrate_threshold
from repro.cubing.popular_path import popular_path_cubing
from repro.errors import QueryError, ReproError
from repro.io import spec_from_dict, spec_to_dict
from repro.query import Q, RegressionCubeView, execute, execute_batch
from repro.regression.aggregation import merge_standard
from repro.regression.isb import ISB
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec, generate_dataset
from repro.stream.records import StreamRecord
from tests.conftest import isb_close


@pytest.fixture(scope="module")
def setup():
    data = generate_dataset("D2L3C3T300", seed=8)
    oracle = full_materialization(data.layers, data.cells)
    tau = calibrate_threshold(intermediate_slopes(oracle), 0.1)
    policy = GlobalSlopeThreshold(tau)
    oracle = full_materialization(data.layers, data.cells, policy)
    mo_view = RegressionCubeView(mo_cubing(data.layers, data.cells, policy))
    pp_view = RegressionCubeView(
        popular_path_cubing(data.layers, data.cells, policy)
    )
    return data, oracle, mo_view, pp_view


def sample_cells(oracle, coord, n=3):
    return list(oracle.cuboids[coord].cells)[:n]


class TestOperationSemantics:
    """What each operation means, beyond the per-cuboid oracle sweeps."""

    def test_cell_without_data_raises(self, setup):
        data, oracle, view, _ = setup
        m = data.layers.m_coord
        card = data.layers.schema.hierarchy(0).cardinality(m[0])
        for key in itertools.product(range(card), repeat=2):
            if key not in oracle.m_layer:
                with pytest.raises(QueryError):
                    execute(view, Q.cell(m, key))
                break
        else:
            pytest.skip("dataset saturates the m-layer key space")

    def test_invalid_values_raise(self, setup):
        data, _, view, _ = setup
        with pytest.raises(ReproError):
            execute(view, Q.cell(data.layers.o_coord, (99, 99)))

    def test_cell_addressed_by_level_names(self, setup):
        data, oracle, view, _ = setup
        names = data.layers.schema.describe_coord(data.layers.o_coord)
        values = next(iter(oracle.o_layer.cells))
        got = execute(view, Q.cell(tuple(names), values)).value
        assert isb_close(got, oracle.o_layer[values], tol=1e-7)

    def test_observation_deck_and_watch_list(self, setup):
        _, oracle, view, _ = setup
        deck = execute(view, Q.observation_deck()).value
        watch = execute(view, Q.watch_list()).value
        assert set(watch) <= set(deck)
        assert set(deck) == set(oracle.o_layer.cells)

    def test_roll_up_step(self, setup):
        data, oracle, view, _ = setup
        m = data.layers.m_coord
        values = next(iter(view.result.m_layer.cells))
        dim0 = data.layers.schema.names[0]
        parent_coord, parent_values, isb = execute(
            view, Q.roll_up(m, values, dim0)
        ).value
        assert parent_coord[0] == m[0] - 1
        assert isb_close(
            isb, oracle.cuboids[parent_coord][parent_values], tol=1e-7
        )

    def test_drill_down_children_partition_parent(self, setup):
        data, oracle, view, _ = setup
        o = data.layers.o_coord
        dim0 = data.layers.schema.names[0]
        for values, isb in oracle.o_layer.items():
            children = execute(view, Q.drill_down(o, values, dim0)).value
            if not children:
                continue
            base_sum = math.fsum(c.base for c in children.values())
            slope_sum = math.fsum(c.slope for c in children.values())
            assert math.isclose(base_sum, isb.base, rel_tol=1e-6)
            assert math.isclose(slope_sum, isb.slope, rel_tol=1e-6, abs_tol=1e-9)
            return
        pytest.fail("no o-layer cell had children")

    def test_exceptions_lists_retained_cells_and_the_watch_list(self, setup):
        data, _, view, _ = setup
        got = execute(view, Q.exceptions()).value
        o = data.layers.o_coord
        assert got[o] == execute(view, Q.watch_list()).value
        assert {c: cells for c, cells in got.items() if c != o} == {
            coord: dict(cells)
            for coord, cells in view.result.retained_exceptions.items()
            if coord != o
        }

    def test_a_cell_no_cuboid_kept_rolls_up_only_its_rows(self, setup):
        """A non-retained cell is the ``fsum`` merge of the m-cells under it,
        read straight off the columns: the m-layer is never boxed whole."""
        data, oracle, _, _ = setup
        layers = data.layers
        result = mo_cubing(layers, data.cells, GlobalSlopeThreshold(math.inf))
        coord = next(
            c
            for c in layers.lattice.coords()
            if c not in (layers.m_coord, layers.o_coord)
        )
        assert not result.cuboids[coord].cells  # nothing retained in between
        for values in sample_cells(oracle, coord):
            got = execute(RegressionCubeView(result), Q.cell(coord, values)).value
            assert got == merge_standard(
                isb
                for key, isb in data.cells.items()
                if roll_up_values(layers.schema, key, layers.m_coord, coord)
                == values
            )
        assert result.m_layer.cells._boxed is None

    def test_change_exceptions_reads_the_change_source_not_the_result(self):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        cube = ShardedStreamCube(
            layers, GlobalSlopeThreshold(0.1), n_shards=1, ticks_per_quarter=4
        )
        cube.ingest_batch(
            StreamRecord((i, i), t, float(i * t)) for t in range(16) for i in range(3)
        )
        cube.advance_to(16)
        view = RegressionCubeView(cube.refresh(2), cube)
        assert execute(view, Q.change_exceptions()).value == (
            cube.change_exceptions(1)
        )
        assert execute(view, Q.change_exceptions(2, "o")).value == (
            cube.o_layer_change_exceptions(2)
        )
        # A one-shot cubing result has no stream behind it.
        with pytest.raises(QueryError, match="change_exceptions"):
            execute(RegressionCubeView(view.result), Q.change_exceptions())


class TestEquivalenceWithOracle:
    def test_cell_sweep_every_cuboid(self, setup):
        data, oracle, mo_view, pp_view = setup
        for coord in data.layers.lattice.coords():
            for values in sample_cells(oracle, coord):
                expected = oracle.cuboids[coord][values]
                for view in (mo_view, pp_view):
                    got = execute(view, Q.cell(coord, values)).value
                    assert isb_close(got, expected, tol=1e-7)

    def test_slice_sweep_every_cuboid(self, setup):
        data, oracle, mo_view, pp_view = setup
        dim0 = data.layers.schema.names[0]
        for coord in data.layers.lattice.coords():
            anchor = next(iter(oracle.cuboids[coord].cells))
            expected = {
                v: isb
                for v, isb in oracle.cuboids[coord].items()
                if v[0] == anchor[0]
            }
            for view in (mo_view, pp_view):
                got = execute(view, Q.slice(coord, {dim0: anchor[0]})).value
                assert set(got) == set(expected)
                for v, isb in got.items():
                    assert isb_close(isb, expected[v], tol=1e-7)

    def test_top_slopes_sweep_every_cuboid(self, setup):
        data, oracle, mo_view, pp_view = setup
        for coord in data.layers.lattice.coords():
            steepest = max(
                abs(isb.slope) for isb in oracle.cuboids[coord].cells.values()
            )
            for view in (mo_view, pp_view):
                ranked = execute(view, Q.top_slopes(coord, k=3)).value
                slopes = [abs(isb.slope) for _, isb in ranked]
                assert slopes == sorted(slopes, reverse=True)
                assert math.isclose(slopes[0], steepest, rel_tol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(data_=st.data())
    def test_property_cell_matches_oracle(self, setup, data_):
        data, oracle, mo_view, pp_view = setup
        coord = data_.draw(
            st.sampled_from(sorted(data.layers.lattice.coords()))
        )
        values = data_.draw(
            st.sampled_from(sorted(oracle.cuboids[coord].cells))
        )
        view = data_.draw(st.sampled_from([mo_view, pp_view]))
        spec = Q.cell(coord, values)
        got = execute(view, spec).value
        assert isb_close(got, oracle.cuboids[coord][values], tol=1e-7)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestCompleteCuboidServing:
    """Satellite: whole-cuboid scans use materialized *complete* cuboids."""

    @pytest.fixture
    def poisoned(self):
        """A full materialization with a sentinel cell planted mid-lattice.

        The sentinel is not derivable from the m-layer, so any answer
        containing it *must* have been served from the materialized cuboid.
        """
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        cells = {
            (i, j): ISB(0, 3, 1.0, 0.01 * (i + 1)) for i in range(9) for j in range(9)
        }
        result = full_materialization(layers, cells, GlobalSlopeThreshold(1.0))
        mid = layers.intermediate_coords[0]
        cells = dict(result.cuboids[mid].cells)
        sentinel_key = next(iter(cells))
        sentinel = cells[sentinel_key] = ISB(0, 3, 123.0, 9.0)
        result.cuboids[mid] = Cuboid.from_cells(layers.schema, mid, cells.items())
        return result, mid, sentinel_key, sentinel

    def test_slice_serves_from_complete_cuboid(self, poisoned):
        result, mid, key, sentinel = poisoned
        view = RegressionCubeView(result)
        assert execute(view, Q.slice(mid, {})).value[key] == sentinel

    def test_top_slopes_serves_from_complete_cuboid(self, poisoned):
        result, mid, key, sentinel = poisoned
        view = RegressionCubeView(result)
        assert execute(view, Q.top_slopes(mid, k=1)).value == [(key, sentinel)]

    def test_partial_cuboids_fall_back_to_m_layer(self, poisoned):
        result, mid, key, sentinel = poisoned
        result.complete_coords = frozenset()  # demote: nothing complete
        view = RegressionCubeView(result)
        assert execute(view, Q.slice(mid, {})).value[key] != sentinel
        assert execute(view, Q.top_slopes(mid, k=1)).value[0][1] != sentinel

    def test_popular_path_marks_exactly_the_path(self, setup):
        data, _, _, pp_view = setup
        path = PopularPath.default(data.layers.lattice)
        result = pp_view.result
        for coord in data.layers.lattice.coords():
            assert result.is_complete(coord) == (
                coord in path.coords
                or coord in (data.layers.m_coord, data.layers.o_coord)
            )


class TestTopSlopesRobustness:
    """Satellite: empty cuboids yield [], bad k raises QueryError."""

    def test_empty_cube(self):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        result = mo_cubing(layers, {}, GlobalSlopeThreshold(0.1))
        view = RegressionCubeView(result)
        for coord in (layers.o_coord, layers.intermediate_coords[0]):
            assert execute(view, Q.top_slopes(coord, k=5)).value == []

    def test_bad_k_raises_instead_of_empty_list(self, setup):
        data, _, view, _ = setup
        with pytest.raises(QueryError):
            Q.top_slopes(data.layers.o_coord, k=0)
        with pytest.raises(QueryError):
            Q.top_slopes(data.layers.o_coord, k=-3)


class TestBatchesAndEnvelopes:
    def test_batch_reports_results_and_errors_in_order(self, setup):
        data, _, view, _ = setup
        o = data.layers.o_coord
        items = execute_batch(
            view,
            Q.batch(
                Q.watch_list(),
                Q.cell((9, 9), (0, 0)),  # invalid: out of schema range
                Q.top_slopes(o, k=2),
            ),
        )
        assert [item.ok for item in items] == [True, False, True]
        assert items[0].result == execute(view, Q.watch_list())
        assert items[1].error_type == "SchemaError"
        assert items[1].error
        assert items[2].result == execute(view, Q.top_slopes(o, 2))

    def test_batch_accepts_wire_dicts(self, setup):
        data, _, view, _ = setup
        items = execute_batch(
            view, [{"op": "watch_list"}, {"op": "magic"}]
        )
        assert items[0].ok and not items[1].ok
        assert items[1].error_type == "QueryError"

    def test_execute_accepts_wire_dict(self, setup):
        data, _, view, _ = setup
        got = execute(view, {"op": "observation_deck"})
        assert got == execute(view, Q.observation_deck())

    def test_execute_rejects_batchquery(self, setup):
        _, _, view, _ = setup
        with pytest.raises(QueryError):
            execute(view, Q.batch(Q.watch_list()))

    def test_result_envelope_shapes(self, setup):
        data, _, view, _ = setup
        m, o = data.layers.m_coord, data.layers.o_coord
        cell = next(iter(view.result.m_layer.cells))
        dim0 = data.layers.schema.names[0]
        payload = execute(view, Q.cell(m, cell)).to_dict()
        assert payload["op"] == "cell" and set(payload["isb"]) == {
            "t_b", "t_e", "base", "slope",
        }
        payload = execute(view, Q.roll_up(m, cell, dim0)).to_dict()
        assert set(payload) == {"op", "coord", "values", "isb"}
        payload = execute(view, Q.top_slopes(o, k=2)).to_dict()
        assert payload["op"] == "top_slopes"
        assert all(set(row) == {"values", "isb"} for row in payload["cells"])
        payload = execute(view, Q.watch_list()).to_dict()
        assert isinstance(payload["cells"], list)
        payload = execute(view, Q.exceptions()).to_dict()
        assert payload["op"] == "exceptions"
        assert all(set(row) == {"coord", "cells"} for row in payload["cuboids"])
