"""Cross-algorithm correctness: Algorithms 1 & 2, BUC, full materialization.

The oracle chain:
  raw m-layer cells --full materialization--> every cell of every cuboid
  Algorithm 1 output == full output filtered to exceptions (+ o/m layers)
  BUC output        == Algorithm 1 output
  Algorithm 2 output == Framework 4.1 closure (footnote 7: a subset of A1)
"""

from __future__ import annotations

import math

import pytest

from repro.cube.lattice import PopularPath
from repro.cubing.full import full_materialization, intermediate_slopes
from repro.cubing.buc import buc_cubing
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold, calibrate_threshold
from repro.cubing.popular_path import popular_path_cubing
from repro.cubing.result import framework_closure
from repro.errors import CubingError, HierarchyError
from repro.regression.isb import ISB
from tests.conftest import CUBING_WALKS, isb_close


@pytest.fixture(scope="module")
def dataset():
    from repro.stream.generator import generate_dataset

    return generate_dataset("D3L3C4T500", seed=11)


@pytest.fixture(scope="module")
def policy(dataset):
    full = full_materialization(dataset.layers, dataset.cells)
    tau = calibrate_threshold(intermediate_slopes(full), 0.05)
    return GlobalSlopeThreshold(tau)


@pytest.fixture(scope="module")
def full(dataset, policy):
    return full_materialization(dataset.layers, dataset.cells, policy)


@pytest.fixture(scope="module")
def mo(dataset, policy):
    return mo_cubing(dataset.layers, dataset.cells, policy)


@pytest.fixture(scope="module")
def popular(dataset, policy):
    return popular_path_cubing(dataset.layers, dataset.cells, policy)


@pytest.fixture(scope="module")
def buc(dataset, policy):
    return buc_cubing(dataset.layers, dataset.cells, policy)


class TestFullMaterialization:
    def test_all_cuboids_present(self, dataset, full):
        assert set(full.cuboids) == set(dataset.layers.lattice.coords())

    def test_m_layer_is_input(self, dataset, full):
        assert dict(full.m_layer.items()) == dataset.cells

    def test_apexward_totals_conserved(self, dataset, full):
        """Every cuboid's cells sum (bases/slopes) to the same totals."""
        base_total = math.fsum(i.base for i in dataset.cells.values())
        slope_total = math.fsum(i.slope for i in dataset.cells.values())
        for coord, cuboid in full.cuboids.items():
            assert math.isclose(
                math.fsum(c.base for c in cuboid.cells.values()),
                base_total,
                rel_tol=1e-6,
            ), coord
            assert math.isclose(
                math.fsum(c.slope for c in cuboid.cells.values()),
                slope_total,
                rel_tol=1e-6,
            ), coord

    def test_cuboid_cells_bounded(self, dataset, full):
        lat = dataset.layers.lattice
        for coord, cuboid in full.cuboids.items():
            assert len(cuboid) <= min(len(dataset.cells), lat.max_cells(coord))

    def test_direct_rollup_equivalence(self, dataset, full):
        """Each cuboid equals a one-shot roll-up of the m-layer."""
        m = full.m_layer
        for coord in dataset.layers.lattice.coords():
            direct = m.roll_up(coord)
            got = full.cuboids[coord]
            assert set(direct) == set(got)
            for key in direct:
                assert isb_close(direct[key], got[key], tol=1e-7)


class TestAlgorithm1:
    def test_o_and_m_layers_match_full(self, full, mo):
        for coord in (mo.layers.o_coord, mo.layers.m_coord):
            assert set(mo.cuboids[coord]) == set(full.cuboids[coord])
            for key, isb in mo.cuboids[coord].items():
                assert isb_close(isb, full.cuboids[coord][key], tol=1e-7)

    def test_intermediates_are_exactly_the_exceptions(self, full, mo, policy):
        for coord in mo.layers.intermediate_coords:
            expected = {
                k
                for k, isb in full.cuboids[coord].items()
                if policy.is_exception(isb, coord)
            }
            assert set(mo.retained_exceptions[coord]) == expected
            assert set(mo.cuboids[coord]) == expected

    def test_exception_values_match_full(self, full, mo):
        for coord, cells in mo.retained_exceptions.items():
            for key, isb in cells.items():
                assert isb_close(isb, full.cuboids[coord][key], tol=1e-7)

    def test_work_counters_populated(self, mo):
        s = mo.stats
        assert s.cells_computed > 0
        assert s.cuboids_computed == mo.layers.lattice.size
        assert s.htree_nodes > 0
        assert s.header_entries > 0
        assert s.runtime_s > 0


class TestAlgorithm2:
    def test_output_equals_framework_closure(self, dataset, full, popular, policy):
        path = PopularPath.default(dataset.layers.lattice)
        closure = framework_closure(
            full.cuboids, dataset.layers, policy, path.coords
        )
        for coord in dataset.layers.intermediate_coords:
            assert set(popular.retained_exceptions[coord]) == set(
                closure[coord]
            ), coord

    def test_footnote7_subset_of_algorithm1(self, mo, popular):
        for coord in mo.layers.intermediate_coords:
            assert set(popular.retained_exceptions[coord]) <= set(
                mo.retained_exceptions[coord]
            )

    def test_path_cuboids_fully_computed_and_exact(self, dataset, full, popular):
        path = PopularPath.default(dataset.layers.lattice)
        for coord in path:
            assert set(popular.cuboids[coord]) == set(full.cuboids[coord])
            for key, isb in popular.cuboids[coord].items():
                assert isb_close(isb, full.cuboids[coord][key], tol=1e-7)

    def test_drilled_cells_exact(self, dataset, full, popular):
        for coord, cells in popular.retained_exceptions.items():
            for key, isb in cells.items():
                assert isb_close(isb, full.cuboids[coord][key], tol=1e-7)

    def test_custom_path_same_o_layer(self, dataset, policy, full):
        lat = dataset.layers.lattice
        # Reverse drill order: last dim first.
        seq = []
        for i in reversed(range(dataset.layers.schema.n_dims)):
            seq.extend([i] * (lat.m_coord[i] - lat.o_coord[i]))
        path = PopularPath.from_drill_sequence(lat, seq)
        result = popular_path_cubing(
            dataset.layers, dataset.cells, policy, path
        )
        assert set(result.o_layer) == set(full.o_layer)
        for key, isb in result.o_layer.items():
            assert isb_close(isb, full.o_layer[key], tol=1e-7)

    def test_custom_path_closure_semantics(self, dataset, policy, full):
        lat = dataset.layers.lattice
        seq = []
        for i in reversed(range(dataset.layers.schema.n_dims)):
            seq.extend([i] * (lat.m_coord[i] - lat.o_coord[i]))
        path = PopularPath.from_drill_sequence(lat, seq)
        result = popular_path_cubing(
            dataset.layers, dataset.cells, policy, path
        )
        closure = framework_closure(
            full.cuboids, dataset.layers, policy, path.coords
        )
        for coord in dataset.layers.intermediate_coords:
            assert set(result.retained_exceptions[coord]) == set(
                closure[coord]
            )

    def test_mismatched_path_rejected(self, dataset, policy, fanout_layers):
        path = PopularPath.default(fanout_layers.lattice)
        with pytest.raises(CubingError):
            popular_path_cubing(dataset.layers, dataset.cells, policy, path)

    def test_zero_exceptions_skips_all_offpath(self, dataset):
        """An unreachable threshold means no off-path cuboid is computed."""
        impossible = GlobalSlopeThreshold(1e9)
        result = popular_path_cubing(dataset.layers, dataset.cells, impossible)
        path = PopularPath.default(dataset.layers.lattice)
        off_path = [
            c for c in dataset.layers.lattice.coords() if c not in path
        ]
        assert result.stats.cuboids_skipped == len(off_path)
        assert result.total_retained_exceptions == 0

    def test_full_exception_rate_computes_everything(self, dataset, full, mo):
        everything = GlobalSlopeThreshold(0.0)
        result = popular_path_cubing(dataset.layers, dataset.cells, everything)
        for coord in dataset.layers.intermediate_coords:
            assert set(result.retained_exceptions[coord]) == set(
                full.cuboids[coord].cells
            )


class TestBUC:
    def test_matches_algorithm1_exceptions(self, mo, buc):
        for coord in mo.layers.intermediate_coords:
            assert set(buc.retained_exceptions[coord]) == set(
                mo.retained_exceptions[coord]
            )

    def test_layers_match_full(self, full, buc):
        for coord in (buc.layers.o_coord, buc.layers.m_coord):
            assert set(buc.cuboids[coord]) == set(full.cuboids[coord])

    def test_cell_values_match_full(self, full, buc):
        for coord, cells in buc.retained_exceptions.items():
            for key, isb in cells.items():
                assert isb_close(isb, full.cuboids[coord][key], tol=1e-6)


class TestResultAccessors:
    def test_describe_mentions_algorithm(self, mo):
        assert "m/o-cubing" in mo.describe()

    def test_exceptions_at_unknown_coord_empty(self, mo):
        assert mo.exceptions_at((9, 9, 9)) == {}

    def test_cuboid_lookup_raises_for_missing(self, mo):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            mo.cuboid((9, 9, 9))

    def test_o_layer_exceptions_subset_of_o_layer(self, mo):
        exc = mo.o_layer_exceptions()
        assert set(exc) <= set(mo.o_layer.cells)


@pytest.mark.parametrize("walk", CUBING_WALKS.values(), ids=list(CUBING_WALKS))
class TestEveryWalk:
    def test_empty_m_layer_gives_an_empty_result(self, walk, fanout_layers):
        result = walk(fanout_layers, {}, GlobalSlopeThreshold(0.1))
        assert set(result.cuboids) == set(fanout_layers.lattice.coords())
        assert not any(len(cuboid) for cuboid in result.cuboids.values())
        assert result.total_retained_exceptions == 0
        stats = result.stats
        assert (stats.cells_computed, stats.rows_scanned, stats.retained_cells) == (
            0,
            0,
            0,
        )

    def test_out_of_schema_key_is_a_hierarchy_error(self, walk, fanout_layers):
        cells = {(0, 1): ISB(0, 3, 1.0, 1.0), ("zz", "yy"): ISB(0, 3, 1.0, 0.5)}
        with pytest.raises(HierarchyError):
            walk(fanout_layers, cells, GlobalSlopeThreshold(0.1))
