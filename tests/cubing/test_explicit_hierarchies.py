"""Cross-algorithm agreement on string-valued, non-uniform hierarchies.

The D*L*C* generator uses uniform integer fanout hierarchies; real schemas
(power grid, Example 5) have explicit, unevenly sized ones.  These tests run
every algorithm over the Example 5 schema — whose per-level cardinalities
are deliberately irregular — and check the same oracle equivalences as the
fanout-based suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube.lattice import PopularPath
from repro.cubing.buc import buc_cubing
from repro.cubing.full import full_materialization, intermediate_slopes
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.multiway import multiway_cubing
from repro.cubing.policy import GlobalSlopeThreshold, calibrate_threshold
from repro.cubing.popular_path import popular_path_cubing
from repro.cubing.result import framework_closure
from repro.regression.isb import ISB
from tests.conftest import isb_close


@pytest.fixture()
def example5_cells(example5_layers):
    """Random m-layer cells over the Example 5 value space."""
    rng = np.random.default_rng(31)
    a_vals = [f"a2_{i}" for i in range(10)]
    b_vals = [f"b2_{i}" for i in range(12)]
    c_vals = [f"c2_{i}" for i in range(8)]
    cells = {}
    for _ in range(300):
        key = (
            str(rng.choice(a_vals)),
            str(rng.choice(b_vals)),
            str(rng.choice(c_vals)),
        )
        isb = ISB(0, 11, float(rng.uniform(0, 4)), float(rng.laplace(0, 0.1)))
        if key in cells:
            prior = cells[key]
            isb = ISB(0, 11, prior.base + isb.base, prior.slope + isb.slope)
        cells[key] = isb
    return cells


@pytest.fixture()
def example5_policy(example5_layers, example5_cells):
    full = full_materialization(example5_layers, example5_cells)
    tau = calibrate_threshold(intermediate_slopes(full), 0.1)
    return GlobalSlopeThreshold(tau)


class TestExample5Agreement:
    def test_mo_equals_oracle(self, example5_layers, example5_cells, example5_policy):
        oracle = full_materialization(
            example5_layers, example5_cells, example5_policy
        )
        mo = mo_cubing(example5_layers, example5_cells, example5_policy)
        for coord in example5_layers.intermediate_coords:
            expected = {
                k
                for k, isb in oracle.cuboids[coord].items()
                if example5_policy.is_exception(isb, coord)
            }
            assert set(mo.retained_exceptions[coord]) == expected

    def test_multiway_equals_mo(
        self, example5_layers, example5_cells, example5_policy
    ):
        mo = mo_cubing(example5_layers, example5_cells, example5_policy)
        mw = multiway_cubing(example5_layers, example5_cells, example5_policy)
        for coord in example5_layers.intermediate_coords:
            assert set(mw.retained_exceptions[coord]) == set(
                mo.retained_exceptions[coord]
            )

    def test_buc_equals_mo(self, example5_layers, example5_cells, example5_policy):
        mo = mo_cubing(example5_layers, example5_cells, example5_policy)
        bu = buc_cubing(example5_layers, example5_cells, example5_policy)
        for coord in example5_layers.intermediate_coords:
            assert set(bu.retained_exceptions[coord]) == set(
                mo.retained_exceptions[coord]
            )

    def test_popular_path_closure_on_paper_path(
        self, example5_layers, example5_cells, example5_policy
    ):
        """Algorithm 2 along the paper's own Fig 6 dark-line path."""
        path = PopularPath.from_drill_sequence(
            example5_layers.lattice, ["B", "B", "A", "C"]
        )
        pp = popular_path_cubing(
            example5_layers, example5_cells, example5_policy, path
        )
        oracle = full_materialization(
            example5_layers, example5_cells, example5_policy
        )
        closure = framework_closure(
            oracle.cuboids, example5_layers, example5_policy, path.coords
        )
        for coord in example5_layers.intermediate_coords:
            assert set(pp.retained_exceptions[coord]) == set(closure[coord])

    def test_o_layer_cells_identical_across_algorithms(
        self, example5_layers, example5_cells, example5_policy
    ):
        results = [
            mo_cubing(example5_layers, example5_cells, example5_policy),
            popular_path_cubing(
                example5_layers, example5_cells, example5_policy
            ),
            buc_cubing(example5_layers, example5_cells, example5_policy),
            multiway_cubing(example5_layers, example5_cells, example5_policy),
        ]
        reference = results[0].o_layer
        for other in results[1:]:
            assert set(other.o_layer.cells) == set(reference.cells)
            for key, isb in other.o_layer.items():
                assert isb_close(isb, reference[key], tol=1e-7)

    def test_star_values_in_o_layer_keys(
        self, example5_layers, example5_cells, example5_policy
    ):
        """The o-layer (A1, *, C1) keys carry the ALL sentinel for B."""
        mo = mo_cubing(example5_layers, example5_cells, example5_policy)
        for key in mo.o_layer.cells:
            assert key[1] == "*"
            assert key[0].startswith("a1_")
            assert key[2].startswith("c1_")
