"""Shared fixtures and hypothesis profiles.

Hypothesis profiles (pick with ``HYPOTHESIS_PROFILE=<name>``, default
``ci``):

* ``ci`` — 20 examples, no deadline, **derandomized**: every run draws the
  same seeds, so the tier-1 gate cannot flake on a fresh unlucky example.
* ``dev`` — 10 randomized examples for quick local iteration.
* ``nightly`` — 200 randomized examples (10x the ci sweep), meant for the
  scheduled chaos-scenario workflow; keeps exploring new seeds.
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import settings

from repro.cube.hierarchy import ExplicitHierarchy, FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.buc import buc_cubing
from repro.cubing.build import build_mo_htree
from repro.cubing.full import full_materialization
from repro.cubing.mo_cubing import mo_cubing, mo_cubing_from_tree
from repro.cubing.multiway import multiway_cubing
from repro.cubing.popular_path import popular_path_cubing
from repro.regression.isb import ISB
from repro.stream.generator import generate_dataset
from repro.timeseries.series import TimeSeries

# ----------------------------------------------------------------------
# Hypothesis profiles
# ----------------------------------------------------------------------
settings.register_profile(
    "ci", max_examples=20, deadline=None, derandomize=True
)
settings.register_profile("dev", max_examples=10, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def isb_close(a: ISB, b: ISB, tol: float = 1e-9) -> bool:
    """Numeric ISB equality with matching intervals."""
    return (
        a.interval == b.interval
        and math.isclose(a.base, b.base, rel_tol=tol, abs_tol=tol)
        and math.isclose(a.slope, b.slope, rel_tol=tol, abs_tol=tol)
    )


def _mo_cubing_from_tree(layers, cells, policy):
    items = cells.items() if isinstance(cells, dict) else cells
    return mo_cubing_from_tree(layers, build_mo_htree(layers, items), policy)


#: Every cubing walk, as ``walk(layers, m_cells, policy)``; parametrize
#: with ``ids=list(CUBING_WALKS)``.
CUBING_WALKS = {
    "mo": mo_cubing,
    "mo_from_tree": _mo_cubing_from_tree,
    "full": full_materialization,
    "multiway": multiway_cubing,
    "popular": popular_path_cubing,
    "buc": buc_cubing,
}


@pytest.fixture
def example2_series() -> TimeSeries:
    """The paper's Example 2 time series over [0, 9]."""
    return TimeSeries(
        0, (0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56)
    )


def _example5_dim(name: str, card1: int, card2: int) -> Dimension:
    """A 2-deep explicit hierarchy with chosen per-level cardinalities."""
    level1 = [f"{name.lower()}1_{i}" for i in range(card1)]
    parent_map = {
        f"{name.lower()}2_{j}": level1[j * card1 // card2]
        for j in range(card2)
    }
    hierarchy = ExplicitHierarchy(
        name, [f"{name}1", f"{name}2"], level1, [parent_map]
    )
    return Dimension(name, hierarchy)


@pytest.fixture
def example5_layers() -> CriticalLayers:
    """Example 5's cube: m-layer (A2,B2,C2), o-layer (A1,*,C1), 12 cuboids.

    Cardinalities honour the paper's ordering
    card(A1) < card(B1) < card(C1) < card(C2) < card(A2) < card(B2):
    2 < 3 < 4 < 8 < 10 < 12.
    """
    schema = CubeSchema(
        [
            _example5_dim("A", 2, 10),
            _example5_dim("B", 3, 12),
            _example5_dim("C", 4, 8),
        ]
    )
    return CriticalLayers(schema, m_coord=(2, 2, 2), o_coord=(1, 0, 1))


@pytest.fixture
def small_dataset():
    """A small deterministic D3L3C4 dataset (fast cubing tests)."""
    return generate_dataset("D3L3C4T500", seed=11)


@pytest.fixture
def tiny_dataset():
    """A minimal D2L2C3 dataset (very fast tests)."""
    return generate_dataset("D2L2C3T120", seed=5)


@pytest.fixture
def fanout_layers() -> CriticalLayers:
    """A bare D2L3C3 schema without data."""
    dims = [
        Dimension("x", FanoutHierarchy("x", 3, 3)),
        Dimension("y", FanoutHierarchy("y", 3, 3)),
    ]
    schema = CubeSchema(dims)
    return CriticalLayers(schema, m_coord=(3, 3), o_coord=(1, 1))


def random_series(rng, n: int, t_b: int = 0) -> TimeSeries:
    """A noisy random trend series for oracle-based property tests.

    ``rng`` is a ``numpy.random.Generator``.
    """
    base = rng.uniform(-5, 5)
    slope = rng.uniform(-1, 1)
    noise = rng.normal(0, 0.5, size=n)
    values = tuple(base + slope * (t_b + i) + noise[i] for i in range(n))
    return TimeSeries(t_b, values)
