"""The serving path has one cubing algorithm.

A stream or service refresh runs m/o-cubing through ``run_cubing`` and
nothing else: no module of the stream engine, the sharded service or the
cluster imports another cubing walk, and no refresh entry point takes an
algorithm.  The other walks are library functions over ``m_cells``.
"""

from __future__ import annotations

import inspect

import pytest

from repro.service.merge import merge_cube
from repro.service.sharding import ShardedStreamCube
from repro.stream.engine import run_cubing
from tests.regression.test_reference_independence import SRC, imported_modules

SERVING = sorted(
    path for package in ("stream", "service", "cluster") for path in (SRC / package).rglob("*.py")
)
OTHER_WALK_MODULES = tuple(
    f"repro.cubing.{name}" for name in ("popular_path", "multiway", "full", "buc", "build")
)
OTHER_WALKS = {
    "popular_path_cubing",
    "popular_path_cubing_from_tree",
    "multiway_cubing",
    "full_materialization",
    "buc_cubing",
    "build_mo_htree",
    "build_path_htree",
}


@pytest.mark.parametrize("path", SERVING, ids=lambda path: str(path.relative_to(SRC)))
def test_the_serving_path_imports_no_other_cubing_walk(path):
    found = {
        module
        for module in imported_modules(path)
        if module == "repro.cubing"  # the package re-exports every walk
        or module.startswith(OTHER_WALK_MODULES)
        or module.rsplit(".", 1)[-1] in OTHER_WALKS
    }
    assert not found, f"{path.relative_to(SRC)} imports {sorted(found)}"


def test_refresh_takes_only_a_window():
    assert list(inspect.signature(ShardedStreamCube.refresh).parameters) == [
        "self",
        "window_quarters",
    ]


@pytest.mark.parametrize(
    "function, parameters",
    [
        (run_cubing, ["layers", "cells", "policy"]),
        (merge_cube, ["layers", "policy", "shard_m_layers"]),
    ],
)
def test_cubing_entries_take_no_algorithm(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters
