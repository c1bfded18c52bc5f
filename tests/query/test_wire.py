"""Wire bytes rendered from columns equal ``json.dumps(to_dict())``.

``QueryResult.wire`` writes a column-backed cell body straight from the
columns (:func:`repro.io.cells_to_json`) instead of boxing every cell and
encoding :meth:`~repro.query.exec.QueryResult.to_dict`.  ``to_dict`` stays
the reference: every op, on answers that are column-backed, must give the
same bytes — string values that ``ensure_ascii`` escapes, empty answers,
non-finite floats included.  ``top_slopes`` ranks on columns too; its order
must be what a stable ``sorted`` on ``-|slope|`` gives.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

from repro.cube.cuboid import ColumnCells, Cuboid
from repro.cube.hierarchy import ExplicitHierarchy, FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.full import full_materialization
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold
from repro.cubing.result import CubeResult
from repro.query import Q, RegressionCubeView, execute
from repro.regression.isb import ISB
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

#: Level-1 and level-2 values that json escapes: quotes, backslashes,
#: control characters and non-ASCII text.
REGIONS = ['north "A"', "back\\slash", "Zürich", "tab\there"]
SITES = {
    'a"1': 'north "A"',
    "b\\2": "back\\slash",
    "ü-3": "Zürich",
    "東京": "Zürich",
    "é5": 'north "A"',
    "x\n6": "tab\there",
}


@pytest.fixture(scope="module")
def layers():
    schema = CubeSchema(
        [
            Dimension("site", ExplicitHierarchy("site", ["region", "site"], REGIONS, [SITES])),
            Dimension("n", FanoutHierarchy("n", 2, 2)),
        ]
    )
    return CriticalLayers(schema, (2, 2), (1, 1))


@pytest.fixture(scope="module")
def cells():
    slopes = itertools.cycle([0.75, -0.75, 0.1, -0.0, 0.0, 1.5, -1.5, 0.3, 2.0 / 3.0])
    return {
        (site, n): ISB(0, 7, 0.1 * i - 1.0, next(slopes))
        for i, (site, n) in enumerate(itertools.product(SITES, range(4)))
    }


def assert_wire(result):
    assert result.wire == json.dumps(result.to_dict()).encode("utf-8")


def every_op(layers, values_m, values_o):
    m, o = layers.m_coord, layers.o_coord
    mid = (1, 2)
    yield Q.observation_deck()
    yield Q.watch_list()
    yield Q.exceptions()
    yield Q.cell(o, values_o)
    yield Q.cell(mid, (SITES[values_m[0]], values_m[1]))
    yield Q.slice(m, {"site": values_m[0]})
    yield Q.slice(mid, {"n": values_m[1]})
    yield Q.slice(o, {})
    yield Q.roll_up(m, values_m, "site")
    yield Q.drill_down(o, values_o, "site")
    yield Q.drill_down(o, values_o, "n")
    yield Q.siblings(m, values_m, "site")
    yield Q.siblings(m, values_m, "n")
    yield Q.sibling_deviation(m, values_m, "n")
    for coord in (m, mid, o):
        yield Q.top_slopes(coord, k=4)


@pytest.mark.parametrize("cubing", ["mo", "full"])
def test_every_op_renders_the_bytes_of_its_dict(layers, cells, cubing):
    cube = mo_cubing if cubing == "mo" else full_materialization
    view = RegressionCubeView(cube(layers, cells, GlobalSlopeThreshold(0.5)))
    scans = 0
    for spec in every_op(layers, ("東京", 3), ("Zürich", 1)):
        result = execute(view, spec)
        assert_wire(result)
        scans += isinstance(result.value, ColumnCells)
    assert scans >= 8
    # Non-ASCII text went out escaped, as ``ensure_ascii`` writes it.
    deck = execute(view, Q.observation_deck()).wire
    assert b"Z\\u00fcrich" in deck and deck.isascii()


def test_an_empty_watch_list(layers, cells):
    view = RegressionCubeView(mo_cubing(layers, cells, GlobalSlopeThreshold(math.inf)))
    result = execute(view, Q.watch_list())
    assert isinstance(result.value, ColumnCells) and not result.value
    assert result.wire == b'{"op": "watch_list", "cells": []}'
    assert_wire(result)
    assert_wire(execute(view, Q.exceptions()))
    assert_wire(execute(view, Q.slice(layers.o_coord, {"site": "nowhere"})))


def test_non_finite_floats_use_the_json_spellings(layers):
    """A hand-built result whose cells carry NaN and infinities (no ingest
    path admits them any more; a result built in-process still can)."""
    weird = [math.nan, math.inf, -math.inf, -0.0, 1e-310, 1.7976931348623157e308]
    cells = {
        key: ISB(0, 3, weird[i % len(weird)], weird[(i + 2) % len(weird)])
        for i, key in enumerate(itertools.product(SITES, range(4)))
    }
    result = mo_cubing(layers, cells, GlobalSlopeThreshold(0.0))
    hand = CubeResult(
        layers=layers,
        policy=result.policy,
        cuboids={
            coord: Cuboid.from_cells(layers.schema, coord, cuboid.items())
            for coord, cuboid in result.cuboids.items()
        },
        stats=result.stats,
    )
    view = RegressionCubeView(hand)
    for spec in (Q.observation_deck(), Q.watch_list(), Q.slice(layers.m_coord, {})):
        result = execute(view, spec)
        assert isinstance(result.value, ColumnCells)
        assert_wire(result)
    wire = execute(view, Q.slice(layers.m_coord, {})).wire
    for spelling in (b"NaN", b"Infinity", b"-Infinity", b"-0.0", b"1e-310"):
        assert spelling in wire


def ranked(cells, k):
    return sorted(cells, key=lambda kv: -abs(kv[1].slope))[:k]


class TestTopSlopesRanking:
    """Ties of equal ``|slope|`` (opposite signs, ``0.0`` against ``-0.0``)
    keep row order, on a complete cuboid and on a rolled-up one alike."""

    @pytest.fixture
    def view(self):
        layers = DatasetSpec(2, 2, 2, 1).build_layers()
        # Slopes sum up the hierarchy: chosen so the o-layer (complete) and
        # the rolled-up cuboids in between all hold +x/-x and 0.0/-0.0 ties.
        slopes = {
            (0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.0, (1, 1): 0.0,  # parent +1
            (2, 0): -0.5, (2, 1): -0.5, (3, 0): -0.0, (3, 1): -0.0,  # parent -1
            (0, 2): -0.0, (0, 3): -0.0, (1, 2): -0.0, (1, 3): -0.0,  # parent -0.0
            (2, 2): 0.25, (2, 3): -0.25, (3, 2): 0.0, (3, 3): 0.0,  # parent 0.0
        }
        cells = {key: ISB(0, 3, 1.0, slope) for key, slope in slopes.items()}
        return RegressionCubeView(mo_cubing(layers, cells, GlobalSlopeThreshold(9.0)))

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 16, 100])
    def test_every_cuboid_ranks_like_sorted(self, view, k):
        result = view.result
        for coord in view.lattice.coords():
            got = execute(view, Q.top_slopes(coord, k=k))
            source = result.complete_cuboid(coord)
            if source is None:
                source = result.m_layer.roll_up(coord)
            everything = list(source.items())
            assert got.value == ranked(everything, k), coord
            assert [math.copysign(1, isb.slope) for _, isb in got.value] == [
                math.copysign(1, isb.slope) for _, isb in ranked(everything, k)
            ]
            assert_wire(got)

    def test_both_sources_are_exercised(self, view):
        result = view.result
        complete = [c for c in view.lattice.coords() if result.is_complete(c)]
        rolled = [c for c in view.lattice.coords() if not result.is_complete(c)]
        assert complete and rolled
        assert len(execute(view, Q.top_slopes(view.layers.o_coord, k=100)).value) == 4


def test_change_exceptions_keep_their_bytes():
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    cube = ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=1, ticks_per_quarter=4
    )
    cube.ingest_batch(
        StreamRecord((i, i), t, float(i * t)) for t in range(16) for i in range(3)
    )
    cube.advance_to(16)
    view = RegressionCubeView(cube.refresh(2), cube)
    for spec in (Q.change_exceptions(), Q.change_exceptions(2, "o"), Q.observation_deck()):
        assert_wire(execute(view, spec))
