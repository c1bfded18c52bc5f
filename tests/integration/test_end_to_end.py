"""End-to-end integration: simulator -> one-shard cube -> drilling.

This is the paper's whole pipeline in one test module: per-minute power
readings stream in, quarters seal into tilt frames, the regression cube is
refreshed at the two critical layers, the surging street block shows up as
an o-layer exception, and drilling localizes it.
"""

from __future__ import annotations

import math

import pytest

from repro.cube.hierarchy import ALL
from repro.cubing.policy import GlobalSlopeThreshold
from repro.cubing.popular_path import popular_path_cubing
from repro.query.drill import ExceptionDriller
from repro.regression.isb import isb_of_series
from repro.service.sharding import ShardedStreamCube
from repro.stream.power_grid import PowerGridConfig, PowerGridSimulator
from repro.tilt.frame import TiltLevelSpec


@pytest.fixture(scope="module")
def pipeline():
    cfg = PowerGridConfig(
        n_cities=2,
        blocks_per_city=2,
        addresses_per_block=2,
        users_per_address=2,
        noise=0.01,
        surge_block="c1-b1",
        surge_start_minute=0,
        surge_slope_per_minute=0.05,
        seed=17,
    )
    sim = PowerGridSimulator(cfg)
    layers = sim.layers()
    cube = ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(0.03),
        n_shards=1,
        key_fn=sim.m_key_fn(),
        ticks_per_quarter=15,
        frame_levels=[
            TiltLevelSpec("quarter", 15, 4),
            TiltLevelSpec("hour", 60, 24),
        ],
    )
    minutes = 60
    cube.ingest_batch(sim.records(minutes))
    cube.advance_to(minutes)
    return sim, layers, cube


class TestStreamingPipeline:
    def test_quarters_sealed(self, pipeline):
        _, _, cube = pipeline
        assert cube.current_quarter == 4
        assert cube.tracked_cells > 0

    def test_hour_promoted(self, pipeline):
        _, _, cube = pipeline
        key = next(iter(cube.m_cells(1)))
        frame = cube.shards[0].frame_of(key)
        assert len(frame.slots("hour")) == 1

    def test_m_cells_cover_all_groups_and_blocks(self, pipeline):
        sim, layers, cube = pipeline
        cells = cube.m_cells(4)
        blocks_seen = {key[1] for key in cells}
        assert blocks_seen == set(sim.blocks)

    def test_surging_block_flagged_at_o_layer(self, pipeline):
        sim, layers, cube = pipeline
        result = cube.refresh(window_quarters=4)
        exceptional = result.o_layer_exceptions()
        # o-layer is (*, city); the surging block is in city1.
        assert (ALL, "city1") in exceptional

    def test_drilling_localizes_the_surge(self, pipeline):
        sim, layers, cube = pipeline
        result = cube.refresh(window_quarters=4)
        driller = ExceptionDriller(result)
        roots = driller.drill_tree()
        flagged_blocks = {
            node.values[1]
            for root in roots
            for node in root.walk()
            if node.values[1] != ALL
        }
        assert "c1-b1" in flagged_blocks

    def test_mo_and_popular_agree_end_to_end(self, pipeline):
        _, layers, cube = pipeline
        mo = cube.refresh(4)
        pp = popular_path_cubing(layers, cube.m_cells(4), cube.policy)
        assert set(mo.o_layer.cells) == set(pp.o_layer.cells)
        for key in mo.o_layer.cells:
            assert math.isclose(
                mo.o_layer[key].slope, pp.o_layer[key].slope, rel_tol=1e-9
            )

    def test_engine_window_matches_offline_aggregation(self, pipeline):
        """The streamed m-layer equals an offline regression over the same
        raw readings (exactness of the whole incremental path)."""
        sim, layers, cube = pipeline
        key_fn = sim.m_key_fn()
        raw: dict[tuple, dict[int, float]] = {}
        for record in sim.records(60):
            key = key_fn(record)
            raw.setdefault(key, {})
            raw[key][record.t] = raw[key].get(record.t, 0.0) + record.z
        cells = cube.m_cells(4)
        for key, series_map in raw.items():
            series = [series_map[t] for t in range(60)]
            expected = isb_of_series(series)
            got = cells[key]
            assert math.isclose(got.base, expected.base, rel_tol=1e-6), key
            assert math.isclose(got.slope, expected.slope, rel_tol=1e-6), key


class TestChangeDetection:
    def test_quarter_over_quarter_change(self):
        """The 'current vs previous quarter' exception flavour, live."""
        cfg = PowerGridConfig(
            n_cities=1,
            blocks_per_city=2,
            addresses_per_block=1,
            users_per_address=1,
            noise=0.0,
            surge_block="c0-b0",
            surge_start_minute=15,
            surge_slope_per_minute=0.2,
            seed=3,
        )
        sim = PowerGridSimulator(cfg)
        layers = sim.layers()
        cube = ShardedStreamCube(
            layers,
            GlobalSlopeThreshold(0.005),
            n_shards=1,
            key_fn=sim.m_key_fn(),
            ticks_per_quarter=15,
            frame_levels=[TiltLevelSpec("quarter", 15, 8)],
        )
        cube.ingest_batch(sim.records(30))
        cube.advance_to(30)
        changed = cube.change_exceptions()
        surged_cells = {k for k in changed if k[1] == "c0-b0"}
        assert surged_cells
