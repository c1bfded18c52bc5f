"""Tests for the online stream-cube engine (Section 4.5)."""

from __future__ import annotations

import math

import pytest

from repro.cube.hierarchy import ALL, FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.full import full_materialization
from repro.cubing.multiway import multiway_cubing
from repro.cubing.policy import GlobalSlopeThreshold
from repro.cubing.popular_path import popular_path_cubing
from repro.errors import StreamError
from repro.regression.isb import isb_of_series
from repro.service.sharding import ShardedStreamCube
from repro.stream.engine import StreamCubeEngine, engine_frame_levels
from repro.stream.records import StreamRecord
from repro.tilt.frame import TiltLevelSpec


@pytest.fixture
def layers() -> CriticalLayers:
    schema = CubeSchema(
        [
            Dimension("g", FanoutHierarchy("g", 2, 2)),
            Dimension("l", FanoutHierarchy("l", 2, 2)),
        ]
    )
    return CriticalLayers(schema, (2, 2), (1, 1))


def compact_levels(tpq: int) -> list[TiltLevelSpec]:
    return [
        TiltLevelSpec("quarter", tpq, 4),
        TiltLevelSpec("hour", 4 * tpq, 6),
        TiltLevelSpec("day", 24 * tpq, 2),
    ]


def make_engine(layers, threshold=0.0, tpq=4) -> StreamCubeEngine:
    """Small quarters (4 ticks) and a compact frame for fast tests."""
    return StreamCubeEngine(
        layers,
        GlobalSlopeThreshold(threshold),
        ticks_per_quarter=tpq,
        frame_levels=compact_levels(tpq),
    )


def make_cube(layers, threshold=0.0, tpq=4) -> ShardedStreamCube:
    """:func:`make_engine`'s geometry behind a one-shard cube, the owner of
    the refresh and the change exceptions."""
    return ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(threshold),
        n_shards=1,
        ticks_per_quarter=tpq,
        frame_levels=compact_levels(tpq),
    )


def feed_cell(engine, values, series, t0=0):
    for i, z in enumerate(series):
        engine.ingest(StreamRecord(values=values, t=t0 + i, z=z))


class TestFrameLevels:
    def test_paper_shape(self):
        levels = engine_frame_levels(15)
        assert [lv.name for lv in levels] == ["quarter", "hour", "day", "month"]
        assert [lv.unit_ticks for lv in levels] == [15, 60, 1440, 44640]
        assert [lv.capacity for lv in levels] == [4, 24, 31, 12]


class TestIngestion:
    def test_quarter_sealing(self, layers):
        engine = make_engine(layers)
        feed_cell(engine, (0, 0), [1.0, 2.0, 3.0, 4.0, 5.0])  # crosses t=4
        assert engine.current_quarter == 1
        frame = engine.frame_of((0, 0))
        slots = frame.slots("quarter")
        assert len(slots) == 1
        direct = isb_of_series([1.0, 2.0, 3.0, 4.0])
        assert math.isclose(slots[0].base, direct.base, rel_tol=1e-9)
        assert math.isclose(slots[0].slope, direct.slope, rel_tol=1e-9)

    def test_out_of_order_within_quarter_ok(self, layers):
        engine = make_engine(layers)
        engine.ingest(StreamRecord((0, 0), 2, 1.0))
        engine.ingest(StreamRecord((0, 0), 0, 2.0))  # same quarter
        assert engine.records_ingested == 2

    def test_record_into_sealed_quarter_rejected(self, layers):
        engine = make_engine(layers)
        engine.ingest(StreamRecord((0, 0), 5, 1.0))  # seals quarter 0
        with pytest.raises(StreamError):
            engine.ingest(StreamRecord((0, 0), 3, 1.0))

    def test_advance_to_seals_quiet_quarters(self, layers):
        engine = make_engine(layers)
        engine.ingest(StreamRecord((0, 0), 0, 1.0))
        engine.advance_to(12)  # 3 quarters boundary
        assert engine.current_quarter == 3
        frame = engine.frame_of((0, 0))
        assert len(frame.slots("quarter")) == 3
        # Quiet quarters are flat zero.
        assert frame.slots("quarter")[-1].base == 0.0

    def test_late_cell_backfilled_with_zeros(self, layers):
        engine = make_engine(layers)
        feed_cell(engine, (0, 0), [1.0] * 8)  # quarters 0,1 sealed
        engine.ingest(StreamRecord((3, 3), 8, 2.0))
        engine.advance_to(12)
        frame = engine.frame_of((3, 3))
        slots = frame.slots("quarter")
        assert len(slots) == 3
        assert slots[0].base == 0.0 and slots[1].base == 0.0

    def test_invalid_cell_values_rejected(self, layers):
        engine = make_engine(layers)
        with pytest.raises(Exception):
            engine.ingest(StreamRecord((99, 0), 0, 1.0))

    def test_unknown_cell_frame_lookup(self, layers):
        engine = make_engine(layers)
        with pytest.raises(StreamError):
            engine.frame_of((0, 0))

    def test_tpq_validation(self, layers):
        with pytest.raises(StreamError):
            StreamCubeEngine(
                layers, GlobalSlopeThreshold(0.0), ticks_per_quarter=0
            )


class TestBatchIngestion:
    def test_out_of_order_batch_rejected_before_any_mutation(self, layers):
        engine = make_engine(layers)
        batch = [
            StreamRecord((0, 0), 0, 1.0),
            StreamRecord((0, 0), 5, 1.0),  # quarter 1
            StreamRecord((1, 1), 2, 1.0),  # back to quarter 0: bad
        ]
        with pytest.raises(StreamError, match="quarter-ordered"):
            engine.ingest_many(batch)
        # No partial state: nothing ingested, no quarter sealed.
        assert engine.records_ingested == 0
        assert engine.tracked_cells == 0
        assert engine.current_quarter == 0

    def test_batch_into_sealed_quarter_rejected(self, layers):
        engine = make_engine(layers)
        engine.ingest(StreamRecord((0, 0), 5, 1.0))  # seals quarter 0
        with pytest.raises(StreamError, match="sealed"):
            engine.ingest_many([StreamRecord((1, 1), 3, 1.0)])
        assert engine.records_ingested == 1

    def test_within_quarter_disorder_allowed(self, layers):
        engine = make_engine(layers)
        engine.ingest_many(
            [
                StreamRecord((0, 0), 2, 1.0),
                StreamRecord((0, 0), 0, 2.0),  # same quarter: fine
                StreamRecord((0, 0), 3, 3.0),
            ]
        )
        assert engine.records_ingested == 3


class TestWindows:
    def test_m_cells_window_matches_raw(self, layers):
        engine = make_engine(layers)
        series = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
        feed_cell(engine, (0, 0), series)
        engine.advance_to(8)
        cells = engine.m_cells(window_quarters=2)
        assert set(cells) == {(0, 0)}
        direct = isb_of_series(series)
        got = cells[(0, 0)]
        assert got.interval == (0, 7)
        assert math.isclose(got.base, direct.base, rel_tol=1e-9)
        assert math.isclose(got.slope, direct.slope, rel_tol=1e-9)

    def test_m_cells_requires_enough_history(self, layers):
        engine = make_engine(layers)
        feed_cell(engine, (0, 0), [1.0] * 4)
        with pytest.raises(StreamError):
            engine.m_cells(window_quarters=4)

    def test_change_exceptions_flags_jump(self, layers):
        cube = make_cube(layers, threshold=0.2)
        # Cell (0,0): flat 1.0 then flat 5.0 -> big two-point slope.
        # Cell (1,1): flat throughout.
        for t in range(4):
            cube.ingest(StreamRecord((0, 0), t, 1.0))
            cube.ingest(StreamRecord((1, 1), t, 1.0))
        for t in range(4, 8):
            cube.ingest(StreamRecord((0, 0), t, 5.0))
            cube.ingest(StreamRecord((1, 1), t, 1.0))
        cube.advance_to(8)
        changed = cube.change_exceptions()
        assert (0, 0) in changed
        assert (1, 1) not in changed
        assert changed[(0, 0)].slope > 0.2

    def test_change_exceptions_needs_two_windows(self, layers):
        cube = make_cube(layers)
        feed_cell(cube, (0, 0), [1.0] * 4)
        with pytest.raises(StreamError):
            cube.change_exceptions()

    def test_o_layer_change_detection(self, layers):
        """A jump in one m-cell surfaces at its o-layer ancestor."""
        cube = make_cube(layers, threshold=0.2)
        # m-cells (0,0) and (1,1) share o-parent (0,0); only (0,0) jumps.
        for t in range(4):
            cube.ingest(StreamRecord((0, 0), t, 1.0))
            cube.ingest(StreamRecord((1, 1), t, 1.0))
            cube.ingest(StreamRecord((3, 3), t, 1.0))
        for t in range(4, 8):
            cube.ingest(StreamRecord((0, 0), t, 6.0))
            cube.ingest(StreamRecord((1, 1), t, 1.0))
            cube.ingest(StreamRecord((3, 3), t, 1.0))
        cube.advance_to(8)
        changed = cube.o_layer_change_exceptions()
        assert (0, 0) in changed  # o-layer ancestor of the jumping cell
        assert (1, 1) not in changed  # o-parent of the flat cell

    def test_o_layer_change_aggregates_both_windows(self, layers):
        """Two children each rising by 1 produce an o-parent rise of 2."""
        cube = make_cube(layers, threshold=0.0)
        for t in range(4):
            cube.ingest(StreamRecord((0, 0), t, 1.0))
            cube.ingest(StreamRecord((1, 1), t, 1.0))
        for t in range(4, 8):
            cube.ingest(StreamRecord((0, 0), t, 2.0))
            cube.ingest(StreamRecord((1, 1), t, 2.0))
        cube.advance_to(8)
        changed = cube.o_layer_change_exceptions()
        # Parent means go 2.0 -> 4.0 over 4 ticks: slope 0.5.
        assert math.isclose(changed[(0, 0)].slope, 0.5, rel_tol=1e-9)

    def test_o_layer_change_needs_history(self, layers):
        cube = make_cube(layers)
        feed_cell(cube, (0, 0), [1.0] * 4)
        with pytest.raises(StreamError):
            cube.o_layer_change_exceptions()


class TestRefresh:
    def _fill(self, cube):
        # Two steep cells under one o-parent, two flat elsewhere.
        for t in range(8):
            cube.ingest(StreamRecord((0, 0), t, 1.0 + 2.0 * t))
            cube.ingest(StreamRecord((0, 1), t, 0.5 + 1.0 * t))
            cube.ingest(StreamRecord((3, 3), t, 2.0))
        cube.advance_to(8)

    def test_refresh_runs_mo_cubing(self, layers):
        cube = make_cube(layers, threshold=0.5)
        self._fill(cube)
        result = cube.refresh(window_quarters=2)
        assert result.stats.algorithm == "m/o-cubing"
        # o-layer cell (0,0) aggregates the two steep m-cells.
        o_exc = result.o_layer_exceptions()
        assert (0, 0) in o_exc

    @pytest.mark.parametrize(
        "walk, name",
        [
            (popular_path_cubing, "popular-path"),
            (full_materialization, "full-materialization"),
            (multiway_cubing, "multiway"),
        ],
    )
    def test_other_algorithms_run_on_m_cells(self, layers, walk, name):
        cube = make_cube(layers, threshold=0.5)
        self._fill(cube)
        result = walk(layers, cube.m_cells(2), cube.policy)
        assert result.stats.algorithm == name
        assert (0, 0) in result.o_layer_exceptions()

    def test_refresh_and_popular_path_agree_on_o_layer(self, layers):
        cube = make_cube(layers, threshold=0.5)
        self._fill(cube)
        mo = cube.refresh(2)
        pp = popular_path_cubing(layers, cube.m_cells(2), cube.policy)
        assert set(mo.o_layer.cells) == set(pp.o_layer.cells)
        for key in mo.o_layer.cells:
            a, b = mo.o_layer[key], pp.o_layer[key]
            assert math.isclose(a.base, b.base, rel_tol=1e-9)
            assert math.isclose(a.slope, b.slope, rel_tol=1e-9)


class TestShardOnly:
    """The engine is a shard: the cube owns the journal, the held plan,
    the refresh and the change exceptions."""

    @pytest.mark.parametrize(
        "name",
        ["wal", "_plan", "refresh", "change_exceptions", "o_layer_change_exceptions"],
    )
    def test_the_engine_has_no_cube_surface(self, layers, name):
        assert not hasattr(make_engine(layers), name)

    def test_engine_snapshots_carry_no_journal_mark(self, layers):
        engine = make_engine(layers)
        feed_cell(engine, (0, 0), [1.0] * 6)
        assert engine.snapshot().wal_seq == 0


class TestPruning:
    def test_idle_cells_dropped(self, layers):
        engine = make_engine(layers)
        # (0,0) stays active; (3,3) goes quiet after the first quarter.
        for t in range(4):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
            engine.ingest(StreamRecord((3, 3), t, 1.0))
        for t in range(4, 12):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
        engine.advance_to(12)
        dropped = engine.prune_idle(idle_quarters=2)
        assert dropped == 1
        assert engine.tracked_cells == 1
        with pytest.raises(StreamError):
            engine.frame_of((3, 3))

    def test_active_cells_survive(self, layers):
        engine = make_engine(layers)
        feed_cell(engine, (0, 0), [1.0] * 12)
        engine.advance_to(12)
        assert engine.prune_idle(2) == 0
        assert engine.tracked_cells == 1

    def test_currently_accumulating_cell_survives(self, layers):
        engine = make_engine(layers)
        feed_cell(engine, (0, 0), [1.0] * 8)
        engine.advance_to(8)
        # New cell appears mid-quarter: zero sealed history but accumulating.
        engine.ingest(StreamRecord((3, 3), 8, 1.0))
        assert engine.prune_idle(2) == 0
        assert engine.tracked_cells == 2

    def test_pruned_cell_can_return(self, layers):
        engine = make_engine(layers)
        for t in range(4):
            engine.ingest(StreamRecord((3, 3), t, 1.0))
            engine.ingest(StreamRecord((0, 0), t, 1.0))
        for t in range(4, 12):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
        engine.advance_to(12)
        engine.prune_idle(2)
        engine.ingest(StreamRecord((3, 3), 12, 2.0))
        engine.advance_to(16)
        frame = engine.frame_of((3, 3))
        assert len(frame.slots("quarter")) == 4  # zero-backfilled + live

    def test_validation(self, layers):
        engine = make_engine(layers)
        with pytest.raises(StreamError):
            engine.prune_idle(0)

    def test_noop_before_any_seal(self, layers):
        engine = make_engine(layers)
        engine.ingest(StreamRecord((0, 0), 0, 1.0))
        assert engine.prune_idle(4) == 0


class TestContinuousOperation:
    def test_long_run_promotions_and_windows(self, layers):
        """Stream a full 'day' (96 small quarters) and query at coarse
        granularity — the Section 4.5 loop end to end."""
        engine = make_engine(layers, tpq=2)
        t = 0
        for _ in range(96):
            for _ in range(2):
                engine.ingest(StreamRecord((0, 0), t, 1.0 + 0.01 * t))
                t += 1
        engine.advance_to(t)
        frame = engine.frame_of((0, 0))
        assert len(frame.slots("hour")) > 0
        # A perfectly linear stream keeps slope 0.01 at every granularity.
        hour = frame.slots("hour")[-1]
        assert math.isclose(hour.slope, 0.01, rel_tol=1e-9)

    def test_key_fn_rolls_up_primitive_records(self, layers):
        """The engine maps primitive ids to m-layer cells via key_fn."""
        mapping = {"sensorA": (0, 0), "sensorB": (3, 3)}
        engine = StreamCubeEngine(
            layers,
            GlobalSlopeThreshold(0.0),
            key_fn=lambda r: mapping[r.values[0]],
            ticks_per_quarter=4,
            frame_levels=[TiltLevelSpec("quarter", 4, 8)],
        )
        for t in range(8):
            engine.ingest(StreamRecord(("sensorA",), t, 1.0))
            engine.ingest(StreamRecord(("sensorB",), t, 2.0))
        engine.advance_to(8)
        assert engine.tracked_cells == 2
        assert set(engine.m_cells(2)) == {(0, 0), (3, 3)}
