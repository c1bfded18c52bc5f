"""The columnar ingest path against record-at-a-time ``ingest``.

Batches travel as columns from the door to the page: interned into coded
segments, routed per distinct key, applied as one ordered scatter-add into
the flat open quarter, sealed from its ``present`` mask.  The reference is
the path that does none of that — :meth:`StreamCubeEngine.ingest`, one
scalar ``+=`` per record — and everything observable must agree with it
*exactly*: ``snapshot()`` field for field (cell order, open per-tick sums,
activity markers, every retained slot) and ``window_isbs`` bit for bit, for
a single engine and for sharded cubes of 1, 2 and 7 shards.

Values are drawn from magnitudes whose sum depends on the order of
addition, two hot cells take most of the duplicates, batches start and stop
mid-quarter or span several, cells are born mid-batch, pruned and revived,
and a custom ``key_fn`` rolls primitive values up on arrival.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import HierarchyError, StreamError
from repro.io import engine_state_from_dict, engine_state_to_dict
from repro.service.sharding import ShardedStreamCube, stable_shard_index
from repro.stream.engine import MAX_QUARTERS_AHEAD, StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import RecordColumns, StreamRecord
from repro.stream.state import CellSnapshot, EngineState
from repro.stream.wal import QuarterWAL

LAYERS = DatasetSpec(2, 2, 3, 1).build_layers()
POLICY = GlobalSlopeThreshold(0.05)
#: Sums of these depend on the order they are added in.
MAGNITUDES = (1e16, 1.0, -1e16, 0.1, 3.0, 1e-8, -2.5, 7e15)


def rolled_up(record: StreamRecord) -> tuple[int, int]:
    """A custom ``key_fn``: primitive readings carry a third value (a
    meter id, say) that the m-layer does not keep."""
    return record.values[:2]


Step = tuple[str, object]


def workload(seed: int, tpq: int, primitive: bool) -> list[Step]:
    """Batches, clock advances and prunes, quarter-ordered."""
    rng = random.Random(seed)
    steps: list[Step] = []
    quarter = 0
    for _ in range(rng.randrange(3, 12)):
        kind = rng.random()
        if kind < 0.75:
            span = rng.choice((1, 1, 1, 2, 4))
            batch = []
            for dq in range(span):
                for _ in range(rng.randrange(0, 25)):
                    key = (
                        (0, rng.randrange(2))
                        if rng.random() < 0.4
                        else (rng.randrange(9), rng.randrange(9))
                    )
                    if primitive:
                        key = (*key, rng.randrange(100))
                    tick = (quarter + dq) * tpq + rng.randrange(tpq)
                    batch.append(StreamRecord(key, tick, rng.choice(MAGNITUDES)))
            steps.append(("batch", batch))
            # Half the time the next batch lands in the quarter this one
            # stopped in: several batches per quarter.
            quarter += span - 1 if rng.random() < 0.5 else span
        elif kind < 0.9:
            quarter += rng.randrange(1, 6)
            steps.append(("advance", quarter * tpq))
        else:
            steps.append(("prune", rng.randrange(1, 4)))
    return steps


def reference_engine(steps: list[Step], tpq: int, key_fn) -> StreamCubeEngine:
    engine = StreamCubeEngine(LAYERS, POLICY, key_fn=key_fn, ticks_per_quarter=tpq)
    for kind, arg in steps:
        if kind == "batch":
            for record in arg:
                engine.ingest(record)
        elif kind == "advance":
            engine.advance_to(arg)
        else:
            engine.prune_idle(arg)
    return engine


def drive(target, steps: list[Step]) -> None:
    ingest = getattr(target, "ingest_batch", None) or target.ingest_many
    for kind, arg in steps:
        if kind == "batch":
            ingest(arg)
        elif kind == "advance":
            target.advance_to(arg)
        else:
            target.prune_idle(arg)


def slots_of(state: EngineState, row: int) -> list:
    frame = state.tilt.frame_of(row)
    return [frame.now, frame.evicted_slots, *frame.all_slots()]


def assert_states_equal(actual: EngineState, expected: EngineState) -> None:
    """Field for field; the page store row by row, through ``frame_of``."""
    for field in dataclasses.fields(EngineState):
        if field.name not in ("tilt", "cells"):
            assert getattr(actual, field.name) == getattr(expected, field.name), field.name
    # Same cells, born in the same order, same open sums bit for bit.
    assert list(actual.cells.items()) == list(expected.cells.items())
    for row in range(len(expected.cells)):
        assert slots_of(actual, row) == slots_of(expected, row)


def last_window(engine: StreamCubeEngine) -> tuple[int, int] | None:
    if engine.current_quarter == 0:
        return None
    tpq = engine.ticks_per_quarter
    sealed = min(engine.current_quarter, 4)
    return (engine.current_quarter - sealed) * tpq, engine.current_quarter * tpq - 1


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    tpq=st.sampled_from((1, 3, 4)),
    primitive=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_batches_equal_record_at_a_time(seed, tpq, primitive):
    key_fn = rolled_up if primitive else None
    steps = workload(seed, tpq, primitive)
    reference = reference_engine(steps, tpq, key_fn)
    engine = StreamCubeEngine(LAYERS, POLICY, key_fn=key_fn, ticks_per_quarter=tpq)
    drive(engine, steps)
    assert_states_equal(engine.snapshot(), reference.snapshot())
    # Cells were born at the same seals: no page is a row longer or shorter.
    assert engine.snapshot().tilt.max_rows == reference.snapshot().tilt.max_rows
    window = last_window(reference)
    if window is not None:
        assert engine.window_isbs(*window) == reference.window_isbs(*window)
    # ... and the codec still round-trips what the columns hold.
    wire = json.loads(json.dumps(engine_state_to_dict(engine.snapshot())))
    assert_states_equal(engine_state_from_dict(wire), reference.snapshot())


def assert_cube_equals_reference(
    cube: ShardedStreamCube, reference: StreamCubeEngine
) -> None:
    expected = reference.snapshot()
    states = cube._backend.broadcast("snapshot")
    n = len(states)
    assert sum(state.records_ingested for state in states) == expected.records_ingested
    for shard, state in enumerate(states):
        assert state.current_quarter == expected.current_quarter
        owned = [
            (row, key)
            for row, key in enumerate(expected.cells)
            if stable_shard_index(key, n) == shard
        ]
        # The shard bore its cells in the order the single engine did.
        assert list(state.cells.items()) == [
            (key, expected.cells[key]) for _, key in owned
        ]
        for shard_row, (row, _) in enumerate(owned):
            assert slots_of(state, shard_row) == slots_of(expected, row)
    window = last_window(reference)
    if window is not None:
        assert cube.window_isbs(*window) == reference.window_isbs(*window)


@pytest.mark.parametrize("n_shards", [1, 2, 7])
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    tpq=st.sampled_from((1, 3, 4)),
    primitive=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_inproc_cube_equals_record_at_a_time(n_shards, seed, tpq, primitive):
    key_fn = rolled_up if primitive else None
    steps = workload(seed, tpq, primitive)
    with ShardedStreamCube(
        LAYERS, POLICY, n_shards=n_shards, key_fn=key_fn, ticks_per_quarter=tpq
    ) as cube:
        drive(cube, steps)
        assert_cube_equals_reference(cube, reference_engine(steps, tpq, key_fn))


def test_columns_at_the_door_equal_records_at_the_door():
    steps = workload(5, 4, False)
    by_records = StreamCubeEngine(LAYERS, POLICY, ticks_per_quarter=4)
    by_columns = StreamCubeEngine(LAYERS, POLICY, ticks_per_quarter=4)
    drive(by_records, steps)
    drive(
        by_columns,
        [
            (kind, RecordColumns.of(arg) if kind == "batch" else arg)
            for kind, arg in steps
        ],
    )
    assert_states_equal(by_columns.snapshot(), by_records.snapshot())


# ----------------------------------------------------------------------
# State written by the parent's engine
# ----------------------------------------------------------------------
def test_a_mid_quarter_snapshot_decodes_to_the_state_the_parent_wrote():
    """``fixtures/parent_open_quarter/state.json`` is the codec form of a
    mid-quarter snapshot written by the last build with one ``_CellState``
    per cell, for the stream its ``make_fixture.py`` defines.  The columnar
    engine fed the same stream must encode to a payload that decodes to the
    same ``EngineState`` (the format and ``STATE_VERSION`` are unchanged;
    only the order of a cell's packed open ticks — arrival order there,
    ascending here — may differ, which decoding into a dict erases)."""
    fixture = Path(__file__).parent / "fixtures" / "parent_open_quarter"
    spec = importlib.util.spec_from_file_location(
        "make_open_quarter_fixture", fixture / "make_fixture.py"
    )
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)

    recorded = json.loads((fixture / "state.json").read_text())
    parent = engine_state_from_dict(recorded)
    assert any(cell.tick_sums for cell in parent.cells.values())  # mid-quarter

    engine = maker.build_engine()
    for batch in maker.batches():
        engine.ingest_many(batch)
    payload = json.loads(json.dumps(engine_state_to_dict(engine.snapshot())))
    assert_states_equal(engine_state_from_dict(payload), parent)

    def canonical(payload_state: EngineState) -> dict:
        cells = {
            key: CellSnapshot(
                dict(sorted(cell.tick_sums.items())),
                cell.last_active_quarter,
                cell.cold_since,
            )
            for key, cell in payload_state.cells.items()
        }
        return dataclasses.replace(payload_state, cells=cells).to_dict()

    # ... and with the open ticks put in one order, the same bytes.
    assert canonical(engine_state_from_dict(payload)) == canonical(parent)

    # The parent's state loads, and carries on exactly like the engine
    # that never stopped.
    restored = StreamCubeEngine.restore(parent, engine.layers, engine.policy)
    more = [StreamRecord((0, 1), 46, 1e16), StreamRecord((0, 1), 46, 1.0)]
    for target in (engine, restored):
        target.ingest_many(more)
        target.advance_to(12 * maker.TPQ)
    assert_states_equal(restored.snapshot(), engine.snapshot())


# ----------------------------------------------------------------------
# Whole-batch validation: nothing is touched before everything is checked
# ----------------------------------------------------------------------
def _seeded(target) -> None:
    drive(
        target,
        [
            ("batch", [StreamRecord((0, 0), t, 1.0 + t) for t in range(8)]),
            ("batch", [StreamRecord((1, 2), 8, 2.0)]),
        ],
    )


BAD_FOURTH = [
    StreamRecord((0, 0), 9, 1.0),
    StreamRecord((7, 7), 9, 1.0),  # born by this batch ...
    StreamRecord((8, 1), 10, 1.0),
    StreamRecord((0, 99), 10, 1.0),  # ... which an out-of-schema leaf sinks
    StreamRecord((2, 2), 11, 1.0),
]


def test_engine_rejects_an_out_of_schema_batch_whole_without_a_wal():
    engine = StreamCubeEngine(LAYERS, POLICY, ticks_per_quarter=4)
    _seeded(engine)
    before = engine_state_to_dict(engine.snapshot())
    with pytest.raises(HierarchyError):
        engine.ingest_many(BAD_FOURTH)
    assert engine_state_to_dict(engine.snapshot()) == before
    # A sealing record with a bad key seals nothing either.
    with pytest.raises(HierarchyError):
        engine.ingest(StreamRecord((0, 99), 40, 1.0))
    assert engine_state_to_dict(engine.snapshot()) == before


def _states(cube: ShardedStreamCube) -> list[dict]:
    """Every shard's engine state, encoded."""
    return [engine_state_to_dict(shard.snapshot()) for shard in cube.shards]


@pytest.mark.parametrize("journaled", [False, True])
def test_cube_rejects_an_out_of_schema_batch_whole(tmp_path, journaled):
    wal = QuarterWAL(tmp_path / "wal.jsonl") if journaled else None
    with ShardedStreamCube(
        LAYERS, POLICY, n_shards=2, ticks_per_quarter=4, wal=wal
    ) as cube:
        _seeded(cube)
        before, seq = _states(cube), wal.last_seq if journaled else 0
        with pytest.raises(HierarchyError):
            cube.ingest_batch(BAD_FOURTH)
        with pytest.raises(HierarchyError):
            cube.ingest(StreamRecord((0, 99), 40, 1.0))
        assert _states(cube) == before
        assert cube.tracked_cells == 2
        if journaled:
            assert wal.last_seq == seq
    if wal is not None:
        wal.close()


class TestSealHorizon:
    """One tick may not seal more than ``MAX_QUARTERS_AHEAD`` quarters."""

    FAR = (MAX_QUARTERS_AHEAD + 3) * 4

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_cube_refuses_before_journaling(self, tmp_path, n_shards):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        with ShardedStreamCube(
            LAYERS, POLICY, n_shards=n_shards, ticks_per_quarter=4, wal=wal
        ) as cube:
            _seeded(cube)
            shard = cube.shards[0]
            before, seq = _states(cube), wal.last_seq
            for attempt in (
                lambda: cube.ingest(StreamRecord((0, 0), self.FAR, 1.0)),
                lambda: cube.ingest_batch([StreamRecord((0, 0), self.FAR, 1.0)]),
                lambda: cube.advance_to(self.FAR),
                lambda: cube.advance_to(2**70),
                # A shard engine refuses on its own too.
                lambda: shard.ingest(StreamRecord((0, 0), self.FAR, 1.0)),
                lambda: shard.ingest_many([StreamRecord((0, 0), self.FAR, 1.0)]),
                lambda: shard.advance_to(self.FAR),
            ):
                with pytest.raises(StreamError, match="quarters ahead"):
                    attempt()
            assert _states(cube) == before
            assert cube.current_quarter == 2 and wal.last_seq == seq
            cube.advance_to((2 + MAX_QUARTERS_AHEAD) * 4)  # the horizon itself
            assert cube.current_quarter == 2 + MAX_QUARTERS_AHEAD
        wal.close()


class TestTickTypes:
    """A tick through the Python API is an ``int``: ``1.7`` is not truncated,
    ``"2"`` not parsed, ``True`` not counted — by the record path or the batch
    path, and before anything is journaled or born.  (The HTTP edge coerces
    on its own: ``tests/service/test_ingest_edge.py``.)"""

    BAD_TICKS = (9.7, 9.0, "9", True, None)

    @pytest.mark.parametrize("tick", BAD_TICKS)
    def test_engine_refuses_before_mutating(self, tick):
        engine = StreamCubeEngine(LAYERS, POLICY, ticks_per_quarter=4)
        _seeded(engine)
        before = engine_state_to_dict(engine.snapshot())
        bad = StreamRecord((5, 5), tick, 1.0)  # a cell the engine has not seen
        for attempt in (
            lambda: engine.ingest(bad),
            lambda: engine.ingest_many([bad]),
            lambda: engine.ingest_many([StreamRecord((0, 0), 9, 1.0), bad]),
        ):
            with pytest.raises(StreamError, match="tick must be an int"):
                attempt()
        assert engine_state_to_dict(engine.snapshot()) == before

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_cube_refuses_before_journaling(self, tmp_path, n_shards):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        with ShardedStreamCube(
            LAYERS, POLICY, n_shards=n_shards, ticks_per_quarter=4, wal=wal
        ) as cube:
            _seeded(cube)
            before, journal = _states(cube), wal.path.read_bytes()
            for tick in self.BAD_TICKS:
                bad = StreamRecord((5, 5), tick, 1.0)
                for attempt in (
                    lambda: cube.ingest(bad),
                    lambda: cube.ingest_batch([bad]),
                    lambda: cube.ingest_batch([StreamRecord((0, 0), 9, 1.0), bad]),
                ):
                    with pytest.raises(StreamError, match="tick must be an int"):
                        attempt()
            assert _states(cube) == before
            assert wal.path.read_bytes() == journal
        wal.close()

    def test_record_columns_refuse_at_the_door(self):
        with pytest.raises(StreamError, match="got float 1.7"):
            RecordColumns.of([StreamRecord((0, 0), 1.7, 1.0)])
