"""Engine snapshot/restore: bit-identical state extraction and re-loading.

The durability contract of :mod:`repro.stream.state`: ``snapshot()`` at any
moment — mid-quarter included — then ``restore()`` (optionally through the
JSON codec) yields an engine whose every observable (window ISBs, the
refresh run over them, pending accumulators, counters, pruning behaviour) is
bit-identical to the original, and whose *future* (continuing to ingest the
same records) is bit-identical too.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.hierarchy import FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import CodecError, SchemaError, StreamError, TiltFrameError
from repro.io import (
    engine_state_from_dict,
    engine_state_to_dict,
    frame_from_dict,
    frame_to_dict,
    tilt_level_from_dict,
    tilt_level_to_dict,
)
from repro.stream.engine import StreamCubeEngine, run_cubing
from repro.stream.records import StreamRecord
from repro.tilt.frame import TiltLevelSpec, TiltPages, TiltTimeFrame
from tests.conftest import state_rows

TPQ = 4


def build_layers() -> CriticalLayers:
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 3)),
            Dimension("b", FanoutHierarchy("b", 2, 3)),
        ]
    )
    return CriticalLayers(schema, m_coord=(2, 2), o_coord=(1, 1))


def make_engine(layers=None) -> StreamCubeEngine:
    return StreamCubeEngine(
        layers if layers is not None else build_layers(),
        GlobalSlopeThreshold(0.1),
        ticks_per_quarter=TPQ,
    )


def random_records(seed: int, n: int, quarters: int) -> list[StreamRecord]:
    rng = random.Random(seed)
    out = []
    ticks = sorted(rng.randrange(quarters * TPQ) for _ in range(n))
    for t in ticks:
        values = (rng.randrange(9), rng.randrange(9))
        out.append(StreamRecord(values, t, rng.uniform(-2.0, 5.0)))
    return out


def first_row(state):
    """``state`` cut down to its first cell (its pages stay whole)."""
    return dataclasses.replace(
        state,
        keys=state.keys[:1],
        sums=state.sums[:1],
        present=state.present[:1],
        last_active=state.last_active[:1],
        cold_since=state.cold_since[:1],
    )


def assert_engines_identical(a: StreamCubeEngine, b: StreamCubeEngine) -> None:
    assert a.current_quarter == b.current_quarter
    assert a.records_ingested == b.records_ingested
    state_a = a.snapshot()
    assert state_rows(state_a) == state_rows(b.snapshot())
    for key in state_a.keys:
        fa, fb = a.frame_of(key), b.frame_of(key)
        assert list(fa.all_slots()) == list(fb.all_slots())
        assert fa.now == fb.now
        assert fa.evicted_slots == fb.evicted_slots


class TestTiltFrameCodec:
    def test_round_trip_bit_identical(self):
        frame = TiltTimeFrame(
            [TiltLevelSpec("q", 4, 4), TiltLevelSpec("h", 16, 6)], origin=0
        )
        rng = random.Random(3)
        from repro.regression.isb import ISB

        for i in range(23):
            lo = i * 4
            frame.insert(ISB(lo, lo + 3, rng.uniform(-1, 1), rng.uniform(-1, 1)))
        back = frame_from_dict(frame_to_dict(frame))
        assert list(back.all_slots()) == list(frame.all_slots())
        assert back.now == frame.now
        assert back.origin == frame.origin
        assert back.evicted_slots == frame.evicted_slots
        assert back.aligned_with(frame)

    def test_json_survives_floats(self):
        frame = TiltTimeFrame([TiltLevelSpec("q", 1, 8)])
        from repro.regression.isb import ISB

        frame.insert(ISB(0, 0, 0.1 + 0.2, -1e-17))
        wire = json.loads(json.dumps(frame_to_dict(frame)))
        back = frame_from_dict(wire)
        assert list(back.all_slots()) == list(frame.all_slots())

    def test_level_spec_round_trip(self):
        spec = TiltLevelSpec("day", 96, 31)
        assert tilt_level_from_dict(tilt_level_to_dict(spec)) == spec

    def test_shared_levels_identity(self):
        frame = TiltTimeFrame([TiltLevelSpec("q", 4, 4)])
        levels = frame.levels
        back = frame_from_dict(frame_to_dict(frame), levels=levels)
        assert back.levels is levels

    def test_shared_levels_mismatch_raises(self):
        frame = TiltTimeFrame([TiltLevelSpec("q", 4, 4)])
        with pytest.raises(CodecError, match="do not match"):
            frame_from_dict(
                frame_to_dict(frame), levels=(TiltLevelSpec("q", 8, 4),)
            )

    def test_over_capacity_slots_rejected(self):
        frame = TiltTimeFrame([TiltLevelSpec("q", 1, 2)])
        from repro.regression.isb import ISB

        frame.insert(ISB(0, 0, 1.0, 0.0))
        payload = frame_to_dict(frame)
        payload["slots"][0] = payload["slots"][0] * 5
        with pytest.raises(CodecError):
            frame_from_dict(payload)


class TestEngineSnapshot:
    def test_round_trip_in_memory(self):
        engine = make_engine()
        engine.ingest_many(random_records(1, 200, 5))
        restored = StreamCubeEngine.restore(
            engine.snapshot(), engine.layers, engine.policy
        )
        assert_engines_identical(engine, restored)

    def test_round_trip_through_json(self):
        engine = make_engine()
        engine.ingest_many(random_records(2, 150, 4))
        wire = json.loads(json.dumps(engine_state_to_dict(engine.snapshot())))
        restored = StreamCubeEngine.restore(
            engine_state_from_dict(wire), engine.layers, engine.policy
        )
        assert_engines_identical(engine, restored)

    def test_snapshot_is_independent_of_live_engine(self):
        engine = make_engine()
        records = random_records(3, 120, 4)
        engine.ingest_many(records[:60])
        state = engine.snapshot()
        before = engine_state_to_dict(state)
        engine.ingest_many(records[60:])  # mutate the live engine
        engine.advance_to(4 * TPQ)
        assert engine_state_to_dict(state) == before

    def test_restore_under_wrong_schema_raises(self):
        engine = make_engine()
        engine.ingest_many(random_records(4, 50, 3))
        schema = CubeSchema([Dimension("a", FanoutHierarchy("a", 2, 3))])
        other = CriticalLayers(schema, m_coord=(2,), o_coord=(1,))
        with pytest.raises(SchemaError):
            StreamCubeEngine.restore(engine.snapshot(), other, engine.policy)

    def test_restore_under_wrong_ticks_per_quarter_raises(self):
        engine = make_engine()
        engine.ingest_many(random_records(5, 50, 3))
        other = StreamCubeEngine(
            engine.layers, engine.policy, ticks_per_quarter=TPQ + 1
        )
        with pytest.raises(StreamError, match="ticks_per_quarter"):
            other.load_state(engine.snapshot())

    def test_inconsistent_snapshots_are_refused(self):
        """A desynced clock, or pages with rows no cell owns, never load."""
        engine = make_engine()
        engine.ingest_many(random_records(6, 80, 4))
        state = engine.snapshot()
        stale = state.tilt.copy()
        stale.clock._next_tick += TPQ  # desync the clock
        with pytest.raises(StreamError, match="disagrees"):
            StreamCubeEngine.restore(
                dataclasses.replace(state, tilt=stale),
                engine.layers,
                engine.policy,
            )
        with pytest.raises(StreamError, match="rows for"):
            StreamCubeEngine.restore(
                first_row(state), engine.layers, engine.policy
            )

    @pytest.mark.parametrize("column", ["sums", "present", "last_active"])
    def test_columns_out_of_shape_with_the_keys_are_refused(self, column):
        """A hand-built state whose columns disagree with ``keys`` (or
        with ``ticks_per_quarter``) never loads, and the engine it was
        offered to stays exactly as it was."""
        engine = make_engine()
        engine.ingest_many(random_records(12, 80, 4))
        state = engine.snapshot()
        target = make_engine()
        target.ingest_many(random_records(13, 40, 4))
        before = engine_state_to_dict(target.snapshot())
        generation = target.cell_generation
        full = getattr(state, column)
        for bad in (full[:-1], full[:, :-1] if full.ndim == 2 else full[:, None]):
            with pytest.raises(StreamError, match="shapes"):
                target.load_state(dataclasses.replace(state, **{column: bad}))
        assert engine_state_to_dict(target.snapshot()) == before
        assert target.cell_generation == generation

    def test_a_key_listed_twice_is_refused(self):
        engine = make_engine()
        engine.ingest_many(random_records(14, 80, 4))
        state = engine.snapshot()
        before = engine_state_to_dict(state)
        twice = dataclasses.replace(state, keys=(state.keys[0],) * len(state.keys))
        with pytest.raises(StreamError, match="twice"):
            engine.load_state(twice)
        assert engine_state_to_dict(engine.snapshot()) == before

    def test_a_snapshot_shares_page_columns_instead_of_copying_them(self):
        engine = make_engine()
        engine.ingest_many(random_records(7, 100, 4))
        state = engine.snapshot()
        for level in range(len(state.frame_levels)):
            for mine, theirs in zip(
                engine._tilt.pages(level), state.tilt.pages(level)
            ):
                assert mine[0] is theirs[0] and mine[1] is theirs[1]

    def test_prune_composes_with_restore(self):
        """Pruned cells stay pruned; last_active_quarter survives."""
        engine = make_engine()
        active, idle = (0, 0), (8, 8)
        engine.ingest(StreamRecord(idle, 1, 1.0))
        for q in range(8):
            engine.ingest(StreamRecord(active, q * TPQ, 2.0))
        engine.advance_to(8 * TPQ)
        dropped = engine.prune_idle(4)
        assert dropped == 1
        restored = StreamCubeEngine.restore(
            engine_state_from_dict(
                json.loads(
                    json.dumps(engine_state_to_dict(engine.snapshot()))
                )
            ),
            engine.layers,
            engine.policy,
        )
        assert idle not in restored.snapshot().keys

        def last_active(state):
            return state.last_active[state.keys.index(active)]

        assert last_active(restored.snapshot()) == last_active(engine.snapshot())
        # Pruning again on the restored engine drops nothing new.
        assert restored.prune_idle(4) == 0


def v1_payload(engine: StreamCubeEngine) -> dict:
    """The pre-packed (version 1) wire shape of an engine's snapshot."""
    state = engine.snapshot()
    payload = engine_state_to_dict(state)
    payload["version"] = 1
    lo = state.current_quarter * state.ticks_per_quarter
    payload["cells"] = [
        {
            "values": list(values),
            "frame": frame_to_dict(engine.frame_of(values)),
            "tick_sums": [
                [lo + j, z]
                for j, z in enumerate(state.sums[row].tolist())
                if state.present[row, j]
            ],
            "last_active_quarter": int(state.last_active[row]),
        }
        for row, values in enumerate(state.keys)
    ]
    return payload


class TestPackedStateCodec:
    """Format version 2: packed base64 slot columns, and nothing else."""

    def loaded_engine(self, seed=9) -> StreamCubeEngine:
        engine = make_engine()
        engine.ingest_many(random_records(seed, 150, 6))
        return engine

    def test_version_2_rows_are_packed(self):
        payload = engine_state_to_dict(self.loaded_engine().snapshot())
        assert payload["version"] == 2
        assert payload["cells"]
        for row in payload["cells"]:
            assert set(row) <= {"v", "s", "q", "t", "c"}
            assert isinstance(row["s"], str)

    def test_version_1_payload_is_refused_by_version(self):
        # Re-snapshot is the migration: the verbose decoder is gone.
        wire = json.loads(json.dumps(v1_payload(self.loaded_engine())))
        with pytest.raises(CodecError, match="unsupported version 1"):
            engine_state_from_dict(wire)

    def test_verbose_rows_under_the_current_version_are_refused(self):
        wire = v1_payload(self.loaded_engine())
        wire["version"] = 2
        with pytest.raises(CodecError, match="engine_state"):
            engine_state_from_dict(wire)

    def test_rows_no_cell_owns_are_refused_by_the_encoder(self):
        state = self.loaded_engine().snapshot()
        with pytest.raises(CodecError, match="rows for"):
            engine_state_to_dict(first_row(state))

    def test_pages_out_of_step_with_the_clock_are_refused(self):
        state = self.loaded_engine().snapshot()
        pages = [list(state.tilt.pages(i)) for i in range(len(state.frame_levels))]
        pages[0].pop()
        with pytest.raises(TiltFrameError, match="pages"):
            TiltPages(state.tilt.clock, pages)

    def test_packed_form_is_substantially_smaller(self):
        engine = self.loaded_engine()
        packed = len(json.dumps(engine_state_to_dict(engine.snapshot())))
        verbose = len(json.dumps(v1_payload(engine)))
        assert packed < verbose / 2

    def test_unknown_version_rejected(self):
        payload = engine_state_to_dict(self.loaded_engine().snapshot())
        payload["version"] = 3
        with pytest.raises(CodecError, match="version"):
            engine_state_from_dict(payload)

    def test_torn_slot_blob_rejected(self):
        payload = engine_state_to_dict(self.loaded_engine().snapshot())
        payload["cells"][0]["s"] = payload["cells"][0]["s"][: -12]
        with pytest.raises(CodecError):
            engine_state_from_dict(payload)

    def test_garbage_base64_rejected(self):
        payload = engine_state_to_dict(self.loaded_engine().snapshot())
        payload["cells"][0]["s"] = "!!!not base64!!!"
        with pytest.raises(CodecError):
            engine_state_from_dict(payload)

    def test_torn_accumulator_column_rejected(self):
        engine = self.loaded_engine()
        payload = engine_state_to_dict(engine.snapshot())
        row = next(r for r in payload["cells"] if "t" in r)
        import base64

        raw = base64.b64decode(row["t"])
        row["t"] = base64.b64encode(raw[:-3]).decode("ascii")
        with pytest.raises(CodecError, match="torn"):
            engine_state_from_dict(payload)

    def test_duplicate_cell_rejected(self):
        payload = engine_state_to_dict(self.loaded_engine().snapshot())
        payload["cells"].append(dict(payload["cells"][0]))
        with pytest.raises(CodecError, match="duplicate"):
            engine_state_from_dict(payload)

    @pytest.mark.parametrize("offset", [-1, TPQ])
    def test_open_tick_outside_the_current_quarter_rejected(self, offset):
        import base64
        import struct

        engine = make_engine()
        engine.ingest_many(random_records(10, 60, 3))
        engine.ingest(StreamRecord((0, 0), 3 * TPQ + 1, 1.5))  # mid-quarter
        payload = engine_state_to_dict(engine.snapshot())
        row = next(r for r in payload["cells"] if "t" in r)
        tick = payload["current_quarter"] * TPQ + offset
        row["t"] = base64.b64encode(
            base64.b64decode(row["t"]) + struct.pack("<qd", tick, 1.0)
        ).decode("ascii")
        with pytest.raises(CodecError, match="outside the current quarter"):
            engine_state_from_dict(payload)

    def test_a_tick_listed_twice_keeps_its_last_sum(self):
        import base64
        import struct

        engine = make_engine()
        engine.ingest_many(random_records(10, 60, 3))
        engine.ingest(StreamRecord((0, 0), 3 * TPQ + 1, 1.5))
        payload = engine_state_to_dict(engine.snapshot())
        row = next(r for r in payload["cells"] if "t" in r)
        t, _ = struct.unpack("<qd", base64.b64decode(row["t"])[:16])
        row["t"] = base64.b64encode(
            base64.b64decode(row["t"]) + struct.pack("<qd", t, -0.0)
        ).decode("ascii")
        state = engine_state_from_dict(payload)
        r = state.keys.index(tuple(row["v"]))
        value = state.sums[r, t - 3 * TPQ]
        assert value == 0.0 and str(value) == "0.0"  # 0.0 + -0.0, last wins

    def test_parent_snapshot_files_re_encode_byte_for_byte(self):
        """Every shard file of ``fixtures/parent_snapshot``, decoded and
        encoded again the way a shard writes it, is the committed bytes."""
        snapshot = Path(__file__).parent / "fixtures" / "parent_snapshot" / "snapshot"
        files = sorted(snapshot.glob("shard-*.json"))
        assert files
        for path in files:
            text = path.read_text()
            again = json.dumps(engine_state_to_dict(engine_state_from_dict(json.loads(text))))
            assert again.encode() == path.read_bytes(), path.name


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=25, deadline=None)
def test_snapshot_restore_continue_is_bit_identical(seed, cut):
    """snapshot anywhere -> restore -> keep ingesting == uninterrupted run."""
    layers = build_layers()
    records = random_records(seed, 160, 5)
    split = max(1, int(len(records) * cut))
    uninterrupted = make_engine(layers)
    uninterrupted.ingest_many(records)
    uninterrupted.advance_to(5 * TPQ)

    first = make_engine(layers)
    first.ingest_many(records[:split])
    state = engine_state_from_dict(
        json.loads(json.dumps(engine_state_to_dict(first.snapshot())))
    )
    resumed = StreamCubeEngine.restore(
        state, layers, GlobalSlopeThreshold(0.1)
    )
    resumed.ingest_many(records[split:])
    resumed.advance_to(5 * TPQ)
    assert_engines_identical(uninterrupted, resumed)
    assert resumed.window_isbs(0, 5 * TPQ - 1) == uninterrupted.window_isbs(
        0, 5 * TPQ - 1
    )
    # The refresh a cube over either engine runs: m/o-cubing on its window.
    ru, rr = (
        run_cubing(layers, engine.m_cells(4), engine.policy)
        for engine in (uninterrupted, resumed)
    )
    assert rr.o_layer_exceptions() == ru.o_layer_exceptions()
    assert rr.retained_exceptions == ru.retained_exceptions
