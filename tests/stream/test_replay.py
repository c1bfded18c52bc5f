"""Tests for record capture and replay."""

from __future__ import annotations

import pytest

from repro.errors import StreamError
from repro.stream.power_grid import PowerGridConfig, PowerGridSimulator
from repro.stream.records import StreamRecord
from repro.stream.replay import capture, replay_records, write_records


@pytest.fixture
def records():
    return [
        StreamRecord(("u1", "a1"), 0, 1.5),
        StreamRecord(("u2", "a1"), 0, 2.0),
        StreamRecord(("u1", "a1"), 1, 1.75),
    ]


class TestWriteReplay:
    def test_round_trip(self, tmp_path, records):
        path = tmp_path / "stream.jsonl"
        assert write_records(records, path) == 3
        assert list(replay_records(path)) == records

    def test_empty_lines_skipped(self, tmp_path, records):
        path = tmp_path / "stream.jsonl"
        write_records(records, path)
        path.write_text(path.read_text() + "\n\n")
        assert list(replay_records(path)) == records

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"values": ["u1"], "t": 0, "z": 1.0}\nnot-json\n')
        with pytest.raises(StreamError, match="bad.jsonl:2"):
            list(replay_records(path))

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"values": ["u1"], "t": 0}\n')
        with pytest.raises(StreamError):
            list(replay_records(path))

    def test_lazy_iteration(self, tmp_path, records):
        path = tmp_path / "stream.jsonl"
        write_records(records, path)
        it = replay_records(path)
        assert next(it) == records[0]


class TestCapture:
    def test_tee_passes_through_and_persists(self, tmp_path, records):
        path = tmp_path / "tee.jsonl"
        tee = capture(iter(records), path)
        passed = list(tee)
        assert passed == records
        assert tee.written == 3
        assert list(replay_records(path)) == records

    def test_replayed_engine_run_is_identical(self, tmp_path):
        """Capture a live simulation, replay it, get identical cube state."""
        from repro.cubing.policy import GlobalSlopeThreshold
        from repro.stream.engine import StreamCubeEngine
        from repro.tilt.frame import TiltLevelSpec

        sim = PowerGridSimulator(
            PowerGridConfig(
                n_cities=1,
                blocks_per_city=2,
                addresses_per_block=1,
                users_per_address=1,
                seed=7,
            )
        )
        layers = sim.layers()

        def fresh_engine():
            return StreamCubeEngine(
                layers,
                GlobalSlopeThreshold(0.0),
                key_fn=sim.m_key_fn(),
                ticks_per_quarter=15,
                frame_levels=[TiltLevelSpec("quarter", 15, 8)],
            )

        path = tmp_path / "session.jsonl"
        live = fresh_engine()
        for record in capture(sim.records(30), path):
            live.ingest(record)
        live.advance_to(30)

        replayed = fresh_engine()
        replayed.ingest_many(replay_records(path))
        replayed.advance_to(30)

        assert live.m_cells(2) == replayed.m_cells(2)


class TestEmptyStreams:
    def test_write_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_records([], path) == 0
        assert path.exists()
        assert list(replay_records(path)) == []

    def test_replay_blank_lines_only(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n\n")
        assert list(replay_records(path)) == []

    def test_capture_empty_iterator(self, tmp_path):
        path = tmp_path / "empty-tee.jsonl"
        tee = capture(iter([]), path)
        assert list(tee) == []
        assert tee.written == 0
        assert list(replay_records(path)) == []

    def test_replayed_empty_stream_leaves_engine_untouched(self, tmp_path):
        from repro.cubing.policy import GlobalSlopeThreshold
        from repro.stream.engine import StreamCubeEngine
        from repro.stream.generator import DatasetSpec

        path = tmp_path / "empty.jsonl"
        write_records([], path)
        engine = StreamCubeEngine(
            DatasetSpec(2, 2, 3, 1).build_layers(),
            GlobalSlopeThreshold(0.1),
            ticks_per_quarter=4,
        )
        engine.ingest_many(replay_records(path))
        assert engine.records_ingested == 0
        assert engine.tracked_cells == 0
