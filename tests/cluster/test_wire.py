"""The wire protocol: framing, method codecs, errors, classification.

The equivalence guarantee of the process backend rests on every codec
being an exact inverse — ISBs, engine states and records must round-trip
the wire *bit-identically* (Python's shortest-repr float JSON encoding
makes that possible; these tests pin it down).
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.cluster import wire
from repro.errors import ServiceError, StreamError
from repro.regression import kernels
from repro.stream.engine import StreamCubeEngine
from repro.stream.records import StreamRecord

from tests.cluster.conftest import TPQ, workload


def segment(quarter, keys, group, ticks, z):
    """One coded ``(quarter, keys, group, ticks, z)`` ingest segment."""
    return (
        quarter,
        keys,
        kernels.int_column(group),
        kernels.int_column(ticks),
        kernels.float_column(z),
    )


def plain(segments):
    return [
        (quarter, keys, group.tolist(), ticks.tolist(), z.tolist())
        for quarter, keys, group, ticks, z in segments
    ]


class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"id": 7, "m": "ping", "a": [], "z": [1.5, "x", None]}
            wire.send_frame(a, payload)
            assert wire.recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_many_frames_in_order(self):
        a, b = socket.socketpair()
        try:
            for i in range(20):
                wire.send_frame(a, {"id": i})
            for i in range(20):
                assert wire.recv_frame(b) == {"id": i}
        finally:
            a.close()
            b.close()

    def test_clean_close_yields_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert wire.recv_frame(b) is None
        finally:
            b.close()

    def test_close_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # A header promising bytes that never arrive.
            a.sendall(struct.pack(">I", 100) + b"partial")
            a.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                wire.recv_frame(b)
        finally:
            b.close()

    def test_oversized_header_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", wire.MAX_FRAME + 1))
            with pytest.raises(ConnectionError, match="MAX_FRAME"):
                wire.recv_frame(b)
        finally:
            a.close()
            b.close()


class TestArgCodecs:
    def test_apply_segments_round_trip(self):
        segments = [
            segment(0, [(1, "a")], [0, 0, 0], [0, 1, 1], [0.5, -1.25, 3.0]),
            segment(1, [(2, "b"), (1, "a")], [0, 1, 0], [5, 4, 6], [0.1, 2.0, 0.2]),
        ]
        payload = json.loads(
            json.dumps(wire.encode_args("apply_segments", (segments, 6)))
        )
        decoded, n_records = wire.decode_args("apply_segments", payload)
        assert n_records == 6
        # Key order and record order are part of the contract.
        assert plain(decoded) == plain(segments)

    def test_validate_segment_keys_round_trip(self):
        segments = [segment(2, [(0, 0)], [0], [8], [1.0])]
        payload = wire.encode_args("validate_segment_keys", (segments,))
        (decoded,) = wire.decode_args("validate_segment_keys", payload)
        assert plain(decoded) == plain(segments)

    def test_ingest_record_round_trip(self):
        record = StreamRecord((3, 7), 11, -0.1234567890123456789)
        payload = wire.encode_args("ingest", (record,))
        (decoded,) = wire.decode_args("ingest", payload)
        assert decoded == record
        assert decoded.z == record.z  # bit-exact float

    def test_load_state_round_trip(self, layers, policy):
        engine = StreamCubeEngine(
            layers, policy, ticks_per_quarter=TPQ
        )
        engine.ingest_many(workload(5, quarters=3))
        engine.advance_to(3 * TPQ)
        state = engine.snapshot()
        payload = wire.encode_args("load_state", (state,))
        (decoded,) = wire.decode_args("load_state", payload)
        fresh = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        fresh.load_state(decoded)
        assert fresh.m_cells(3) == engine.m_cells(3)
        assert fresh.records_ingested == engine.records_ingested

    def test_plain_args_pass_through(self):
        assert wire.decode_args(
            "advance_to", wire.encode_args("advance_to", (42,))
        ) == (42,)
        assert wire.decode_args("ping", wire.encode_args("ping", ())) == ()


class TestResultCodecs:
    @staticmethod
    def round_trip(value):
        payload = json.loads(json.dumps(wire.encode_result("window_columns", value)))
        return wire.decode_result("window_columns", payload)

    @staticmethod
    def assert_same_columns(got, expected):
        for name in ("t_b", "t_e", "base", "slope"):
            assert getattr(got, name).tolist() == getattr(expected, name).tolist()

    def test_window_columns_bit_identical(self, layers, policy):
        engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        engine.ingest_many(workload(9, quarters=4))
        engine.advance_to(4 * TPQ)
        generation, keys, isbs = engine.window_columns(0, 4 * TPQ - 1)
        assert keys  # non-trivial fixture
        got = self.round_trip((generation, keys, isbs))
        assert got[:2] == (generation, keys)
        self.assert_same_columns(got[2], isbs)
        # A known generation: only the floats travel.
        known = engine.window_columns(TPQ, 2 * TPQ - 1, [generation])
        assert known[1] is None
        got = self.round_trip(known)
        assert got[:2] == (generation, None)
        self.assert_same_columns(got[2], known[2])

    def test_empty_window_columns_round_trip(self, layers, policy):
        engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        engine.advance_to(TPQ)
        generation, keys, isbs = self.round_trip(engine.window_columns(0, TPQ - 1))
        assert (generation, keys, len(isbs)) == (engine.cell_generation, [], 0)

    def test_snapshot_result_round_trip(self, layers, policy):
        engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        engine.ingest_many(workload(9, quarters=2))
        engine.advance_to(2 * TPQ)
        state = engine.snapshot()
        decoded = wire.decode_result(
            "snapshot", wire.encode_result("snapshot", state)
        )
        fresh = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        fresh.load_state(decoded)
        assert fresh.m_cells(2) == engine.m_cells(2)

    def test_scalar_results_pass_through(self):
        assert wire.decode_result(
            "prune_idle", wire.encode_result("prune_idle", 3)
        ) == 3
        assert wire.decode_result(
            "ping", wire.encode_result("ping", None)
        ) is None


class TestErrorTransport:
    def test_domain_error_round_trips_by_type(self):
        frame = wire.error_to_wire(StreamError("quarter went backwards"))
        rebuilt = wire.error_from_wire(frame["t"], frame["e"])
        assert isinstance(rebuilt, StreamError)
        assert str(rebuilt) == "quarter went backwards"

    def test_unknown_type_degrades_to_service_error(self):
        frame = wire.error_to_wire(ValueError("boom"))
        rebuilt = wire.error_from_wire(frame["t"], frame["e"])
        assert isinstance(rebuilt, ServiceError)
        assert "ValueError" in str(rebuilt)
        assert "boom" in str(rebuilt)

    def test_non_error_attribute_not_resurrected(self):
        # ``errors`` module attributes that are not ReproError subclasses
        # (e.g. ``Exception`` itself is absent, but guard the lookup path).
        rebuilt = wire.error_from_wire("__name__", "x")
        assert isinstance(rebuilt, ServiceError)


class TestClassification:
    def test_reads_and_snapshot_writes_are_idempotent(self):
        for method in (
            "window_columns",
            "snapshot",
            "snapshot_to_file",
            "storage_stats",
            "compact_storage",
            "drop_page_cache",
            "validate_segment_keys",
            "ping",
        ):
            assert wire.classify(method) == wire.IDEMPOTENT

    def test_journaled_mutations_are_replay_covered(self):
        for method in ("apply_segments", "ingest", "advance_to"):
            assert wire.classify(method) == wire.REPLAY_COVERED

    def test_everything_else_is_unrecoverable(self):
        for method in ("prune_idle", "load_state", "_arm_fault", "nope"):
            assert wire.classify(method) == wire.UNRECOVERABLE

    def test_window_columns_is_the_only_window_method(self):
        """Every merged view is assembled parent-side from ``window_columns``:
        no other analysis method of the engine crosses the wire."""
        from repro.cluster.worker import _ENGINE_METHODS

        analysis = {
            "window_columns",
            "window_isbs",
            "m_cells",
            "refresh",
            "change_exceptions",
            "change_exceptions_between",
            "o_layer_change_exceptions",
        }
        assert analysis & _ENGINE_METHODS == {"window_columns"}
        assert analysis & wire._IDEMPOTENT_METHODS == {"window_columns"}
        assert not hasattr(wire, "_CELL_RESULTS")
