"""The quarter WAL: journal-before-apply, seq-gated replay, compaction.

The recovery contract: a cube snapshot taken at WAL sequence S plus a replay
of entries after S reproduces the uninterrupted cube bit for bit, at *any*
crash point — mid-quarter, between quarters, before or after an explicit
advance.  Compaction after a snapshot must never lose unsnapshotted
entries, and a torn final line (crash mid-append) must not poison recovery.
"""

from __future__ import annotations

import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import CodecError, StreamError, WalCorruptionError
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.stream.test_state import (
    TPQ,
    assert_engines_identical,
    build_layers,
    random_records,
)

POLICY = GlobalSlopeThreshold(0.1)


def make_cube(layers, wal: QuarterWAL | None = None) -> ShardedStreamCube:
    """A one-shard cube, the journal's owner (shard engines never journal)."""
    return ShardedStreamCube(
        layers, POLICY, n_shards=1, ticks_per_quarter=TPQ, wal=wal
    )


def assert_cubes_identical(a: ShardedStreamCube, b: ShardedStreamCube) -> None:
    assert a.n_shards == b.n_shards
    for shard_a, shard_b in zip(a.shards, b.shards):
        assert_engines_identical(shard_a, shard_b)


class TestJournal:
    def test_appends_assign_increasing_seqs(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        assert wal.last_seq == 0
        s1 = wal.append_batch([StreamRecord((1, 2), 0, 1.0)], 0)
        s2 = wal.append_advance(8, 2)
        assert (s1, s2) == (1, 2)
        assert wal.last_seq == 2

    def test_empty_batch_is_not_journaled(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        assert wal.append_batch([], 0) == 0
        assert list(wal.entries()) == []

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        wal.append_batch([StreamRecord((1,), 0, 1.0)], 0)
        wal.close()
        reopened = QuarterWAL(path)
        assert reopened.last_seq == 1
        assert reopened.append_advance(4, 1) == 2

    def test_append_after_close_raises(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        wal.close()
        with pytest.raises(StreamError, match="closed"):
            wal.append_advance(4, 1)

    def test_empty_file_gets_a_header_on_open(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.touch()  # crash between create and header write
        wal = QuarterWAL(path)
        wal.append_advance(4, 1)
        wal.close()
        assert [e.seq for e in QuarterWAL(path).entries()] == [1]

    def test_torn_header_only_file_is_recreated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"format": "repro-w')  # torn header write
        wal = QuarterWAL(path)
        wal.append_advance(4, 1)
        wal.close()
        assert [e.seq for e in QuarterWAL(path).entries()] == [1]

    def test_bad_batch_never_reaches_the_journal(self, tmp_path):
        """Schema-invalid records are rejected before journaling, so a WAL
        can never hold a batch that would fail on replay."""
        layers = build_layers()
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        cube = make_cube(layers, wal)
        good = random_records(31, 40, 2)
        cube.ingest_batch(good)
        from repro.errors import HierarchyError

        bad = [StreamRecord((99, 99), 2 * TPQ, 1.0)]  # out-of-schema leaf
        with pytest.raises(HierarchyError):
            cube.ingest_batch(bad)
        with pytest.raises(HierarchyError):
            cube.ingest(bad[0])
        with pytest.raises(HierarchyError):
            # Mixed batch — a fine record plus the bad one: all-or-nothing.
            cube.ingest_batch([StreamRecord((0, 0), 2 * TPQ, 1.0)] + bad)
        # Neither the cube nor the journal saw any of it ...
        reference = make_cube(layers)
        reference.ingest_batch(good)
        assert_cubes_identical(cube, reference)
        # ... so replay reproduces the cube without tripping.
        wal.close()
        recovered = make_cube(layers)
        QuarterWAL(tmp_path / "wal.jsonl").replay(recovered)
        assert_cubes_identical(cube, recovered)

    def test_records_round_trip_with_mixed_value_types(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        records = [
            StreamRecord(("user-7", 3), 2, 0.1 + 0.2),
            StreamRecord((0, "b"), 3, -1e-17),
        ]
        wal.append_batch(records, 0)
        [entry] = wal.entries()
        assert entry.records == records  # tuples, ints/strs, exact floats


class TestRecovery:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        wal.append_batch([StreamRecord((1,), 0, 1.0)], 0)
        wal.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 2, "kind": "batch", "qu')  # torn append
        reopened = QuarterWAL(path)
        assert [e.seq for e in reopened.entries()] == [1]
        assert reopened.last_seq == 1

    def test_corruption_mid_file_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        wal.append_batch([StreamRecord((1,), 0, 1.0)], 0)
        wal.append_advance(4, 1)
        wal.close()
        lines = path.read_text().splitlines()
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="line 2"):
            list(QuarterWAL(path).entries())

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"seq": 1, "kind": "advance", "quarter": 1, "t": 4}\n')
        with pytest.raises(CodecError, match="header"):
            list(QuarterWAL(path).entries())

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"format": "repro-wal", "version": 99}\n')
        with pytest.raises(CodecError, match="version"):
            list(QuarterWAL(path).entries())

    def test_unknown_kind_raises(self, tmp_path):
        from repro.stream.wal import _encode_line

        path = tmp_path / "wal.jsonl"
        QuarterWAL(path).close()
        with open(path, "ab") as fh:  # a version 2 line must carry its crc
            fh.write(_encode_line({"seq": 1, "kind": "mystery", "quarter": 0}))
        with pytest.raises(CodecError, match="unknown entry kind"):
            list(QuarterWAL(path).entries())

    def test_replay_does_not_rejournal(self, tmp_path):
        layers = build_layers()
        records = random_records(11, 60, 3)
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        source = make_cube(layers, wal)
        source.ingest_batch(records)
        before = wal.last_seq
        target = make_cube(layers)
        target.wal = wal  # recovery idiom: journal attached during replay
        wal.replay(target)
        assert wal.last_seq == before  # nothing re-appended
        assert target.wal is wal  # reattached afterwards
        assert_cubes_identical(source, target)


def packed_line(**fields):
    """A checksummed packed batch line (two keys, three records), with
    ``fields`` replacing any of its columns."""
    import base64

    import numpy as np

    from repro.stream.wal import _encode_line

    def column(values, dtype):
        return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode()

    payload = {
        "seq": 1,
        "kind": "batch",
        "quarter": 0,
        "keys": [[1, 2], [3, 4]],
        "codes": column([0, 1, 0], "<u1"),
        "t0": 7,
        "ticks": column([0, 1], "<u1"),
        "runs": column([2, 1], "<u1"),
        "z": column([1.0, 2.0, 3.0], "<f8"),
    }
    for name, value in fields.items():
        payload[name] = column(*value) if isinstance(value, tuple) else value
    return _encode_line(payload)


class TestPackedEntries:
    """A packed line that checksums but is malformed is a typed
    :class:`CodecError`, never an ``IndexError`` or a short numpy buffer."""

    def journal(self, tmp_path, *lines):
        path = tmp_path / "wal.jsonl"
        QuarterWAL(path).close()
        with open(path, "ab") as fh:
            fh.writelines(lines)
        return path

    def test_a_well_formed_line_decodes(self, tmp_path):
        [entry] = QuarterWAL(self.journal(tmp_path, packed_line())).entries()
        assert entry.records == [
            StreamRecord((1, 2), 7, 1.0),
            StreamRecord((3, 4), 7, 2.0),
            StreamRecord((1, 2), 8, 3.0),
        ]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"codes": "AA=A"}, "not base64"),
            ({"z": "!!!!"}, "not base64"),
            ({"z": "AAAA"}, "whole number"),  # 3 bytes of float64
            ({"codes": ([0, 1], "<u1")}, "disagree"),
            ({"codes": ([0, 1, 0, 1], "<u1")}, "disagree"),
            ({"runs": ([2, 2], "<u1")}, "disagree"),
            ({"runs": ([3], "<u1"), "ticks": ([0, 1, 2], "<u1")}, "3 bytes for 1"),
            ({"runs": ([0, 3], "<u1")}, "disagree"),
            ({"runs": ([2, 1], "<u2")}, "disagree"),  # widths follow n
            ({"ticks": ([0, 1, 2], "<u1")}, "3 bytes for 2 runs"),
            ({"ticks": "AAAAAAA="}, "5 bytes for 2 runs"),
            ({"z": "", "codes": "", "runs": ""}, "disagree"),  # no records
            ({"t0": 2**63 - 1}, "leave int64"),
            ({"t0": -(2**63) - 1}, "leave int64"),
            ({"t0": 1.5}, "leave int64"),
            ({"t0": "7"}, "leave int64"),
            ({"codes": ([0, 2, 0], "<u1")}, "past its 2 keys"),
            ({"keys": [[1, 2]]}, "past its 1 keys"),
            ({"keys": [1, 2]}, "malformed"),
            ({"codes": None}, "malformed"),
        ],
    )
    def test_a_malformed_column_is_a_codec_error(self, tmp_path, fields, message):
        # Interior, so only the shape can be at fault: the line checksums.
        later = packed_line().replace(b'"seq": 1', b'"seq": 2')
        path = self.journal(tmp_path, packed_line(**fields), later)
        with pytest.raises(CodecError, match=message):
            list(QuarterWAL(path).entries())

    def test_a_missing_column_is_a_codec_error(self, tmp_path):
        from repro.stream.wal import _encode_line

        payload = json.loads(packed_line())
        del payload["crc"], payload["z"]
        path = self.journal(tmp_path, _encode_line(payload))
        with pytest.raises(CodecError, match="missing field 'z'"):
            list(QuarterWAL(path).entries())

    def test_a_line_without_crc_in_a_version_2_segment_is_corruption(
        self, tmp_path
    ):
        unsigned = json.loads(packed_line())
        del unsigned["crc"]
        line = (json.dumps(unsigned) + "\n").encode()
        path = self.journal(tmp_path, line, _encode_advance(2))
        with pytest.raises(WalCorruptionError, match="no checksum") as info:
            list(QuarterWAL(path).entries())
        assert "line 2" in str(info.value)
        assert "claims seq 1" in str(info.value)
        # As the final line it is an append never acknowledged: dropped.
        (tmp_path / "final").mkdir()
        path = self.journal(tmp_path / "final", line)
        assert list(QuarterWAL(path).entries()) == []

    def test_a_version_2_header_without_crc_is_corruption(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(
            b'{"format": "repro-wal", "version": 2, "after_seq": 0}\n'
            + _encode_advance(1)
        )
        with pytest.raises(WalCorruptionError, match="no checksum"):
            QuarterWAL(path)

    def test_a_version_1_segment_still_accepts_lines_without_crc(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            '{"format": "repro-wal", "version": 1}\n'
            '{"seq": 1, "kind": "batch", "quarter": 0, '
            '"records": [[[1, 2], 0, 1.5]]}\n'
            '{"seq": 2, "kind": "advance", "quarter": 1, "t": 4}\n'
        )
        entries = list(QuarterWAL(path).entries())
        assert entries[0].records == [StreamRecord((1, 2), 0, 1.5)]
        assert entries[1].t == 4


def _encode_advance(seq):
    from repro.stream.wal import _encode_line

    return _encode_line({"seq": seq, "kind": "advance", "quarter": 1, "t": 4})


def journal_files(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def seal(path, first, last):
    """Rename the active segment as a rotation's first step does."""
    path.rename(path.with_name(f"{path.name}.{first:012d}-{last:012d}"))


class TestCompaction:
    def test_truncate_through_keeps_newer_entries(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        for q in range(4):
            wal.append_batch([StreamRecord((q,), q * TPQ, 1.0)], q)
        # Entries 1-4 are sealed as one segment; it straddles the mark, so
        # it stays and replay skips its covered prefix.
        assert wal.truncate_through(2) == 0
        assert journal_files(tmp_path) == [
            "wal.jsonl",
            "wal.jsonl.000000000001-000000000004",
        ]
        assert [e.seq for e in wal.entries(after_seq=2)] == [3, 4]
        # Appends continue with the old numbering after a rotation.
        assert wal.append_advance(16, 4) == 5
        assert wal.truncate_through(0) == 0  # nothing below the mark
        assert wal.truncate_through(5) == 5
        assert journal_files(tmp_path) == ["wal.jsonl"]
        assert list(wal.entries()) == []

    def test_truncated_file_reopens_cleanly(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        for q in range(3):
            wal.append_batch([StreamRecord((q,), q * TPQ, 1.0)], q)
        wal.truncate_through(3)
        assert journal_files(tmp_path) == ["wal.jsonl"]
        wal.close()
        reopened = QuarterWAL(path)
        assert reopened.last_seq == 3
        assert list(reopened.entries()) == []
        assert reopened.append_advance(16, 4) == 4
        assert [e.seq for e in reopened.entries()] == [4]

    def test_truncation_reads_no_segment(self, tmp_path, monkeypatch):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        wal.append_advance(4, 1)
        wal.truncate_through(0)
        wal.append_advance(8, 2)

        def no_reads(*args, **kwargs):
            raise AssertionError("truncation read a segment")

        monkeypatch.setattr("repro.stream.wal._read_segment", no_reads)
        assert wal.truncate_through(2) == 2
        assert journal_files(tmp_path) == ["wal.jsonl"]


class TestSegments:
    def fill_segments(self, path):
        """Three sealed segments (1-2, 3-4, 5-6) and an active one (7)."""
        wal = QuarterWAL(path)
        for seq in range(1, 8):
            wal.append_advance(4 * seq, seq)
            if seq % 2 == 0:
                wal.truncate_through(0)  # rotate, drop nothing
        wal.close()

    def test_entries_chain_segments_in_order(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.fill_segments(path)
        assert len(journal_files(tmp_path)) == 4
        wal = QuarterWAL(path)
        assert wal.last_seq == 7
        assert [e.seq for e in wal.entries()] == list(range(1, 8))
        assert [e.seq for e in wal.entries(after_seq=3)] == [4, 5, 6, 7]

    def test_entries_open_no_covered_segment(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.jsonl"
        self.fill_segments(path)
        wal = QuarterWAL(path)
        from repro.stream import wal as wal_module

        opened = []
        real = wal_module._read_segment

        def spy(segment, *args, **kwargs):
            opened.append(segment.name)
            return real(segment, *args, **kwargs)

        monkeypatch.setattr(wal_module, "_read_segment", spy)
        assert [e.seq for e in wal.entries(after_seq=4)] == [5, 6, 7]
        assert sorted(opened) == [
            "wal.jsonl",
            "wal.jsonl.000000000005-000000000006",
        ]

    def test_missing_middle_segment_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.fill_segments(path)
        (tmp_path / "wal.jsonl.000000000003-000000000004").unlink()
        wal = QuarterWAL(path)
        with pytest.raises(WalCorruptionError, match="seqs 3-4 are missing"):
            list(wal.entries())
        # A replay from past the hole does not need it.
        assert [e.seq for e in wal.entries(after_seq=4)] == [5, 6, 7]

    def test_missing_newest_sealed_segment_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        self.fill_segments(path)
        (tmp_path / "wal.jsonl.000000000005-000000000006").unlink()
        with pytest.raises(WalCorruptionError, match="seqs 5-6 are missing"):
            list(QuarterWAL(path).entries(after_seq=2))

    def test_crash_between_rename_and_header_recovers(self, tmp_path):
        """A rotation that dies after its rename leaves only sealed
        segments: open starts a fresh active one, numbering continues and
        restore + replay is bit-identical."""
        layers = build_layers()
        records = random_records(5, 90, 3)
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        live = make_cube(layers, wal)
        live.ingest_batch(records[:40])
        mark = live.snapshot(tmp_path / "snap")["wal_seq"]
        wal.truncate_through(mark)
        live.ingest_batch(records[40:70])
        live.ingest_batch(records[70:])
        wal.close()
        seal(path, mark + 1, wal.last_seq)  # crash here
        assert QuarterWAL.exists(path) and not path.exists()

        recovery_wal = QuarterWAL(path)
        assert recovery_wal.last_seq == wal.last_seq
        recovered = ShardedStreamCube.restore(
            tmp_path / "snap", layers, POLICY, wal=recovery_wal
        )
        recovery_wal.replay(recovered, after_seq=mark)
        assert_cubes_identical(live, recovered)
        assert recovery_wal.append_advance(4 * TPQ, 4) == wal.last_seq + 1
        assert recovery_wal.truncate_through(wal.last_seq + 1) == 3
        assert journal_files(tmp_path) == ["snap", "wal.jsonl"]

    def test_reopen_cuts_a_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        wal.append_advance(4, 1)
        wal.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 2, "kind": "adv')  # torn append
        reopened = QuarterWAL(path)
        assert reopened.append_advance(8, 2) == 2
        reopened.close()
        assert [e.t for e in QuarterWAL(path).entries()] == [4, 8]

    def test_exists_sees_any_segment(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        assert not QuarterWAL.exists(path)
        QuarterWAL(path).close()
        assert QuarterWAL.exists(path)
        seal(path, 1, 1)
        assert QuarterWAL.exists(path)
        (tmp_path / "wal.jsonl.backup").touch()  # not a segment name
        (tmp_path / "wal.jsonl.000000000001-000000000001").unlink()
        assert not QuarterWAL.exists(path)


_json_scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=6),
)
_z_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 0.1 + 0.2]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    rows=st.lists(
        st.tuples(
            st.lists(_json_scalars, min_size=1, max_size=3),
            st.integers(min_value=0, max_value=2**40),
            _z_values,
        ),
        max_size=6,
    ),
    seq=st.integers(min_value=1, max_value=2**40),
    quarter=st.integers(min_value=0, max_value=2**20),
    extra_key=st.text(min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_lines_match_the_reference_encoding(rows, seq, quarter, extra_key):
    """One ``json.dumps`` per line writes exactly the bytes of the
    two-pass reference (body CRC, then the payload re-dumped with it), and
    a packed batch holds its distinct keys once, first-seen, and its codes,
    tick runs and z as little-endian base64 columns."""
    import base64

    import numpy as np

    from repro.regression import kernels
    from repro.stream.records import RecordColumns
    from repro.stream.wal import _decode_entry, _encode_batch, _encode_line

    def reference(payload):
        crc = zlib.crc32(json.dumps(payload).encode("utf-8"))
        return (json.dumps({**payload, "crc": crc}) + "\n").encode("utf-8")

    def column(values, dtype):
        return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode()

    batch = RecordColumns(
        [tuple(values) for values, _, _ in rows],
        kernels.int_column([t for _, t, _ in rows]),
        kernels.float_column([z for _, _, z in rows]),
    )
    distinct = list(dict.fromkeys(batch.values))
    runs = []  # [tick, count] per run of equal consecutive ticks
    for _, t, _ in rows:
        if runs and runs[-1][0] == t:
            runs[-1][1] += 1
        else:
            runs.append([t, 1])
    t0 = min((t for _, t, _ in rows), default=0)
    offsets = [t - t0 for t, _ in runs]
    width = next(w for w in (1, 2, 4, 8) if max(offsets, default=0) < 256**w)
    packed = {  # the packed batch, spelled out by hand
        "seq": seq,
        "kind": "batch",
        "quarter": quarter,
        "keys": [list(key) for key in distinct],
        "codes": column([distinct.index(key) for key in batch.values], "<u1"),
        "t0": t0,
        "ticks": column(offsets, f"<u{width}"),
        "runs": column([n for _, n in runs], "<u1"),
        "z": column([z for _, _, z in rows], "<f8"),
    }
    if rows:
        line = _encode_line(_encode_batch(seq, quarter, batch))
        assert line == reference(packed)
        payload = json.loads(line)
        payload.pop("crc")
        decoded = _decode_entry(seq, payload).batch
        assert decoded.values == batch.values
        assert decoded.ticks.tolist() == batch.ticks.tolist()
        assert decoded.z.tobytes() == batch.z.tobytes()
    advance = {"seq": seq, "kind": "advance", "quarter": quarter, "t": 4}
    assert _encode_line(advance) == reference(advance)
    header = {"format": "repro-wal", "version": 2}
    assert _encode_line(header) == reference(header)
    keyed = {extra_key + "\u00e9\u6f22": quarter, "seq": seq}  # non-ASCII keys
    assert _encode_line(keyed) == reference(keyed)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    snap_at=st.floats(min_value=0.0, max_value=1.0),
    crash_at=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_crash_anywhere_recovers_bit_identical(tmp_path_factory, seed, snap_at, crash_at):
    """snapshot at any point, crash at any later point, recover exactly.

    The run is a sequence of small batches plus a final advance; the
    snapshot lands after batch ``floor(snap_at * n)``, the crash after
    batch ``floor(crash_at * n)`` at or past it.  Recovery = restore the
    snapshot + replay WAL entries past its wal_seq; the recovered cube
    must match the uninterrupted cube bit for bit once fed the
    post-crash tail.
    """
    tmp_path = tmp_path_factory.mktemp("wal")
    layers = build_layers()
    records = random_records(seed, 120, 4)
    rng = random.Random(seed)
    batches = []
    i = 0
    while i < len(records):
        step = rng.randrange(1, 25)
        batches.append(records[i : i + step])
        i += step
    snap_idx = int(snap_at * len(batches))
    crash_idx = max(snap_idx, int(crash_at * len(batches)))

    uninterrupted = make_cube(layers)
    for batch in batches:
        uninterrupted.ingest_batch(batch)
    uninterrupted.advance_to(4 * TPQ)

    wal = QuarterWAL(tmp_path / "wal.jsonl")
    live = make_cube(layers, wal)
    snap = tmp_path / "snap"
    manifest = live.snapshot(snap) if snap_idx == 0 else None
    for j, batch in enumerate(batches[:crash_idx]):
        live.ingest_batch(batch)
        if j + 1 == snap_idx:
            manifest = live.snapshot(snap)
    assert manifest is not None  # crash_idx >= snap_idx guarantees it
    wal.close()  # crash

    recovery_wal = QuarterWAL(tmp_path / "wal.jsonl")
    recovered = ShardedStreamCube.restore(snap, layers, POLICY, wal=recovery_wal)
    recovery_wal.replay(recovered, after_seq=manifest["wal_seq"])
    for batch in batches[crash_idx:]:
        recovered.ingest_batch(batch)
    recovered.advance_to(4 * TPQ)
    assert_cubes_identical(uninterrupted, recovered)
    assert recovered.window_isbs(0, 4 * TPQ - 1) == uninterrupted.window_isbs(
        0, 4 * TPQ - 1
    )
