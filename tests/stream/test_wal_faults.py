"""The quarter WAL under injected append faults and on-disk corruption.

The append seam (site ``wal.append``) must self-repair every transient
fault — EIO, torn short writes, a lying fsync — without ever leaving a
half-line behind, and interior corruption of acknowledged history must
surface as a typed :class:`WalCorruptionError` that names the line,
byte offset and last intact sequence number.
"""

from __future__ import annotations

import base64
import json
import struct

import pytest

from repro import faults
from repro.__main__ import build_service
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import StorageError, WalCorruptionError
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.service.conftest import TPQ, workload
from tests.service.test_recovery import ok, rows, serve_args


@pytest.fixture(autouse=True)
def disarm():
    faults.clear()
    yield
    faults.clear()


def arm(kind, **kwargs):
    faults.install(
        {
            "seed": 17,
            "rules": [{"site": "wal.append", "kind": kind, **kwargs}],
        }
    )


def fill(wal, n=3):
    for q in range(n):
        wal.append_batch([StreamRecord((q,), 16 * q, 1.0)], q)


class TestAppendRepair:
    def test_torn_append_is_rolled_back_and_retried(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        fill(wal, 2)
        arm("torn", count=1)
        seq = wal.append_batch([StreamRecord((9,), 32, 2.0)], 2)
        faults.clear()
        # The half-line was truncated away and the append re-ran: every
        # entry (including the repaired one) reads back intact.
        assert wal.repairs == 1
        assert [e.seq for e in wal.entries()] == [1, 2, seq]
        assert list(wal.entries())[-1].records[0].z == 2.0

    def test_transient_eio_append_is_repaired(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        fill(wal, 1)
        arm("eio", count=1)
        wal.append_advance(32, 2)
        assert wal.repairs == 1
        assert [e.kind for e in wal.entries()] == ["batch", "advance"]

    def test_double_append_failure_raises_storage_error(self, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        fill(wal, 1)
        arm("eio", count=2)
        with pytest.raises(StorageError, match="even after short-write"):
            wal.append_advance(32, 2)
        faults.clear()
        # Journal-before-apply: the rejected entry left no trace, and the
        # journal still accepts appends.
        assert [e.seq for e in wal.entries()] == [1]
        assert wal.append_advance(32, 2) == 2  # no seq was consumed

    def test_double_torn_append_leaves_no_half_line(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 1)
        arm("torn", count=2)
        with pytest.raises(StorageError, match="even after short-write"):
            wal.append_advance(32, 2)
        faults.clear()
        # Both halves were cut, so the next append starts a line of its own.
        assert path.read_bytes().endswith(b"\n")
        wal.append_advance(32, 2)
        wal.close()
        assert [e.seq for e in QuarterWAL(path).entries()] == [1, 2]

    def test_failed_rotation_header_is_written_by_next_append(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 2)
        arm("eio", count=2)
        with pytest.raises(StorageError, match="even after short-write"):
            wal.truncate_through(2)  # renamed, then the header write fails
        faults.clear()
        assert path.read_bytes() == b""
        assert wal.append_advance(48, 3) == 3
        wal.close()
        reopened = QuarterWAL(path)
        assert reopened.last_seq == 3
        assert [e.seq for e in reopened.entries()] == [1, 2, 3]

    def test_torn_repair_survives_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 2)
        arm("torn", count=1)
        wal.append_batch([StreamRecord((9,), 32, 2.0)], 2)
        wal.close()
        faults.clear()
        reopened = QuarterWAL(path)
        assert reopened.last_seq == 3
        assert len(list(reopened.entries())) == 3

    def test_fsync_lie_is_harmless_in_process(self, tmp_path):
        # A lying fsync only matters across an OS crash; in-process the
        # flushed bytes are visible and the journal stays intact.
        wal = QuarterWAL(tmp_path / "wal.jsonl", sync=True)
        arm("fsync_lie", count=0)
        fill(wal, 3)
        assert wal.repairs == 0
        assert [e.seq for e in wal.entries()] == [1, 2, 3]


class TestInteriorCorruption:
    def corrupt_line(self, path, lineno, mutate):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno] = mutate(lines[lineno])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_interior_bad_json_names_line_offset_and_seq(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 3)
        wal.close()
        # Header is line 1; entries are lines 2-4.  Corrupt line 3 (seq 2).
        self.corrupt_line(path, 2, lambda line: line[: len(line) // 2])
        with pytest.raises(WalCorruptionError) as info:
            list(QuarterWAL(path).entries())
        msg = str(info.value)
        assert "line 3" in msg
        assert "byte offset" in msg
        assert "last intact seq is 1" in msg

    def test_interior_checksum_failure_names_claimed_seq(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 3)
        wal.close()

        def flip_z(line):
            payload = json.loads(line)
            z = bytearray(base64.b64decode(payload["z"]))
            z[:8] = struct.pack("<d", 777.0)  # body no longer matches crc
            payload["z"] = base64.b64encode(bytes(z)).decode("ascii")
            return json.dumps(payload)

        self.corrupt_line(path, 2, flip_z)
        with pytest.raises(WalCorruptionError, match="claims seq 2"):
            list(QuarterWAL(path).entries())

    def test_corrupt_final_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 3)
        wal.close()
        self.corrupt_line(path, 3, lambda line: line[: len(line) // 2])
        # The final entry was never acknowledged-and-intact: recovery
        # keeps everything before it and raises nothing.
        assert [e.seq for e in QuarterWAL(path).entries()] == [1, 2]


class TestWriteSideCorruptionIsCaughtOnRead:
    def test_bitflip_on_append_fails_checksum_later(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = QuarterWAL(path)
        fill(wal, 2)
        arm("bitflip", count=1)
        wal.append_batch([StreamRecord((9,), 32, 2.0)], 2)
        wal.append_advance(48, 3)  # the corrupt line is now interior
        faults.clear()
        with pytest.raises(WalCorruptionError, match="last intact seq is 2"):
            list(wal.entries())

    def test_snapshot_covering_a_flipped_entry_compacts(self, tmp_path):
        """Truncation reads no segment, so an entry that no longer
        checksums but is already in a snapshot cannot block compaction."""
        snaps = tmp_path / "snaps"
        records = workload(21)
        third = len(records) // 3
        service = build_service(serve_args(tmp_path))
        try:
            parts = (records[:third], records[third : 2 * third],
                     records[2 * third :])
            for i, batch in enumerate(parts):
                if i == 1:  # flip a bit in the middle batch's line
                    arm("bitflip", count=1)
                ok(service, "POST", "/ingest", {"records": rows(batch)})
                faults.clear()
            with pytest.raises(WalCorruptionError):
                list(service.cube.wal.entries())  # the flip is interior
            for _ in range(2):  # every later snapshot succeeds too
                body = ok(service, "POST", "/admin/snapshot")
            assert body["wal_seq"] == 3
            assert sorted(p.name for p in snaps.glob("wal.jsonl*")) == [
                "wal.jsonl"
            ]
            service.cube.advance_to(6 * TPQ)
            live = service.cube.window_isbs(0, 6 * TPQ - 1)
            records_ingested = service.cube.records_ingested
        finally:
            service.close()
        restored = build_service(
            serve_args(tmp_path, restore=str(snaps), snapshot_dir=str(snaps))
        )
        try:
            assert restored.cube.records_ingested == records_ingested
            assert restored.cube.window_isbs(0, 6 * TPQ - 1) == live
        finally:
            restored.close()


# A short durable run: batches, a sealing advance and two snapshot +
# truncate_through rotations, the second followed by one more batch so
# the fresh segment takes an append.
_RECORDS = workload(8, quarters=5, per_tick=4)
_CUT = [len(_RECORDS) * i // 4 for i in range(5)]
_SCRIPT = [
    ("batch", _RECORDS[_CUT[0] : _CUT[1]]),
    ("batch", _RECORDS[_CUT[1] : _CUT[2]]),
    ("snapshot", None),
    ("batch", _RECORDS[_CUT[2] : _CUT[3]]),
    ("advance", 5 * TPQ),
    ("snapshot", None),
    ("batch", [StreamRecord((1, 2), 5 * TPQ + 1, 0.5)]),
]
_END = 7 * TPQ


def _layers_and_policy():
    return DatasetSpec(2, 2, 3, 1).build_layers(), GlobalSlopeThreshold(0.1)


def _run_script(snaps):
    """Run ``_SCRIPT`` journaling to ``snaps`` until the journal refuses
    a write; returns the acknowledged steps and the last manifest."""
    layers, policy = _layers_and_policy()
    acked, manifest = [], None
    try:
        wal = QuarterWAL(snaps / "wal.jsonl")
    except StorageError:
        return acked, manifest
    cube = ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ, wal=wal
    )
    try:
        for kind, arg in _SCRIPT:
            if kind == "batch":
                cube.ingest_batch(arg)
            elif kind == "advance":
                cube.advance_to(arg)
            else:
                manifest = cube.snapshot(snaps)
                wal.truncate_through(manifest["wal_seq"])
            acked.append((kind, arg))
    except StorageError:
        pass
    finally:
        cube.close()
        wal.close()
    return acked, manifest


def test_every_journal_write_is_a_crash_point(tmp_path):
    """Fail the k-th journal write and its repair for every k of a short
    durable run, then recover from disk: the last manifest plus a replay
    of the journal equals a cube fed only the acknowledged steps."""
    faults.install(
        {"rules": [{"site": "wal.append", "kind": "eio", "after": 10**6}]}
    )
    acked, _ = _run_script(tmp_path / "dry")
    [rule] = faults.stats()
    assert len(acked) == len(_SCRIPT)
    writes = rule["seen"]
    assert writes == 8  # open + 5 entries + 2 rotation headers
    layers, policy = _layers_and_policy()
    for k in range(1, writes + 1):
        snaps = tmp_path / f"crash-{k}"
        arm("eio", after=k - 1, count=2)
        acked, manifest = _run_script(snaps)
        faults.clear()
        assert len(acked) < len(_SCRIPT), k
        if manifest is not None:
            recovered = ShardedStreamCube.restore(snaps, layers, policy)
        else:
            recovered = ShardedStreamCube(
                layers, policy, n_shards=2, ticks_per_quarter=TPQ
            )
        reference = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        with recovered, reference:
            if QuarterWAL.exists(snaps / "wal.jsonl"):
                with QuarterWAL(snaps / "wal.jsonl") as journal:
                    journal.replay(
                        recovered,
                        after_seq=manifest["wal_seq"] if manifest else 0,
                    )
            for kind, arg in acked:
                if kind == "batch":
                    reference.ingest_batch(arg)
                elif kind == "advance":
                    reference.advance_to(arg)
            recovered.advance_to(_END)
            reference.advance_to(_END)
            assert recovered.records_ingested == reference.records_ingested, k
            assert recovered.window_isbs(0, _END - 1) == (
                reference.window_isbs(0, _END - 1)
            ), k
