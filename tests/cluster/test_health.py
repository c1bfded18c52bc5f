"""Degraded reads: partial broadcasts and quarantined cold pages.

The service layer's degraded mode is built on what this file pins: a
shard whose read raises :class:`~repro.errors.CorruptionError` becomes a
``broadcast_partial`` hole with a descriptor, strict reads still raise,
and — end to end — a cold page that rots on disk is quarantined and its
shard stays a hole on every later degraded read, while the surviving
shard's answer stays exact.
"""

from __future__ import annotations

import pytest

from repro.errors import CorruptionError
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.stream.engine import StreamCubeEngine

from tests.cluster.conftest import TPQ, workload


def survivors_engine(cube, layers, policy, records, end_tick, lost=1):
    """A single engine fed only the keys the cube's other shards own."""
    engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
    engine.ingest_many(
        [r for r in records if cube.shard_index(r.values) != lost]
    )
    engine.advance_to(end_tick)
    return engine


def lose_shard(cube, shard=1):
    """Make one shard's window reads raise what a quarantined page does."""

    def quarantined(*args):
        raise CorruptionError(f"shard {shard}: cold page quarantined (injected)")

    cube.shards[shard].window_columns = quarantined


def make_cube(layers, policy, storage=None):
    return ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ, storage=storage
    )


class TestBroadcastPartial:
    def test_strict_mode_still_raises(self, layers, policy):
        cube = make_cube(layers, policy)
        cube.ingest_batch(workload(3))
        cube.advance_to(6 * TPQ)
        lose_shard(cube)
        # degraded_reads defaults to False: library users get the loud
        # failure unless they opt in (the HTTP service does).
        with pytest.raises(CorruptionError, match="quarantined"):
            cube.change_exceptions()

    def test_degraded_reads_merge_surviving_shards(self, layers, policy):
        records = workload(6)  # spans quarters 0..5
        end = 6 * TPQ
        cube = make_cube(layers, policy)
        cube.ingest_batch(records)
        cube.advance_to(end)
        lose_shard(cube)
        cube.degraded_reads = True
        partial = cube.window_isbs(0, end - 1)
        holes = cube.consume_degraded()
        assert [h["shard"] for h in holes] == [1]
        assert holes[0]["state"] == "degraded"
        assert "quarantined" in holes[0]["reason"]
        assert holes[0]["last_quarter"] == 6
        # The partial answer is exactly the surviving shard's slice of the
        # truth: a subset, never garbage.
        expected = survivors_engine(cube, layers, policy, records, end)
        assert partial
        assert partial == expected.window_isbs(0, end - 1)

    def test_consume_degraded_drains_and_dedupes(self, layers, policy):
        cube = make_cube(layers, policy)
        cube.ingest_batch(workload(3))
        cube.advance_to(6 * TPQ)
        lose_shard(cube)
        cube.degraded_reads = True
        cube.m_cells(4)
        cube.change_exceptions()  # same lost shard, one descriptor
        holes = cube.consume_degraded()
        assert [h["shard"] for h in holes] == [1]
        assert cube.consume_degraded() == []  # drained


class TestCorruptColdPage:
    def test_quarantined_shard_is_a_hole_on_every_read(
        self, layers, policy, tmp_path
    ):
        """Silent media corruption, end to end: one shard's cold pages rot
        on disk, its read fails the page checksum and quarantines the page
        (strict reads raise), and every later degraded read — not only the
        first — answers the surviving shard's slice bit-identically, with
        the rotted shard as the one hole."""
        records = workload(13, quarters=8)
        end = 8 * TPQ
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        cube = make_cube(layers, policy, storage=storage)
        cube.ingest_batch(records)
        cube.advance_to(end)
        segments = sorted((tmp_path / "cold").rglob("*shard-01-of-02/L*.seg"))
        assert segments, "no pages spilled; widen the workload"
        # Rot the tail of every segment file: the last byte sits in some
        # page's float column, caught by the whole-page CRC.
        for path in segments:
            raw = bytearray(path.read_bytes())
            raw[-1] ^= 0x40
            path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="quarantined"):
            cube.window_isbs(0, end - 1)
        assert cube.storage_stats()["quarantined"] >= 1
        cube.degraded_reads = True
        expected = survivors_engine(
            cube, layers, policy, records, end
        ).window_isbs(0, end - 1)
        for _ in range(2):
            assert cube.window_isbs(0, end - 1) == expected
            holes = cube.consume_degraded()
            assert [(h["shard"], h["state"]) for h in holes] == [
                (1, "degraded")
            ]
            assert "quarantined" in holes[0]["reason"]
