"""Cube snapshots and online resharding: exact across any shard count.

The elasticity contract: ``snapshot(dir)`` / ``restore(dir)`` round-trips a
sharded cube bit-identically (mid-quarter included), and re-partitioning —
``reshard(j)`` in memory or ``restore(dir, n_shards=j)`` from disk — moves
every cell's exact state to its new owner, so windows, refreshes, and
exception sets are invariant across k -> j for any k, j.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CodecError, SchemaError
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.service.conftest import TPQ, workload

SHARD_COUNTS = (1, 2, 7)
END = 6 * TPQ


def loaded_cube(layers, policy, records, k, advance=True):
    cube = ShardedStreamCube(layers, policy, n_shards=k, ticks_per_quarter=TPQ)
    cube.ingest_batch(records)
    if advance:
        cube.advance_to(END)
    return cube


def assert_cubes_equal(a: ShardedStreamCube, b: ShardedStreamCube) -> None:
    assert a.current_quarter == b.current_quarter
    assert a.records_ingested == b.records_ingested
    assert a.tracked_cells == b.tracked_cells
    assert a.window_isbs(0, END - 1) == b.window_isbs(0, END - 1)
    assert a.m_cells(4) == b.m_cells(4)
    ra, rb = a.refresh(4), b.refresh(4)
    assert ra.o_layer_exceptions() == rb.o_layer_exceptions()
    assert ra.retained_exceptions == rb.retained_exceptions
    assert a.change_exceptions() == b.change_exceptions()
    assert a.o_layer_change_exceptions() == b.o_layer_change_exceptions()


class TestSnapshotRestore:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_round_trip_bit_identical(self, tmp_path, layers, policy, k):
        with loaded_cube(layers, policy, workload(3), k) as cube:
            manifest = cube.snapshot(tmp_path)
            assert manifest["n_shards"] == k
            restored = ShardedStreamCube.restore(tmp_path, layers, policy)
            with restored:
                assert restored.n_shards == k
                assert_cubes_equal(cube, restored)

    def test_mid_quarter_snapshot_keeps_accumulators(
        self, tmp_path, layers, policy
    ):
        records = workload(5)
        split = len(records) // 2
        with loaded_cube(
            layers, policy, records[:split], 3, advance=False
        ) as cube:
            cube.snapshot(tmp_path)
            with ShardedStreamCube.restore(tmp_path, layers, policy) as restored:
                # Continue both with the same tail: identical futures.
                cube.ingest_batch(records[split:])
                cube.advance_to(END)
                restored.ingest_batch(records[split:])
                restored.advance_to(END)
                assert_cubes_equal(cube, restored)

    def test_snapshot_cleans_up_stale_generations(
        self, tmp_path, layers, policy
    ):
        records = workload(7)
        split = len(records) // 2
        with loaded_cube(
            layers, policy, records[:split], 2, advance=False
        ) as cube:
            cube.snapshot(tmp_path)
            first = set(p.name for p in tmp_path.glob("shard-*.json"))
            cube.ingest_batch(records[split:])
            cube.advance_to(END)
            cube.snapshot(tmp_path)
            second = set(p.name for p in tmp_path.glob("shard-*.json"))
            assert len(second) == 2
            assert first.isdisjoint(second)  # old generation removed

    def test_snapshots_of_identical_counters_get_distinct_generations(
        self, tmp_path, layers, policy
    ):
        """prune_idle changes state the counters cannot see; the generation
        tag must still advance so the previous snapshot's files survive."""
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        with cube:
            idle, active = (8, 8), (0, 0)
            cube.ingest(StreamRecord(idle, 1, 1.0))
            for q in range(8):
                cube.ingest(StreamRecord(active, q * TPQ, 2.0))
            cube.advance_to(8 * TPQ)
            cube.snapshot(tmp_path)
            first = {p.name for p in tmp_path.glob("shard-*.json")}
            cube.prune_idle(4)  # no counter moves, but state changed
            cube.snapshot(tmp_path)
            second = {p.name for p in tmp_path.glob("shard-*.json")}
            assert first.isdisjoint(second)
            with ShardedStreamCube.restore(tmp_path, layers, policy) as back:
                assert back.tracked_cells == 1  # the pruned snapshot won

    def test_generation_counter_survives_restart(self, tmp_path, layers, policy):
        """A restored cube writing into the same directory must not reuse
        generation tags an earlier process left there."""
        with loaded_cube(layers, policy, workload(31), 2) as cube:
            cube.snapshot(tmp_path)
            first = {p.name for p in tmp_path.glob("shard-*.json")}
        with ShardedStreamCube.restore(tmp_path, layers, policy) as back:
            back.prune_idle(4)
            back.snapshot(tmp_path)
            second = {p.name for p in tmp_path.glob("shard-*.json")}
            assert first.isdisjoint(second)

    def test_bad_batch_leaves_cube_and_wal_untouched(
        self, tmp_path, layers, policy
    ):
        from repro.errors import HierarchyError

        wal = QuarterWAL(tmp_path / "wal.jsonl")
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ, wal=wal
        )
        with cube:
            good = workload(37)
            cube.ingest_batch(good)
            seq = wal.last_seq
            bad = StreamRecord((99, 99), 6 * TPQ, 1.0)
            with pytest.raises(HierarchyError):
                cube.ingest_batch([good[-1], bad])
            with pytest.raises(HierarchyError):
                cube.ingest(bad)
            assert wal.last_seq == seq  # nothing journaled
            assert cube.records_ingested == len(good)
            cube.advance_to(6 * TPQ)
            # Replay of the journal reproduces the cube cleanly.
            recovered = ShardedStreamCube(
                layers, policy, n_shards=3, ticks_per_quarter=TPQ
            )
            with recovered:
                QuarterWAL(tmp_path / "wal.jsonl").replay(recovered)
                assert recovered.window_isbs(0, 6 * TPQ - 1) == (
                    cube.window_isbs(0, 6 * TPQ - 1)
                )

    def test_restore_under_wrong_schema_raises(self, tmp_path, layers, policy):
        from repro.stream.generator import DatasetSpec

        with loaded_cube(layers, policy, workload(9), 2) as cube:
            cube.snapshot(tmp_path)
        other = DatasetSpec(3, 2, 3, 1).build_layers()
        with pytest.raises(SchemaError):
            ShardedStreamCube.restore(tmp_path, other, policy)

    def test_missing_manifest_raises(self, tmp_path, layers, policy):
        with pytest.raises(CodecError, match="manifest"):
            ShardedStreamCube.restore(tmp_path, layers, policy)

    def test_missing_shard_file_raises(self, tmp_path, layers, policy):
        with loaded_cube(layers, policy, workload(9), 2) as cube:
            cube.snapshot(tmp_path)
        victim = next(tmp_path.glob("shard-01-*.json"))
        victim.unlink()
        with pytest.raises(CodecError, match="missing file"):
            ShardedStreamCube.restore(tmp_path, layers, policy)

    def test_unsupported_version_raises(self, tmp_path, layers, policy):
        with loaded_cube(layers, policy, workload(9), 1) as cube:
            cube.snapshot(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CodecError, match="version"):
            ShardedStreamCube.restore(tmp_path, layers, policy)

    def test_manifest_records_app_config(self, tmp_path, layers, policy):
        with loaded_cube(layers, policy, workload(9), 2) as cube:
            cube.snapshot(tmp_path, extra={"dims": 2, "threshold": 0.1})
        manifest = ShardedStreamCube.read_manifest(tmp_path)
        assert manifest["app"] == {"dims": 2, "threshold": 0.1}

    def test_prune_composes_with_restore(self, tmp_path, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ
        )
        with cube:
            idle, active = (8, 8), (0, 0)
            cube.ingest(StreamRecord(idle, 1, 1.0))
            for q in range(8):
                cube.ingest(StreamRecord(active, q * TPQ, 2.0))
            cube.advance_to(8 * TPQ)
            assert cube.prune_idle(4) == 1
            cube.snapshot(tmp_path)
            with ShardedStreamCube.restore(tmp_path, layers, policy) as back:
                assert back.tracked_cells == cube.tracked_cells
                assert back.prune_idle(4) == 0  # pruned cells stayed pruned
            # ... and pruning survives a reshard the same way.
            with cube.reshard(5) as wide:
                assert wide.tracked_cells == cube.tracked_cells
                assert wide.prune_idle(4) == 0


class TestReshard:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("j", SHARD_COUNTS)
    def test_reshard_is_exact(self, layers, policy, k, j):
        with loaded_cube(layers, policy, workload(11), k) as cube:
            with cube.reshard(j) as resharded:
                assert resharded.n_shards == j
                assert_cubes_equal(cube, resharded)

    @pytest.mark.parametrize("k,j", [(1, 2), (2, 7), (7, 2)])
    def test_reshard_mid_quarter_then_continue(self, layers, policy, k, j):
        """Resharding between batches must not disturb the future stream."""
        records = workload(13)
        split = len(records) * 2 // 3
        with loaded_cube(layers, policy, records, k) as uninterrupted:
            with loaded_cube(
                layers, policy, records[:split], k, advance=False
            ) as before:
                resharded = before.reshard(j)
            with resharded:
                resharded.ingest_batch(records[split:])
                resharded.advance_to(END)
                assert_cubes_equal(uninterrupted, resharded)

    @pytest.mark.parametrize("j", SHARD_COUNTS)
    def test_restore_with_override_equals_reshard(
        self, tmp_path, layers, policy, j
    ):
        with loaded_cube(layers, policy, workload(17), 2) as cube:
            cube.snapshot(tmp_path)
            restored = ShardedStreamCube.restore(
                tmp_path, layers, policy, n_shards=j
            )
            with restored:
                assert restored.n_shards == j
                assert_cubes_equal(cube, restored)

    def test_reshard_partitions_by_stable_hash(self, layers, policy):
        from repro.service.sharding import stable_shard_index

        with loaded_cube(layers, policy, workload(19), 3) as cube:
            with cube.reshard(5) as resharded:
                for i, shard in enumerate(resharded.shards):
                    for key in shard.snapshot().keys:
                        assert stable_shard_index(key, 5) == i

    def test_reshard_rejects_bad_count(self, layers, policy):
        from repro.errors import ServiceError

        with loaded_cube(layers, policy, workload(19), 2) as cube:
            with pytest.raises(ServiceError, match="n_shards"):
                cube.reshard(0)


class TestWalSnapshotInterplay:
    def test_snapshot_records_wal_seq_and_replay_completes(
        self, tmp_path, layers, policy
    ):
        records = workload(23)
        split = len(records) // 2
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ, wal=wal
        )
        with cube:
            cube.ingest_batch(records[:split])
            manifest = cube.snapshot(tmp_path)
            assert manifest["wal_seq"] == wal.last_seq
            cube.ingest_batch(records[split:])
            cube.advance_to(END)
            # Crash: recover from snapshot + journal tail.
            recovery_wal = QuarterWAL(tmp_path / "wal.jsonl")
            restored = ShardedStreamCube.restore(
                tmp_path, layers, policy, wal=recovery_wal
            )
            with restored:
                replayed = recovery_wal.replay(
                    restored, after_seq=manifest["wal_seq"]
                )
                assert replayed == 2  # post-snapshot batch + advance
                assert_cubes_equal(cube, restored)

    def test_recovery_into_different_shard_count(
        self, tmp_path, layers, policy
    ):
        """Crash recovery and resharding compose: restore k=3 as j=7."""
        records = workload(29)
        split = len(records) // 3
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ, wal=wal
        )
        with cube:
            cube.ingest_batch(records[:split])
            manifest = cube.snapshot(tmp_path)
            cube.ingest_batch(records[split:])
            cube.advance_to(END)
            restored = ShardedStreamCube.restore(
                tmp_path, layers, policy, n_shards=7
            )
            with restored:
                QuarterWAL(tmp_path / "wal.jsonl").replay(
                    restored, after_seq=manifest["wal_seq"]
                )
                assert restored.n_shards == 7
                assert_cubes_equal(cube, restored)
