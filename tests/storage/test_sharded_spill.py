"""Sharded cubes over per-shard cold stores: equivalence, reshard, prune.

Sharding must stay invisible under spilling: a sharded cube whose shards
each spill to their own store answers bit-identically to one spilling
engine, through snapshots, k→j reshards (which repartition the cold pages
into a fresh generation) and checkpoint-time compaction (which prunes the
stale generations).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import CodecError, StorageError
from repro.io import STATE_VERSION
from repro.service.sharding import ShardedStreamCube
from repro.storage import FileColdStore, StorageConfig
from repro.stream.engine import StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.verify.oracle import RawStreamOracle, assert_cells_equal

TPQ = 1
HOT = 2
QUARTERS = 64
POOL = [(0, 0), (1, 2), (4, 4), (7, 1), (3, 8), (6, 6)]


def build():
    return (
        DatasetSpec(2, 2, 3, 1).build_layers(),
        GlobalSlopeThreshold(0.05),
    )


def traffic(seed: int, quarters: int, start: int = 0) -> list[StreamRecord]:
    rng = random.Random(seed)
    return [
        StreamRecord(key, q * TPQ, rng.uniform(-3.0, 3.0))
        for q in range(start, start + quarters)
        for key in POOL
        if rng.random() < 0.8
    ]


def make_pair(tmp_path, n_shards=3):
    layers, policy = build()
    config = StorageConfig(root=tmp_path / "cube-store", hot_quarters=HOT)
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=n_shards,
        ticks_per_quarter=TPQ,
        storage=config,
        hot_quarters=HOT,
    )
    engine = StreamCubeEngine(
        layers,
        policy,
        ticks_per_quarter=TPQ,
        storage=FileColdStore(tmp_path / "engine-store"),
        hot_quarters=HOT,
    )
    records = traffic(29, QUARTERS)
    cube.ingest_batch(records)
    engine.ingest_many(records)
    t = QUARTERS * TPQ
    cube.advance_to(t)
    engine.advance_to(t)
    return cube, engine, config, layers, policy, records


def foreign_snapshot(tmp_path, storage_block: dict):
    """A hand-written manifest whose ``storage`` block is ``storage_block``
    (plus the geometry fields); it names one shard file that is never
    written, so a restore that gets past the block fails loudly."""
    snap = tmp_path / "snap"
    snap.mkdir()
    block = {"hot_quarters": HOT, "generation": 1, "n_shards": 1}
    block.update(storage_block)
    (snap / "manifest.json").write_text(
        json.dumps(
            {
                "format": "repro-snapshot",
                "version": STATE_VERSION,
                "n_shards": 1,
                "wal_seq": 0,
                "shards": ["shard-00-missing.json"],
                "storage": block,
            }
        )
    )
    return snap


def deep_and_hot_bounds():
    end = QUARTERS * TPQ
    return ((0, TPQ - 1), (0, end - 1), (end - 2 * TPQ, end - 1))


class TestShardingEquivalence:
    def test_spilling_cube_matches_spilling_engine_bit_for_bit(self, tmp_path):
        cube, engine, *_ = make_pair(tmp_path)
        try:
            for t_b, t_e in deep_and_hot_bounds():
                assert cube.window_isbs(t_b, t_e) == engine.window_isbs(
                    t_b, t_e
                )
        finally:
            cube.close()

    def test_storage_stats_aggregate_shards(self, tmp_path):
        cube, engine, *_ = make_pair(tmp_path)
        try:
            cube.window_isbs(0, TPQ - 1)  # force at least one fault
            stats = cube.storage_stats()
            assert stats["backend"] == "file"
            assert stats["generation"] == 1
            assert stats["hot_quarters"] == HOT
            assert len(stats["shards"]) == 3
            for key in ("pages", "rows", "pages_spilled", "cold_slots"):
                assert stats[key] == sum(s[key] for s in stats["shards"])
                assert stats[key] > 0
            assert stats["cold_faults"] > 0
        finally:
            cube.close()


class TestDurabilityAndElasticity:
    def test_manifest_records_storage_and_restore_continues(self, tmp_path):
        cube, _, config, layers, policy, _ = make_pair(tmp_path)
        restored = None
        try:
            manifest = cube.snapshot(tmp_path / "snap")
            block = manifest["storage"]
            assert block["backend"] == "file"
            assert block["hot_quarters"] == HOT
            assert block["generation"] == 1
            assert block["n_shards"] == 3
            restored = ShardedStreamCube.restore(
                tmp_path / "snap", layers, policy, storage=config
            )
            for t_b, t_e in deep_and_hot_bounds():
                assert restored.window_isbs(t_b, t_e) == cube.window_isbs(
                    t_b, t_e
                )
        finally:
            if restored is not None:
                restored.close()
            cube.close()

    @pytest.mark.parametrize("backend", ["shoebox", "", "FILE"])
    def test_manifest_of_another_store_is_refused_before_any_load(
        self, tmp_path, backend
    ):
        """A snapshot taken over another build's cold store: restore fails
        typed before reading a shard file (none exist here to read)."""
        snap = foreign_snapshot(tmp_path, {"backend": backend})
        layers, policy = build()
        config = StorageConfig(root=tmp_path / "cube-store", hot_quarters=HOT)
        with pytest.raises(StorageError, match=repr(backend)):
            ShardedStreamCube.restore(snap, layers, policy, storage=config)
        assert not (tmp_path / "cube-store").exists()

    def test_manifest_storage_block_without_backend_is_refused(
        self, tmp_path
    ):
        snap = foreign_snapshot(tmp_path, {})
        layers, policy = build()
        config = StorageConfig(root=tmp_path / "cube-store", hot_quarters=HOT)
        with pytest.raises(CodecError, match="backend"):
            ShardedStreamCube.restore(snap, layers, policy, storage=config)
        assert not (tmp_path / "cube-store").exists()

    def test_reshard_repartitions_cold_pages_and_stays_identical(
        self, tmp_path
    ):
        cube, engine, *_ = make_pair(tmp_path)
        resharded = None
        try:
            resharded = cube.reshard(2)
            assert resharded.storage_stats()["generation"] == 2
            for t_b, t_e in deep_and_hot_bounds():
                assert resharded.window_isbs(t_b, t_e) == cube.window_isbs(
                    t_b, t_e
                )
            # The resharded cube keeps spilling into its own generation.
            more = traffic(31, 16, start=QUARTERS)
            resharded.ingest_batch(more)
            engine.ingest_many(more)
            t = (QUARTERS + 16) * TPQ
            resharded.advance_to(t)
            engine.advance_to(t)
            assert resharded.window_isbs(0, t - 1) == engine.window_isbs(
                0, t - 1
            )
        finally:
            if resharded is not None:
                resharded.close()
            cube.close()

    def test_compact_storage_prunes_stale_generations(self, tmp_path):
        cube, engine, *_ = make_pair(tmp_path)
        resharded = None
        try:
            resharded = cube.reshard(2)
            cube.close()
            root = tmp_path / "cube-store"
            assert (root / "g0001.ok").exists()
            resharded.compact_storage()
            assert not (root / "g0001.ok").exists()
            assert (root / "g0002.ok").exists()
            # Only generation-2 store files remain.
            leftovers = {
                p.name for p in root.iterdir() if not p.name.startswith("g0002")
            }
            assert leftovers == set()
            # And the survivor still answers deep history.
            assert (
                resharded.window_isbs(0, TPQ - 1)
                == engine.window_isbs(0, TPQ - 1)
            )
        finally:
            if resharded is not None:
                resharded.close()

    def test_oracle_agreement_end_to_end(self, tmp_path):
        cube, _, _, layers, policy, records = make_pair(tmp_path)
        try:
            oracle = RawStreamOracle(layers, policy, ticks_per_quarter=TPQ)
            oracle.ingest(records)
            oracle.advance_to(QUARTERS * TPQ)
            end = QUARTERS * TPQ
            assert_cells_equal(
                cube.window_isbs(0, end - 1),
                oracle.window_isbs(0, end - 1),
                "sharded deep window",
            )
        finally:
            cube.close()
