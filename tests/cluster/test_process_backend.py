"""Process-backed cubes answer bit-identically to a single engine.

The headline guarantee of the process backend: for any workload, shard
count and chunk size, every query of a cube whose shards live in forked
worker processes equals — float for float — the same query against one
in-process :class:`StreamCubeEngine`.  Snapshots, restores and reshards
cross the backend boundary in both directions without loss.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig
from repro.errors import HierarchyError, ServiceError
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.stream.engine import StreamCubeEngine
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.cluster.conftest import TPQ, workload


def single_engine(layers, policy, records, end_tick):
    engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
    engine.ingest_many(records)
    engine.advance_to(end_tick)
    return engine


def process_cube(layers, policy, k=2, **kwargs):
    kwargs.setdefault("backend", "process")
    return ShardedStreamCube(
        layers, policy, n_shards=k, ticks_per_quarter=TPQ, **kwargs
    )


class TestBitIdentity:
    @pytest.mark.parametrize("k", (1, 3))
    def test_ingest_batch_equals_engine(self, layers, policy, k):
        records = workload(11)
        end = 6 * TPQ
        engine = single_engine(layers, policy, records, end)
        with process_cube(layers, policy, k) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            assert cube.m_cells(4) == engine.m_cells(4)
            assert cube.window_isbs(0, end - 1) == engine.window_isbs(
                0, end - 1
            )
            assert cube.change_exceptions() == engine.change_exceptions()
            assert cube.records_ingested == engine.records_ingested
            assert cube.tracked_cells == engine.tracked_cells
            assert cube.current_quarter == engine.current_quarter

    def test_single_record_ingest_path(self, layers, policy):
        records = workload(4, quarters=2)
        end = 2 * TPQ
        engine = single_engine(layers, policy, records, end)
        with process_cube(layers, policy, 2) as cube:
            for record in records:
                cube.ingest(record)
            cube.advance_to(end)
            assert cube.m_cells(2) == engine.m_cells(2)

    def test_tiny_chunks_equal_one_chunk(self, layers, policy):
        """Chunked pipelined dispatch is associative: a 16-record chunk
        size (many chunks per shard per batch) changes nothing."""
        records = workload(23)
        end = 6 * TPQ
        with process_cube(layers, policy, 2) as one, process_cube(
            layers,
            policy,
            2,
            backend=ClusterConfig(backend="process", ingest_chunk=16),
        ) as tiny:
            one.ingest_batch(records)
            one.advance_to(end)
            tiny.ingest_batch(records)
            tiny.advance_to(end)
            assert tiny.m_cells(4) == one.m_cells(4)
            assert tiny.change_exceptions() == one.change_exceptions()

    def test_matches_inproc_backend_exactly(self, layers, policy):
        records = workload(31)
        end = 6 * TPQ
        with ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ
        ) as inproc, process_cube(layers, policy, 3) as proc:
            inproc.ingest_batch(records)
            inproc.advance_to(end)
            proc.ingest_batch(records)
            proc.advance_to(end)
            assert proc.refresh(4).o_layer_exceptions() == inproc.refresh(
                4
            ).o_layer_exceptions()
            assert (
                proc.o_layer_change_exceptions()
                == inproc.o_layer_change_exceptions()
            )


class TestSnapshotAcrossBackends:
    def test_process_snapshot_restores_inproc(
        self, layers, policy, tmp_path
    ):
        records = workload(8)
        end = 6 * TPQ
        with process_cube(layers, policy, 2) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            cube.snapshot(tmp_path / "snap")
            expected = cube.m_cells(4)
        with ShardedStreamCube.restore(
            tmp_path / "snap", layers, policy
        ) as restored:
            assert restored.m_cells(4) == expected

    def test_inproc_snapshot_restores_process(
        self, layers, policy, tmp_path
    ):
        records = workload(8)
        end = 6 * TPQ
        with ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        ) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            cube.snapshot(tmp_path / "snap")
            expected = cube.m_cells(4)
        with ShardedStreamCube.restore(
            tmp_path / "snap", layers, policy, backend="process"
        ) as restored:
            assert restored.m_cells(4) == expected
            assert restored.parallel_stats()["backend"] == "process"

    def test_reshard_under_process_backend(self, layers, policy):
        records = workload(8)
        end = 6 * TPQ
        with process_cube(layers, policy, 2) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            expected = cube.m_cells(4)
            wider = cube.reshard(4)
            try:
                assert wider.n_shards == 4
                assert wider.parallel_stats()["backend"] == "process"
                assert wider.m_cells(4) == expected
                # Ingestion continues seamlessly after the reshard.
                more = [
                    r for r in workload(9, quarters=7) if r.t >= end
                ]
                wider.ingest_batch(more)
                assert (
                    wider.records_ingested
                    == len(records) + len(more)
                )
            finally:
                wider.close()


class TestProcessSurface:
    def test_shards_property_refuses(self, layers, policy):
        with process_cube(layers, policy, 2) as cube:
            with pytest.raises(ServiceError, match="worker processes"):
                cube.shards

    def test_parallel_stats_reports_workers(self, layers, policy):
        with process_cube(layers, policy, 2) as cube:
            cube.ingest_batch(workload(2, quarters=2))
            stats = cube.parallel_stats()
            assert stats["backend"] == "process"
            assert stats["workers"] == 2
            assert len(stats["pids"]) == 2
            assert all(isinstance(pid, int) for pid in stats["pids"])
            assert stats["restarts"] == 0
            assert stats["rpc_round_trips"] > 0
            assert len(stats["queue_high_water"]) == 2

    def test_chaos_hooks_require_process_backend(self, layers, policy):
        with ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        ) as cube:
            with pytest.raises(ServiceError, match="process backend"):
                cube.kill_worker(0)
            with pytest.raises(ServiceError, match="process backend"):
                cube.arm_worker_fault(0, "exit", "ping")

    def test_parent_side_validation_keeps_wal_clean(
        self, layers, policy, tmp_path
    ):
        """With a WAL attached, a bad key is rejected *before* journaling
        and before dispatch — the parent validates every key itself."""
        wal = QuarterWAL(tmp_path / "cube.wal")
        with process_cube(layers, policy, 2, wal=wal) as cube:
            cube.ingest_batch(workload(3, quarters=1))
            seq = wal.last_seq
            bad = [StreamRecord(("nope", "nope"), TPQ, 1.0)]
            with pytest.raises(HierarchyError):
                cube.ingest_batch(bad)
            with pytest.raises(HierarchyError):
                cube.ingest(bad[0])
            assert wal.last_seq == seq  # nothing journaled
            # The cube still works after the rejection.
            cube.advance_to(2 * TPQ)
            assert cube.current_quarter == 2


class TestProcessWithStorage:
    def test_spilling_workers_stay_bit_identical(
        self, layers, policy, tmp_path
    ):
        records = workload(13, quarters=8)
        end = 8 * TPQ
        engine = single_engine(layers, policy, records, end)
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        with process_cube(layers, policy, 2, storage=storage) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            # A deep window reaching below the hot horizon faults cold
            # pages inside the workers.
            assert cube.window_isbs(0, end - 1) == engine.window_isbs(
                0, end - 1
            )
            stats = cube.storage_stats()
            assert stats["backend"] == "file"
            assert len(stats["shards"]) == 2
            assert stats["pages_spilled"] > 0
