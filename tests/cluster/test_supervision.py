"""Supervision: crashes, restarts, replay, timeouts and budgets.

Every test kills (or stalls) a live worker and asserts the cube's answers
afterwards are bit-identical to a never-crashed single engine — the
supervisor's whole contract.  Recovery legs cover both the full-WAL
replay path and the snapshot + WAL-tail path through ``recovery_dir``.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig
from repro.errors import ServiceError
from repro.service.sharding import ShardedStreamCube
from repro.stream.engine import StreamCubeEngine
from repro.stream.wal import QuarterWAL

from tests.cluster.conftest import TPQ, workload


def single_engine(layers, policy, records, end_tick):
    engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
    engine.ingest_many(records)
    engine.advance_to(end_tick)
    return engine


def walled_cube(layers, policy, tmp_path, k=2, **config_kwargs):
    config_kwargs.setdefault("backend", "process")
    wal = QuarterWAL(tmp_path / "cube.wal")
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=k,
        ticks_per_quarter=TPQ,
        wal=wal,
        backend=ClusterConfig(**config_kwargs),
    )
    return cube


class TestCrashRecovery:
    def test_kill_then_full_wal_replay(self, layers, policy, tmp_path):
        records = workload(6)
        end = 6 * TPQ
        engine = single_engine(layers, policy, records, end)
        with walled_cube(layers, policy, tmp_path) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            cube.kill_worker(1)
            # The next query detects the crash, revives the worker,
            # replays the whole WAL into it, and retries.
            assert cube.m_cells(4) == engine.m_cells(4)
            assert cube.parallel_stats()["restarts"] == 1
            assert (
                cube.change_exceptions() == engine.change_exceptions()
            )

    def test_crash_mid_apply_is_replay_covered(
        self, layers, policy, tmp_path
    ):
        """A worker that dies *inside* apply_segments loses the in-flight
        batch — but the batch was journaled first, so the revival's replay
        re-applies it and the final state is exact."""
        records = workload(17)
        end = 6 * TPQ
        engine = single_engine(layers, policy, records, end)
        half = len(records) // 2
        with walled_cube(layers, policy, tmp_path) as cube:
            cube.ingest_batch(records[:half])
            cube.arm_worker_fault(0, "exit", "apply_segments")
            cube.ingest_batch(records[half:])
            cube.advance_to(end)
            assert cube.parallel_stats()["restarts"] == 1
            assert cube.m_cells(4) == engine.m_cells(4)
            assert cube.window_isbs(0, end - 1) == engine.window_isbs(
                0, end - 1
            )

    def test_crash_mid_advance_is_replay_covered(
        self, layers, policy, tmp_path
    ):
        records = workload(21, quarters=3)
        end = 4 * TPQ
        engine = single_engine(layers, policy, records, end)
        with walled_cube(layers, policy, tmp_path) as cube:
            cube.ingest_batch(records)
            cube.arm_worker_fault(1, "exit", "advance_to")
            cube.advance_to(end)
            assert cube.current_quarter == 4
            assert cube.m_cells(4) == engine.m_cells(4)

    def test_crash_mid_snapshot_write_is_retried(
        self, layers, policy, tmp_path
    ):
        """snapshot_to_file is idempotent: the killed worker's write is
        atomic (temp + rename), so the retry against the revived worker
        produces a complete, loadable snapshot."""
        records = workload(12)
        end = 6 * TPQ
        with walled_cube(layers, policy, tmp_path) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            expected = cube.m_cells(4)
            cube.arm_worker_fault(0, "exit", "snapshot_to_file")
            cube.snapshot(tmp_path / "snap")
            assert cube.parallel_stats()["restarts"] == 1
        with ShardedStreamCube.restore(
            tmp_path / "snap", layers, policy
        ) as restored:
            assert restored.m_cells(4) == expected

    def test_snapshot_tail_recovery(self, layers, policy, tmp_path):
        """With recovery_dir set, a revival loads the shard's snapshot
        slice and replays only the WAL tail past the manifest's seq."""
        records = workload(14)
        end = 6 * TPQ
        engine = single_engine(layers, policy, records, end)
        half = len(records) // 2
        snap = tmp_path / "snap"
        with walled_cube(
            layers, policy, tmp_path, recovery_dir=str(snap)
        ) as cube:
            cube.ingest_batch(records[:half])
            cube.snapshot(snap)
            cube.ingest_batch(records[half:])
            cube.advance_to(end)
            cube.kill_worker(0)
            assert cube.m_cells(4) == engine.m_cells(4)
            assert cube.parallel_stats()["restarts"] == 1

    def test_rpc_timeout_revives_and_retries(
        self, layers, policy, tmp_path
    ):
        """A stalled worker trips the RPC timeout; the idempotent read is
        retried against the revived worker and still answers exactly."""
        records = workload(10, quarters=4)
        end = 4 * TPQ
        engine = single_engine(layers, policy, records, end)
        with walled_cube(
            layers, policy, tmp_path, rpc_timeout=0.5
        ) as cube:
            cube.ingest_batch(records)
            cube.advance_to(end)
            # Every merged read dispatches the one window method,
            # ``window_columns`` (the parent fixes the bounds under its read
            # cut), so that is where the stall must land.
            cube.arm_worker_fault(1, "sleep", "window_columns", 2.0)
            assert cube.m_cells(4) == engine.m_cells(4)
            stats = cube.parallel_stats()
            assert stats["restarts"] == 1


class TestRefusals:
    def test_no_wal_refuses_recovery(self, layers, policy):
        with ShardedStreamCube(
            layers,
            policy,
            n_shards=2,
            ticks_per_quarter=TPQ,
            backend="process",
        ) as cube:
            cube.ingest_batch(workload(3, quarters=2))
            cube.kill_worker(0)
            with pytest.raises(ServiceError, match="no WAL"):
                cube.advance_to(3 * TPQ)

    def test_restart_budget_exhaustion(self, layers, policy, tmp_path):
        with walled_cube(
            layers, policy, tmp_path, max_restarts=0
        ) as cube:
            cube.ingest_batch(workload(3, quarters=2))
            cube.kill_worker(1)
            with pytest.raises(ServiceError, match="restart budget"):
                cube.advance_to(3 * TPQ)

    def test_crash_during_prune_is_unrecoverable(
        self, layers, policy, tmp_path
    ):
        with walled_cube(layers, policy, tmp_path) as cube:
            cube.ingest_batch(workload(3, quarters=2))
            cube.arm_worker_fault(0, "exit", "prune_idle")
            with pytest.raises(
                ServiceError, match="neither journaled nor idempotent"
            ):
                cube.prune_idle(1)

    def test_prune_after_snapshot_blocks_recovery(
        self, layers, policy, tmp_path
    ):
        """prune_idle is not journaled, so a WAL replay after a prune
        would resurrect pruned cells — the supervisor refuses instead,
        and the refusal is sticky: the shard stays failed rather than
        silently serving an empty state."""
        snap = tmp_path / "snap"
        with walled_cube(
            layers, policy, tmp_path, recovery_dir=str(snap)
        ) as cube:
            records = workload(16)
            cube.ingest_batch(records)
            cube.advance_to(6 * TPQ)
            cube.snapshot(snap)
            cube.prune_idle(1)
            cube.kill_worker(0)
            with pytest.raises(ServiceError, match="prune_idle"):
                cube.m_cells(4)
            with pytest.raises(ServiceError, match="prune_idle"):
                cube.m_cells(4)

    def test_snapshot_after_prune_reanchors_recovery(
        self, layers, policy, tmp_path
    ):
        """Snapshotting *after* a prune captures the pruned state and
        clears the refusal: the next crash recovers normally."""
        snap = tmp_path / "snap"
        with walled_cube(
            layers, policy, tmp_path, recovery_dir=str(snap)
        ) as cube:
            cube.ingest_batch(workload(16))
            cube.advance_to(6 * TPQ)
            cube.prune_idle(1)
            cube.snapshot(snap)
            expected = cube.m_cells(4)
            cube.kill_worker(0)
            assert cube.m_cells(4) == expected
            assert cube.parallel_stats()["restarts"] == 1

    def test_manifest_shard_count_mismatch_refuses(
        self, layers, policy, tmp_path
    ):
        snap = tmp_path / "snap"
        with walled_cube(
            layers, policy, tmp_path, k=2, recovery_dir=str(snap)
        ) as cube:
            cube.ingest_batch(workload(5, quarters=2))
            cube.snapshot(snap)
        # Rewrite the manifest to claim a different shard count.
        import json

        manifest_path = snap / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["n_shards"] = 5
        # Drop the self-checksum: this simulates an honest manifest from a
        # different shard count, not corruption (which has its own tests).
        manifest.pop("checksum", None)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with walled_cube(
            layers, policy, tmp_path, k=2, recovery_dir=str(snap)
        ) as cube:
            cube.ingest_batch(
                [r for r in workload(5, quarters=3) if r.t >= 2 * TPQ]
            )
            cube.kill_worker(0)
            with pytest.raises(ServiceError, match="written under"):
                cube.m_cells(2)


class TestBackpressureAndShutdown:
    def test_queue_high_water_rises_under_pileup(
        self, layers, policy, tmp_path
    ):
        """Stalling a worker briefly while several requests queue behind
        the stall drives the high-water gauge above one."""
        with walled_cube(layers, policy, tmp_path, k=1) as cube:
            cube.ingest_batch(workload(3, quarters=2))
            backend = cube._backend
            backend.call(0, "_arm_fault", "sleep", "ping", 0.3)
            futures = [backend.submit(0, "ping") for _ in range(4)]
            for future in futures:
                future.result()
            assert cube.parallel_stats()["queue_high_water"][0] > 1

    def test_backend_close_is_idempotent(self, layers, policy, tmp_path):
        cube = walled_cube(layers, policy, tmp_path)
        cube.ingest_batch(workload(2, quarters=2))
        backend = cube._backend
        cube.close()
        cube.close()
        backend.close()
        with pytest.raises(ServiceError, match="closed"):
            backend.call(0, "ping")

    def test_workers_reaped_on_close(self, layers, policy, tmp_path):
        import os

        cube = walled_cube(layers, policy, tmp_path)
        pids = cube.parallel_stats()["pids"]
        cube.close()
        for pid in pids:
            # After close + join the pid is either gone or a zombie the
            # multiprocessing finalizer already reaped; a live worker
            # would still answer signal 0.
            try:
                os.kill(pid, 0)
                alive = True
            except OSError:
                alive = False
            assert not alive or not _is_running(pid)


def _is_running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().split()[2] not in ("Z", "X")
    except OSError:
        return False
