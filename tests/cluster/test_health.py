"""Shard health: states, versioning, partial broadcasts, safe shutdown.

The service layer's degraded mode is built entirely on what this file
pins: the ``healthy / recovering / degraded / dead`` roster, the
``health_version`` counter that invalidates router caches, the
``broadcast_partial`` holes a dead shard leaves behind, and a ``close()``
that never raises for a sick fleet — plus the end-to-end corruption
story: a silently corrupted cold page is quarantined, the shard is
rebuilt from snapshot + WAL replay, and the answer comes back exact.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig
from repro.errors import ServiceError
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
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
    storage = config_kwargs.pop("storage", None)
    wal = QuarterWAL(tmp_path / "cube.wal")
    return ShardedStreamCube(
        layers,
        policy,
        n_shards=k,
        ticks_per_quarter=TPQ,
        wal=wal,
        storage=storage,
        backend=ClusterConfig(**config_kwargs),
    )


def doom_shard(cube, shard=1):
    """Kill one worker under a zero restart budget: sticky-dead."""
    cube.kill_worker(shard)
    with pytest.raises(ServiceError, match="restart budget"):
        cube.m_cells(4)


class TestHealthRoster:
    def test_fresh_fleet_is_healthy(self, layers, policy, tmp_path):
        with walled_cube(layers, policy, tmp_path) as cube:
            roster = cube.health()
            assert [s["state"] for s in roster] == ["healthy", "healthy"]
            assert [s["shard"] for s in roster] == [0, 1]
            assert all(s["reason"] is None for s in roster)
            assert isinstance(cube.health_version(), int)

    def test_recovered_shard_reports_healthy_with_restarts(
        self, layers, policy, tmp_path
    ):
        with walled_cube(layers, policy, tmp_path) as cube:
            cube.ingest_batch(workload(3))
            cube.advance_to(2 * TPQ)
            before = cube.health_version()
            cube.kill_worker(1)
            cube.m_cells(4)  # detects the crash, revives, retries
            roster = cube.health()
            assert roster[1]["state"] == "healthy"
            assert roster[1]["restarts"] == 1
            # Death and revival are distinct transitions: the version
            # moved more than once, so no cache can span the outage.
            assert cube.health_version() > before + 1

    def test_budget_exhaustion_is_sticky_dead(
        self, layers, policy, tmp_path
    ):
        cube = walled_cube(
            layers, policy, tmp_path, max_restarts=0
        )
        try:
            cube.ingest_batch(workload(3))
            doom_shard(cube)
            roster = cube.health()
            assert roster[1]["state"] == "dead"
            assert "restart budget" in roster[1]["reason"]
            # Sticky: the next call fails fast with the same refusal
            # instead of re-running a recovery that cannot succeed.
            with pytest.raises(ServiceError, match="restart budget"):
                cube.m_cells(4)
            assert cube.health()[1]["restarts"] == 0
        finally:
            cube.close()

    def test_last_quarter_is_the_staleness_bound(
        self, layers, policy, tmp_path
    ):
        cube = walled_cube(
            layers, policy, tmp_path, max_restarts=0
        )
        try:
            cube.ingest_batch(workload(3))  # spans quarters 0..5
            cube.advance_to(6 * TPQ)
            doom_shard(cube)
            assert cube.health()[1]["last_quarter"] == 6
        finally:
            cube.close()


class TestBroadcastPartial:
    def test_strict_mode_still_raises(self, layers, policy, tmp_path):
        cube = walled_cube(
            layers, policy, tmp_path, max_restarts=0
        )
        try:
            cube.ingest_batch(workload(3))
            doom_shard(cube)
            # degraded_reads defaults to False: library users get the
            # loud failure unless they opt in (the HTTP service does).
            with pytest.raises(ServiceError, match="restart budget"):
                cube.change_exceptions()
        finally:
            cube.close()

    def test_degraded_reads_merge_surviving_shards(
        self, layers, policy, tmp_path
    ):
        records = workload(6)  # spans quarters 0..5
        end = 6 * TPQ
        cube = walled_cube(
            layers, policy, tmp_path, max_restarts=0
        )
        try:
            cube.ingest_batch(records)
            cube.advance_to(end)
            doom_shard(cube)
            cube.degraded_reads = True
            partial = cube.window_isbs(0, end - 1)
            holes = cube.consume_degraded()
            assert [h["shard"] for h in holes] == [1]
            assert holes[0]["state"] == "dead"
            assert "restart budget" in holes[0]["reason"]
            assert holes[0]["last_quarter"] == 6
            # The partial answer is exactly the surviving shard's slice
            # of the truth: a subset, never garbage.
            full = single_engine(
                layers, policy, records, end
            ).window_isbs(0, end - 1)
            assert partial
            assert all(full[key] == isb for key, isb in partial.items())
        finally:
            cube.close()

    def test_consume_degraded_drains_and_dedupes(
        self, layers, policy, tmp_path
    ):
        cube = walled_cube(
            layers, policy, tmp_path, max_restarts=0
        )
        try:
            cube.ingest_batch(workload(3))
            cube.advance_to(2 * TPQ)
            doom_shard(cube)
            cube.degraded_reads = True
            cube.m_cells(4)
            cube.change_exceptions()  # same dead shard, one descriptor
            holes = cube.consume_degraded()
            assert [h["shard"] for h in holes] == [1]
            assert cube.consume_degraded() == []  # drained
        finally:
            cube.close()


class TestCloseWithSickFleet:
    def test_close_after_sticky_dead_does_not_raise(
        self, layers, policy, tmp_path
    ):
        """Satellite contract: ``close()`` reaps dead workers silently
        and reports them in the summary instead of raising."""
        cube = walled_cube(
            layers, policy, tmp_path, max_restarts=0
        )
        cube.ingest_batch(workload(3))
        doom_shard(cube)
        cube.close()  # must not raise
        summary = cube.close_summary
        assert summary["backend"] == "process"
        assert summary["reaped"] == [1]
        assert "restart budget" in summary["doomed"][1]
        cube.close()  # idempotent, still quiet

    def test_close_summary_for_healthy_fleet(
        self, layers, policy, tmp_path
    ):
        cube = walled_cube(layers, policy, tmp_path)
        cube.ingest_batch(workload(2))
        cube.close()
        assert cube.close_summary["drained"] == 2
        assert cube.close_summary["reaped"] == []
        assert cube.close_summary["doomed"] == {}


class TestCorruptColdPageRebuild:
    def test_quarantine_then_rebuild_answers_exactly(
        self, layers, policy, tmp_path
    ):
        """Silent media corruption, end to end: a cold page's bytes rot
        on disk, the worker's read fails its checksum and quarantines the
        page, the supervisor rebuilds the shard (respawn + full WAL
        replay re-derives and re-puts every page), and the deep window
        comes back bit-identical to a never-corrupted engine."""
        records = workload(13, quarters=8)
        end = 8 * TPQ
        engine = single_engine(layers, policy, records, end)
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        cube = walled_cube(layers, policy, tmp_path, storage=storage)
        try:
            cube.ingest_batch(records)
            cube.advance_to(end)
            segments = sorted((tmp_path / "cold").rglob("L*.seg"))
            assert segments, "no pages spilled; widen the workload"
            # Rot the tail of every segment file: the last byte sits in
            # some page's float column, caught by the whole-page CRC.
            for path in segments:
                raw = bytearray(path.read_bytes())
                raw[-1] ^= 0x40
                path.write_bytes(bytes(raw))
            assert cube.window_isbs(0, end - 1) == engine.window_isbs(
                0, end - 1
            )
            assert cube.parallel_stats()["restarts"] >= 1
            assert [s["state"] for s in cube.health()] == [
                "healthy",
                "healthy",
            ]
        finally:
            cube.close()
