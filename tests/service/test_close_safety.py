"""Cube lifecycle: ``close()`` is idempotent and failed inits leak nothing.

A cube owns real resources now — worker processes, thread pools — so
closing twice, closing a half-built cube, and the context-manager path all
need pinning down.
"""

from __future__ import annotations

import pytest

import repro.service.sharding as sharding
from repro.errors import ServiceError, StreamError
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig

from tests.service.conftest import TPQ, workload


class TestCloseIdempotence:
    def test_double_close_inproc(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        cube.ingest_batch(workload(1, quarters=1))
        cube.close()
        cube.close()  # second close is a no-op, not an error

    def test_double_close_process(self, layers, policy):
        cube = ShardedStreamCube(
            layers,
            policy,
            n_shards=2,
            ticks_per_quarter=TPQ,
            backend="process",
        )
        cube.ingest_batch(workload(1, quarters=1))
        cube.close()
        cube.close()

    def test_context_manager_closes(self, layers, policy, tmp_path):
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        with ShardedStreamCube(
            layers,
            policy,
            n_shards=2,
            ticks_per_quarter=TPQ,
            storage=storage,
        ) as cube:
            cube.ingest_batch(workload(1, quarters=4))
            cube.advance_to(4 * TPQ)
        assert cube._closed

    def test_close_then_close_with_stores(self, layers, policy, tmp_path):
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        cube = ShardedStreamCube(
            layers,
            policy,
            n_shards=2,
            ticks_per_quarter=TPQ,
            storage=storage,
        )
        cube.close()
        cube.close()


class TestFailedInit:
    def test_invalid_shard_count_before_any_resource(self, layers, policy):
        with pytest.raises(ServiceError, match="n_shards"):
            ShardedStreamCube(
                layers, policy, n_shards=0, ticks_per_quarter=TPQ
            )

    def test_engine_failure_with_storage_raises_its_own_error(
        self, layers, policy, tmp_path
    ):
        """Stores open before the engines build; an engine constructor's
        error surfaces unmasked by the constructor's own close()."""
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        with pytest.raises(StreamError, match="ticks_per_quarter"):
            ShardedStreamCube(
                layers,
                policy,
                n_shards=2,
                ticks_per_quarter=0,  # engine ctor rejects this
                storage=storage,
            )

    def test_backend_failure_with_storage_raises_its_own_error(
        self, layers, policy, tmp_path, monkeypatch
    ):
        """Same guarantee when the backend itself fails to build."""

        def exploding(*args, **kwargs):
            raise RuntimeError("backend wiring failed")

        monkeypatch.setattr(sharding, "InprocBackend", exploding)
        storage = StorageConfig(root=tmp_path / "cold", hot_quarters=2)
        with pytest.raises(RuntimeError, match="backend wiring"):
            ShardedStreamCube(
                layers,
                policy,
                n_shards=2,
                ticks_per_quarter=TPQ,
                storage=storage,
            )

    def test_failed_init_cube_close_still_idempotent(self, layers, policy):
        try:
            ShardedStreamCube(
                layers, policy, n_shards=0, ticks_per_quarter=TPQ
            )
        except ServiceError:
            pass  # nothing to close — and close() already ran safely
