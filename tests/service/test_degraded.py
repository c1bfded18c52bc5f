"""Degraded-mode serving over HTTP: partial answers, probes, manifests.

The service's availability contract: a fleet with a quarantined shard
keeps answering ``POST /query`` with 200 and a ``degraded`` block (never a
500) — also when the answer comes from the router's cache or a
single-flight leader, and then with no ``ETag`` — while ``/healthz`` and
``/readyz`` stay green; and a tampered snapshot manifest refuses restore
with a typed :class:`CorruptionError`.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import CorruptionError
from repro.io import payload_checksum
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube

from tests.service.conftest import TPQ, workload

CELL = {"op": "cell", "coord": [1, 1], "values": [0, 0]}


def quarantined(*args):
    raise CorruptionError("shard 1: cold page quarantined (injected)")


@pytest.fixture
def fragile(layers, policy):
    """A 2-shard service with six sealed quarters."""
    cube = ShardedStreamCube(layers, policy, n_shards=2, ticks_per_quarter=TPQ)
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z}
        for r in workload(3)
    ]
    status, _ = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200
    service.handle("POST", "/advance", {"t": 6 * TPQ})
    yield service
    service.close()


def lose(service, shard=1):
    """Make one shard's window reads raise what a quarantined cold page
    raises (before any query, so no healthy answer is cached)."""
    service.cube.shards[shard].window_columns = quarantined


def assert_missing_shard_1(block):
    assert block == {
        "missing": [
            {
                "shard": 1,
                "state": "degraded",
                "reason": "shard 1: cold page quarantined (injected)",
                "last_quarter": 6,
            }
        ],
        "staleness_bound": 6,
    }


class TestProbes:
    def test_healthy_fleet_probes(self, fragile):
        status, body = fragile.handle("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert [s["state"] for s in body["shards"]] == [
            "healthy",
            "healthy",
        ]
        status, body = fragile.handle("GET", "/readyz")
        assert (status, body) == (
            200,
            {"ready": True, "shards": 2, "dead_shards": []},
        )

    def test_quarantine_keeps_probes_green(self, fragile):
        """A quarantined shard makes answers partial, not the service
        unready: liveness and readiness stay 200."""
        lose(fragile)
        status, body = fragile.handle("POST", "/query", CELL)
        assert status == 200 and "degraded" in body
        status, body = fragile.handle("GET", "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, body = fragile.handle("GET", "/readyz")
        assert (status, body["ready"]) == (200, True)


class TestDegradedQueries:
    def test_query_returns_200_with_degraded_block(self, fragile):
        lose(fragile)
        status, body = fragile.handle(
            "POST", "/query", {"op": "change_exceptions", "layer": "o"}
        )
        assert status == 200
        assert_missing_shard_1(body["degraded"])

    def test_repeat_queries_stay_200(self, fragile):
        lose(fragile)
        for _ in range(3):
            status, body = fragile.handle("POST", "/query", CELL)
            assert status == 200
            assert body["degraded"]["missing"][0]["shard"] == 1

    def test_healthy_responses_have_no_block(self, fragile):
        status, body = fragile.handle("POST", "/query", CELL)
        assert status == 200
        assert "degraded" not in body

    def test_batch_queries_degrade_too(self, fragile):
        lose(fragile)
        status, body = fragile.handle(
            "POST",
            "/query",
            {
                "queries": [
                    CELL,
                    {"op": "top_slopes", "coord": [1, 1], "k": 2},
                ]
            },
        )
        assert status == 200
        assert body["count"] == 2
        assert body["degraded"]["missing"][0]["shard"] == 1


class TestPartialAnswersCarryTheirHoles:
    """A partial answer the router keeps is served with its holes: a cache
    hit, a view reused by another spec and a single-flight joiner answer
    the same ``degraded`` block as the read that computed it, and none of
    them carries an ``ETag``."""

    def test_cache_hits_carry_the_block_and_no_etag(self, fragile):
        lose(fragile)
        replies = [
            fragile.route("POST", "/query", {"op": "observation_deck"})
            for _ in range(3)
        ]
        assert fragile.router.stats()["cache_hits"] == 2
        for status, reply in replies:
            assert status == 200
            assert_missing_shard_1(reply.degraded)
            assert reply.etag is None
            assert b'"degraded"' in reply.wire

    def test_a_reused_view_carries_the_block(self, fragile):
        lose(fragile)
        fragile.handle("POST", "/query", {"op": "observation_deck"})
        # Another spec on the same window misses the result cache but
        # reuses the memoized (partial) view: no merged read runs.
        refreshes = fragile.router.stats()["refreshes"]
        status, body = fragile.handle("POST", "/query", {"op": "watch_list"})
        assert fragile.router.stats()["refreshes"] == refreshes
        assert status == 200
        assert_missing_shard_1(body["degraded"])

    def test_a_single_flight_joiner_carries_the_block(self, fragile):
        entered, release = threading.Event(), threading.Event()

        def slow_quarantined(*args):
            entered.set()
            assert release.wait(10)
            quarantined()

        fragile.cube.shards[1].window_columns = slow_quarantined
        replies: dict[str, tuple] = {}

        def pull(name):
            replies[name] = fragile.route(
                "POST", "/query", {"op": "observation_deck"}
            )

        leader = threading.Thread(target=pull, args=("leader",))
        leader.start()
        assert entered.wait(10)
        joiner = threading.Thread(target=pull, args=("joiner",))
        joiner.start()
        deadline = time.monotonic() + 10
        while fragile.router.stats()["single_flight_joins"] < 1:
            assert time.monotonic() < deadline, "the joiner never joined"
            time.sleep(0.001)
        release.set()
        leader.join(10)
        joiner.join(10)
        assert not leader.is_alive() and not joiner.is_alive()
        for name in ("leader", "joiner"):
            status, reply = replies[name]
            assert status == 200, name
            assert_missing_shard_1(reply.degraded)
            assert reply.etag is None, name


class TestManifestChecksum:
    def snapshot(self, layers, policy, tmp_path):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        try:
            cube.ingest_batch(workload(5))
            cube.advance_to(6 * TPQ)
            cube.snapshot(tmp_path / "snap")
        finally:
            cube.close()
        return tmp_path / "snap"

    def test_tampered_manifest_refuses_restore(
        self, layers, policy, tmp_path
    ):
        snap = self.snapshot(layers, policy, tmp_path)
        manifest_path = snap / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["current_quarter"] = 2  # rot one field, keep old checksum
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(CorruptionError, match="failed its checksum"):
            ShardedStreamCube.read_manifest(snap)

    def test_checksum_absent_is_accepted(self, layers, policy, tmp_path):
        """Manifests written before the checksum existed keep restoring."""
        snap = self.snapshot(layers, policy, tmp_path)
        manifest_path = snap / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        del payload["checksum"]
        manifest_path.write_text(json.dumps(payload))
        manifest = ShardedStreamCube.read_manifest(snap)
        assert manifest["n_shards"] == 2

    def test_written_manifest_checksum_verifies(
        self, layers, policy, tmp_path
    ):
        snap = self.snapshot(layers, policy, tmp_path)
        payload = json.loads((snap / "manifest.json").read_text())
        assert payload["checksum"] == payload_checksum(payload)
