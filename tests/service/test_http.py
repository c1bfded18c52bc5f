"""The JSON service: dispatch-level tests plus one live-socket round trip."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import CorruptionError
from repro.io import isb_from_dict
from repro.query import Q
from repro.service.http import StreamCubeService, make_server
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.verify.oracle import RawStreamOracle, assert_cells_equal

from tests.service.conftest import TPQ, workload
from tests.service.test_recovery import REPO_ROOT, _free_port, _wait_for_port


def cells_from_payload(rows):
    """The ``{values: isb}`` mapping of a body's cell rows."""
    return {tuple(row["values"]): isb_from_dict(row["isb"]) for row in rows}


@pytest.fixture
def service(layers, policy):
    cube = ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    yield service
    service.close()


@pytest.fixture
def loaded(service):
    records = workload(3)
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z} for r in records
    ]
    status, _ = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200
    service.handle("POST", "/advance", {"t": 6 * TPQ})
    return service


def test_a_warm_window_less_query_copies_no_spec(loaded, monkeypatch):
    """A ``/query`` payload without ``window`` takes the router's default
    when it is parsed: a warm hit runs no ``dataclasses.replace`` (every
    field normalizer again), and answers the bytes and ``ETag`` that the
    explicit default window answers."""
    from repro.query import spec as query_spec

    calls = []
    real = query_spec.replace

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(query_spec, "replace", counting)
    payload = {"op": "observation_deck"}
    first = loaded.route("POST", "/query", payload)[1]
    calls.clear()
    status, hit = loaded.route("POST", "/query", payload)
    assert status == 200 and calls == []
    window = loaded.router.window_quarters
    explicit = loaded.route("POST", "/query", {**payload, "window": window})[1]
    assert hit.wire == first.wire == explicit.wire
    assert hit.etag == explicit.etag is not None


class TestDispatch:
    def test_health(self, loaded):
        status, body = loaded.handle("GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["shards"] == 2
        assert body["current_quarter"] == 6
        assert body["records_ingested"] > 0

    def test_stats(self, loaded):
        loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        assert body["router"]["cache_misses"] >= 1
        assert len(body["shard_cells"]) == 2

    def test_point_round_trips_isb(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        assert status == 200
        isb = isb_from_dict(body["isb"])
        assert isb == loaded.router.execute(Q.cell((1, 1), (0, 0))).value

    def test_slice_and_exceptions(self, loaded):
        status, body = loaded.handle(
            "POST",
            "/query",
            {"op": "slice", "coord": [1, 1], "fixed": {"d0": 0}},
        )
        assert status == 200
        cells = cells_from_payload(body["cells"])
        assert cells == loaded.router.execute(
            Q.slice((1, 1), {"d0": 0})
        ).value

        status, body = loaded.handle("POST", "/query", {"op": "exceptions"})
        assert status == 200
        coords = {tuple(entry["coord"]) for entry in body["cuboids"]}
        assert loaded.cube.layers.o_coord in coords

    def test_change_exceptions(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "change_exceptions", "layer": "o"}
        )
        assert status == 200
        assert cells_from_payload(body["cells"]) == (
            loaded.cube.o_layer_change_exceptions(1)
        )

    def test_domain_error_maps_to_400(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [9, 9], "values": [0, 0]}
        )
        assert status == 400
        assert "error" in body and body["type"]

    def test_unknown_op_and_route(self, loaded):
        status, body = loaded.handle("POST", "/query", {"op": "magic"})
        assert status == 400
        status, body = loaded.handle("GET", "/nope")
        assert status == 404

    def test_malformed_query_fields_map_to_400(self, loaded):
        """Missing or mistyped /query fields are a client error, never an
        unanswered (dropped) request."""
        for payload in (
            {"op": "cell"},  # missing coord/values
            {"op": "cell", "coord": [1, 1], "values": [0, 0], "window": "x"},
            {"op": "top_slopes", "coord": [1, 1], "k": "many"},
            {"op": "roll_up", "coord": [1, 1], "values": [0, 0]},  # no dim
        ):
            status, body = loaded.handle("POST", "/query", payload)
            assert status == 400, payload
            assert "error" in body, payload

    def test_malformed_ingest_rejected(self, service):
        status, body = service.handle("POST", "/ingest", {"records": "nope"})
        assert status == 400
        status, body = service.handle(
            "POST", "/ingest", {"records": [{"values": [0, 0]}]}
        )
        assert status == 400
        assert service.cube.records_ingested == 0


class TestBatchQueries:
    def test_batch_returns_per_spec_results_and_errors(self, loaded):
        status, body = loaded.handle(
            "POST",
            "/query",
            {
                "queries": [
                    {"op": "watch_list"},
                    {"op": "top_slopes", "coord": [1, 1], "k": 3},
                    {"op": "cell", "coord": [9, 9], "values": [0, 0]},
                ]
            },
        )
        assert status == 200
        assert body["count"] == 3
        watch, top, bad = body["results"]
        assert watch["ok"] is True
        assert cells_from_payload(watch["cells"]) == (
            loaded.router.execute(Q.watch_list()).value
        )
        assert top["ok"] is True
        assert len(top["cells"]) <= 3
        assert bad["ok"] is False
        assert bad["type"] == "SchemaError"
        assert bad["error"]

    def test_batch_shares_one_view_refresh(self, loaded):
        before = loaded.router.refreshes
        status, _ = loaded.handle(
            "POST",
            "/query",
            {
                "queries": [
                    {"op": "cell", "coord": [1, 1], "values": [0, 0]},
                    {"op": "slice", "coord": [1, 1], "fixed": {"d0": 0}},
                    {"op": "observation_deck"},
                    {"op": "siblings", "coord": [2, 2], "values": [0, 0],
                     "dim": "d0"},
                ]
            },
        )
        assert status == 200
        assert loaded.router.refreshes == before + 1

    def test_batch_matches_single_requests(self, loaded):
        single = [
            loaded.handle("POST", "/query", q)[1]
            for q in (
                {"op": "cell", "coord": [1, 1], "values": [0, 0]},
                {"op": "watch_list"},
            )
        ]
        status, body = loaded.handle(
            "POST",
            "/query",
            {"queries": [
                {"op": "cell", "coord": [1, 1], "values": [0, 0]},
                {"op": "watch_list"},
            ]},
        )
        assert status == 200
        for got, expected in zip(body["results"], single):
            assert {k: v for k, v in got.items() if k != "ok"} == expected

    def test_batch_requires_a_list(self, loaded):
        status, body = loaded.handle("POST", "/query", {"queries": "nope"})
        assert status == 400
        assert body["type"] == "ServiceError"

    def test_change_exceptions_subscription_matches_the_oracle(
        self, loaded, layers, policy
    ):
        """A cube-level op is subscribable like any spec: one update per
        seal, equal to a from-scratch answer at that update's quarter."""
        oracle = RawStreamOracle(layers, policy, ticks_per_quarter=TPQ)
        oracle.ingest(workload(3))
        oracle.advance_to(6 * TPQ)
        # Let the dispatcher finish with the fixture's seals first, or it
        # may deliver a quarter-6 update to the new subscription.
        assert loaded.subscriptions.flush(10.0)
        status, body = loaded.handle(
            "POST",
            "/subscribe",
            {"spec": {"op": "change_exceptions", "layer": "o"}},
        )
        assert status == 200
        sub = body["subscription"]
        for quarter in (7, 8, 9):
            t0 = (quarter - 1) * TPQ
            records = [
                StreamRecord((i, i), t, float(quarter * i) + 0.5 * t)
                for t in range(t0, t0 + TPQ)
                for i in range(4)
            ]
            rows = [{"values": list(r.values), "t": r.t, "z": r.z} for r in records]
            assert loaded.handle("POST", "/ingest", {"records": rows})[0] == 200
            assert loaded.handle("POST", "/advance", {"t": t0 + TPQ})[0] == 200
            oracle.ingest(records)
            oracle.advance_to(t0 + TPQ)
            assert loaded.subscriptions.flush(10.0)
            status, body = loaded.handle(
                "GET", f"/updates?subscription={sub}&since={quarter - 7}"
            )
            assert status == 200
            (update,) = body["updates"]
            assert update["quarter"] == quarter
            assert update["result"]["op"] == "change_exceptions"
            expected = oracle.o_layer_change_exceptions(1)
            assert expected  # the jump in level is a change at the o-layer
            assert_cells_equal(
                cells_from_payload(update["result"]["cells"]),
                expected,
                f"pushed change exceptions at quarter {quarter}",
            )

    def test_the_point_alias_is_gone(self, loaded):
        status, body = loaded.handle(
            "POST", "/query", {"op": "point", "coord": [1, 1], "values": [0, 0]}
        )
        assert status == 400
        assert body["type"] == "QueryError"
        assert "unknown query op 'point'" in body["error"]


@pytest.fixture
def tiered_service(layers, policy, tmp_path):
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=2,
        ticks_per_quarter=TPQ,
        storage=StorageConfig(root=tmp_path / "cold", hot_quarters=1),
    )
    service = StreamCubeService(
        cube,
        QueryRouter(cube, window_quarters=4),
        snapshot_dir=tmp_path / "snapshots",
    )
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z} for r in workload(3)
    ]
    status, _ = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200
    service.handle("POST", "/advance", {"t": 6 * TPQ})
    yield service
    service.close()


class TestStorageStats:
    def test_storage_block_is_null_without_tiered_storage(self, loaded):
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        assert body["storage"] is None

    def test_storage_block_reports_the_cold_tier(self, tiered_service):
        status, body = tiered_service.handle("GET", "/stats")
        assert status == 200
        storage = body["storage"]
        assert storage["backend"] == "file"
        assert storage["generation"] == 1
        assert storage["hot_quarters"] == 1
        assert storage["pages"] > 0
        assert storage["rows"] > 0
        assert storage["bytes_on_disk"] > 0
        assert storage["pages_spilled"] > 0
        assert storage["cold_slots"] > 0
        assert len(storage["shards"]) == 2
        assert storage["pages"] == sum(
            shard["pages"] for shard in storage["shards"]
        )

    def test_cold_faults_show_up_after_a_deep_window(self, tiered_service):
        _, before = tiered_service.handle("GET", "/stats")
        # A five-quarter window starts mid-hour, so its decomposition needs
        # quarter slots that were demoted (the resident hour slots only
        # cover hour-aligned prefixes).
        status, _ = tiered_service.handle(
            "POST", "/query", {"op": "watch_list", "window": 5}
        )
        assert status == 200
        _, after = tiered_service.handle("GET", "/stats")
        assert (
            after["storage"]["cold_faults"]
            > before["storage"]["cold_faults"]
        )

    def test_admin_snapshot_compacts_the_cold_tier(self, tiered_service):
        status, body = tiered_service.handle("POST", "/admin/snapshot", {})
        assert status == 200
        assert body["shards"] == 2
        import json as jsonlib

        manifest = jsonlib.loads(
            (tiered_service.snapshot_dir / "manifest.json").read_text()
        )
        assert manifest["storage"]["backend"] == "file"
        assert manifest["storage"]["hot_quarters"] == 1
        # The stores survive checkpoint compaction and keep answering.
        status, body = tiered_service.handle("GET", "/stats")
        assert status == 200
        assert body["storage"]["pages"] > 0


class TestStatsEndpoint:
    def test_stats_expose_cache_views_and_batches(self, loaded):
        loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        loaded.handle(
            "POST", "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        )
        loaded.handle("POST", "/query", {"queries": [{"op": "watch_list"}]})
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        router = body["router"]
        assert router["cache_hits"] >= 1
        assert router["cache_misses"] >= 1
        assert router["cache_entries"] >= 1
        assert router["cache_capacity"] >= router["cache_entries"]
        assert router["views"] == 1
        assert router["batches"] == 1
        # Three requests, but the repeated cell query is a cache hit and
        # hits are not executions: only the first cell and the batched
        # watch_list actually ran.
        assert router["specs_executed"] == 2
        assert router["single_flight_fallbacks"] == 0
        assert len(body["shard_cells"]) == 2
        assert sum(body["shard_cells"]) > 0

    def test_stats_carry_no_worker_block(self, loaded):
        """In-process shards have no pids, restarts, RPCs or queues:
        ``/stats`` reports none, and the blocks that the e2e harness and
        clients read stay."""
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        assert "parallel" not in body
        assert {"router", "storage", "durability", "shard_cells"} <= set(body)


class TestSubscriptionEndpoints:
    def _seal_next(self, service):
        quarter = service.cube.current_quarter
        t0 = quarter * TPQ
        rows = [
            {"values": [0, 0], "t": t, "z": 5.0 + t}
            for t in range(t0, t0 + TPQ)
        ]
        status, _ = service.handle("POST", "/ingest", {"records": rows})
        assert status == 200
        status, _ = service.handle(
            "POST", "/advance", {"t": (quarter + 1) * TPQ}
        )
        assert status == 200
        assert service.subscriptions.flush(10.0)

    def test_subscribe_list_update_unsubscribe(self, loaded):
        # Drain the dispatch round triggered by the fixture's own seals:
        # a subscription registered while that round is still pending
        # legitimately rides along and would add an extra update here.
        assert loaded.subscriptions.flush(10.0)
        status, body = loaded.handle("POST", "/subscribe", {"watch": True})
        assert status == 200
        sub_id = body["subscription"]

        status, body = loaded.handle("GET", "/subscriptions")
        assert status == 200
        assert [s["id"] for s in body["subscriptions"]] == [sub_id]
        assert body["subscriptions"][0]["op"] == "watch_list"
        assert body["subscriptions"][0]["every_k_quarters"] == 1

        self._seal_next(loaded)
        # Query-string form, exactly as a long-polling client sends it.
        status, body = loaded.handle(
            "GET", f"/updates?subscription={sub_id}&since=0&timeout=0"
        )
        assert status == 200
        assert len(body["updates"]) == 1
        update = body["updates"][0]
        assert update["seq"] == 1
        assert update["quarter"] == loaded.cube.current_quarter
        assert update["epoch"] == list(loaded.cube.epoch_vector())
        assert "cells" in update["result"]

        # Acking via since= filters the already-seen update out.
        status, body = loaded.handle(
            "GET", f"/updates?subscription={sub_id}&since=1"
        )
        assert status == 200
        assert body["updates"] == [] and body["last_seq"] == 1

        status, body = loaded.handle("DELETE", f"/subscribe/{sub_id}")
        assert status == 200 and body == {"removed": sub_id}
        status, body = loaded.handle("DELETE", f"/subscribe/{sub_id}")
        assert status == 404

    def test_spec_subscription_payload(self, loaded):
        status, body = loaded.handle(
            "POST",
            "/subscribe",
            {
                "spec": {"op": "observation_deck"},
                "every_k_quarters": 2,
                "queue_limit": 3,
            },
        )
        assert status == 200
        described = loaded.handle("GET", "/subscriptions")[1][
            "subscriptions"
        ][0]
        assert described["op"] == "observation_deck"
        assert described["every_k_quarters"] == 2
        assert described["queue_limit"] == 3

    def test_updates_requires_a_known_subscription(self, loaded):
        status, body = loaded.handle("GET", "/updates")
        assert status == 400 and body["type"] == "ServiceError"
        status, body = loaded.handle(
            "GET", "/updates?subscription=sub-999"
        )
        assert status == 400 and "unknown subscription" in body["error"]

    def test_bad_subscribe_payloads_map_to_400(self, loaded):
        for payload in (
            {},
            {"watch": True, "every_seal": True, "every_k_quarters": 2},
            {"watch": True, "every_k_quarters": 0},
            {"watch": True, "queue_limit": 0},
            {"spec": {"op": "no_such_op"}},
        ):
            status, body = loaded.handle("POST", "/subscribe", payload)
            assert status == 400, payload
            assert "error" in body, payload

    def test_stats_expose_subscriptions_block(self, loaded):
        assert loaded.subscriptions.flush(10.0)
        status, body = loaded.handle("POST", "/subscribe", {"watch": True})
        assert status == 200
        self._seal_next(loaded)
        status, body = loaded.handle("GET", "/stats")
        assert status == 200
        subs = body["subscriptions"]
        assert subs["active"] == 1
        assert subs["created"] == 1
        assert subs["queued"] == 1
        assert subs["seals_signaled"] >= 1
        assert subs["updates_enqueued"] == 1
        assert subs["updates_dropped"] == 0


class TestLiveServer:
    def test_end_to_end_over_sockets(self, service):
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def post(path, body):
            req = urllib.request.Request(
                base + path,
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as response:
                return json.loads(response.read())

        try:
            records = workload(3)
            rows = [
                {"values": list(r.values), "t": r.t, "z": r.z}
                for r in records
            ]
            assert post("/ingest", {"records": rows})["ingested"] == len(rows)
            assert post("/advance", {"t": 6 * TPQ})["current_quarter"] == 6

            body = post(
                "/query", {"op": "cell", "coord": [1, 1], "values": [0, 0]}
            )
            assert isb_from_dict(body["isb"]) == service.router.execute(
                Q.cell((1, 1), (0, 0))
            ).value

            body = post("/query", {"op": "watch_list"})
            assert cells_from_payload(body["cells"]) == (
                service.router.execute(Q.watch_list()).value
            )

            with urllib.request.urlopen(base + "/health") as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post("/query", {"op": "magic"})
            assert excinfo.value.code == 400

            # The push surface over real sockets: subscribe, seal a
            # quarter, long-poll the update, unsubscribe via DELETE.
            assert service.subscriptions.flush(10.0)
            sub_id = post("/subscribe", {"watch": True})["subscription"]
            t0 = 6 * TPQ
            seal_rows = [
                {"values": [0, 0], "t": t, "z": 5.0} for t in range(t0, t0 + TPQ)
            ]
            post("/ingest", {"records": seal_rows})
            post("/advance", {"t": 7 * TPQ})
            with urllib.request.urlopen(
                f"{base}/updates?subscription={sub_id}&since=0&timeout=5"
            ) as response:
                updates = json.loads(response.read())["updates"]
            assert len(updates) == 1 and updates[0]["seq"] == 1
            delete = urllib.request.Request(
                f"{base}/subscribe/{sub_id}", method="DELETE"
            )
            with urllib.request.urlopen(delete) as response:
                assert json.loads(response.read()) == {"removed": sub_id}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(delete)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


@pytest.fixture
def live(loaded):
    """The loaded service behind ``make_server`` on a real socket."""
    server = make_server(loaded, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield loaded, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    """One response off a socket's reader: status, headers, body."""
    status = int(reader.readline().split()[1])
    headers: dict[str, str] = {}
    while True:
        line = reader.readline().strip()
        if not line:
            break
        name, _, value = line.partition(b":")
        headers[name.decode().lower()] = value.strip().decode()
    return status, headers, reader.read(int(headers.get("content-length", 0)))


def _raw_exchange(sock, request: bytes) -> tuple[int, dict]:
    """Send raw bytes, read exactly one JSON response off the socket."""
    sock.sendall(request)
    status, _, body = _read_response(sock.makefile("rb"))
    return status, json.loads(body)


class TestTransport:
    """One write per response: no Nagle + delayed-ACK floor, same bytes."""

    def test_small_round_trips_on_a_keep_alive_connection_are_fast(self, live):
        # Two writes per response park every small answer behind the
        # client's delayed ACK (>= 40 ms by kernel timer); the handler
        # itself takes well under a millisecond.
        _, port = live
        ingest = json.dumps(
            {
                "records": [
                    {"values": [0, 0], "t": 6 * TPQ, "z": float(i)}
                    for i in range(5)
                ]
            }
        ).encode("utf-8")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", "/ingest", ingest),
            ):
                trips = []
                for _ in range(30):
                    start = time.perf_counter()
                    conn.request(
                        method,
                        path,
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    trips.append(time.perf_counter() - start)
                    assert response.status == 200
                assert statistics.median(trips) < 0.020, (path, trips)
        finally:
            conn.close()

    def test_a_large_answer_is_byte_equal_to_the_in_process_body(self, policy):
        # A 32 x 32 o-layer: the deck is well past one TCP segment.
        wide = DatasetSpec(2, 2, 32, 1).build_layers()
        cube = ShardedStreamCube(wide, policy, n_shards=2, ticks_per_quarter=TPQ)
        service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        try:
            rows = [
                {"values": [32 * a, 32 * b], "t": t, "z": 1.0 + a * t / 7 + b}
                for t in range(4 * TPQ)
                for a in range(32)
                for b in range(32)
            ]
            service.handle("POST", "/ingest", {"records": rows})
            service.handle("POST", "/advance", {"t": 4 * TPQ})
            spec = {"op": "observation_deck"}
            status, body = service.handle("POST", "/query", spec)
            assert status == 200
            expected = json.dumps(body).encode("utf-8")
            assert len(expected) > 80_000
            conn.request("POST", "/query", body=json.dumps(spec).encode())
            response = conn.getresponse()
            assert response.status == 200
            assert response.read() == expected
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()


def _seal_a_quarter(service) -> None:
    quarter = service.cube.current_quarter
    rows = [
        {"values": [0, 0], "t": t, "z": 5.0 + t}
        for t in range(quarter * TPQ, (quarter + 1) * TPQ)
    ]
    assert service.handle("POST", "/ingest", {"records": rows})[0] == 200
    assert service.handle("POST", "/advance", {"t": (quarter + 1) * TPQ})[0] == 200


class TestEncodeOnce:
    """Cached answers leave as the bytes they were first encoded to."""

    DECK = {"op": "observation_deck"}

    @staticmethod
    def pull(conn, payload):
        conn.request("POST", "/query", body=json.dumps(payload).encode())
        response = conn.getresponse()
        return response.status, response.read(), response.getheader("ETag")

    def test_a_hit_writes_the_cache_line_bytes_and_counts_no_encoding(self, live):
        service, port = live
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            before = service.handle("GET", "/stats")[1]["router"]["wire_encodes"]
            first = self.pull(conn, self.DECK)
            again = self.pull(conn, self.DECK)
            stats = service.handle("GET", "/stats")[1]["router"]
        finally:
            conn.close()
        assert first == again and first[0] == 200
        _, result = service.router.execute_versioned(self.DECK)
        assert first[1] == result.wire
        # One miss, one hit: one encoding.  handle() renders dicts, so the
        # in-process /stats reads above encoded nothing.
        assert stats["wire_encodes"] == before + 1

    def test_etag_names_the_spec_and_the_epoch(self, live):
        service, port = live
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        cell = {"op": "cell", "coord": [1, 1], "values": [0, 0]}
        try:
            deck = self.pull(conn, self.DECK)[2]
            assert deck == self.pull(conn, self.DECK)[2]
            vector = ".".join(map(str, service.cube.epoch_vector()))
            assert deck.startswith(f'"{vector}-') and deck.endswith('"')
            assert self.pull(conn, cell)[2] not in (None, deck)
            batch = self.pull(conn, {"queries": [self.DECK]})
            assert batch[0] == 200 and batch[2] is None
            error = self.pull(conn, {"op": "cell", "coord": [9, 9], "values": [0, 0]})
            assert error[0] == 400 and error[2] is None
            _seal_a_quarter(service)
            assert self.pull(conn, self.DECK)[2] != deck
        finally:
            conn.close()

    def test_a_degraded_answer_leaves_the_cached_bytes_alone(self, live):
        service, port = live
        cube = service.cube

        def quarantined(*args):
            raise CorruptionError("cold page quarantined (injected)")

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            cube.shards[1].window_columns = quarantined
            status, partial, etag = self.pull(conn, self.DECK)
            assert status == 200 and etag is None
            _, stale = service.router.execute_versioned(self.DECK)
            block = json.loads(partial)["degraded"]
            assert partial == (
                stale.wire[:-1]
                + b', "degraded": '
                + json.dumps(block).encode()
                + b"}"
            )
            assert b'"degraded"' not in stale.wire

            del cube.shards[1].window_columns
            _seal_a_quarter(service)
            fresh = self.pull(conn, self.DECK)
            hit = self.pull(conn, self.DECK)
        finally:
            conn.close()
        assert fresh == hit and hit[0] == 200 and hit[2] is not None
        _, result = service.router.execute_versioned(self.DECK)
        assert hit[1] == result.wire
        assert b'"degraded"' not in hit[1]
        assert b'"degraded"' not in stale.wire


class TestHttpEdges:
    """Malformed framing answers a typed error, never a dead socket."""

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_typed_400_and_the_connection_lives(
        self, live, length
    ):
        _, port = live
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            status, body = _raw_exchange(
                sock,
                b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode(),
            )
            assert status == 400
            assert body["type"] == "BadRequest"
            assert length in body["error"]
            status, body = _raw_exchange(
                sock, b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 200 and body["status"] == "ok"

    def test_an_oversized_body_is_refused_unread_with_a_typed_413(self, live):
        from repro.service.http import MAX_BODY_BYTES

        service, port = live
        before = service.cube.records_ingested
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            status, body = _raw_exchange(
                sock,
                b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
                + b'{"records": []}',
            )
            assert status == 413
            assert body["type"] == "PayloadTooLarge"
            # The unread body makes the stream unusable: the server closes.
            assert sock.recv(1) == b""
        assert service.cube.records_ingested == before


def _post(path: str, body: bytes, *headers: str, version: str = "1.1") -> bytes:
    lines = [f"POST {path} HTTP/{version}", "Host: x", *headers]
    if not any(h.lower().startswith(("content-length", "transfer-encoding"))
               for h in headers):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class TestRequestBodies:
    """Bodies that are not JSON objects get a typed answer, not a dead
    socket; a chunked body, which has no length, is refused."""

    @pytest.mark.parametrize(
        "body",
        [b'{"records": "\xff"}', b"[" * 100_000],
        ids=["invalid-utf8", "deep-nesting"],
    )
    def test_an_undecodable_body_is_a_typed_400_and_the_connection_lives(
        self, live, body
    ):
        service, port = live
        before = service.cube.records_ingested
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            status, answer = _raw_exchange(sock, _post("/ingest", body))
            assert status == 400
            assert answer["type"] == "BadRequest"
            assert answer["error"].startswith("invalid JSON body: ")
            status, answer = _raw_exchange(
                sock, b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 200 and answer["status"] == "ok"
        assert service.cube.records_ingested == before

    def test_a_chunked_body_is_a_typed_411_and_the_connection_closes(self, live):
        service, port = live
        before = service.cube.records_ingested
        chunk = b'{"records": []}'
        request = _post(
            "/ingest",
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk),
            "Transfer-Encoding: chunked",
        )
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            status, answer = _raw_exchange(sock, request)
            assert status == 411
            assert answer["type"] == "LengthRequired"
            assert "Content-Length" in answer["error"]
            # The chunk lines are never parsed as a next request.
            assert sock.recv(1) == b""
        assert service.cube.records_ingested == before


class TestEdgeErrors:
    """Every error the transport answers is the service's JSON body."""

    @pytest.mark.parametrize(
        "request_bytes, status, kind",
        [
            (b"PUT /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
             501, "NotImplemented"),
            (b"\x16\x03\x01 garbage\r\n\r\n", 400, "BadRequest"),
            (b"GET /health\r\n\r\n", 400, "BadRequest"),
            (b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n",
             400, "BadRequest"),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
             414, "URITooLong"),
            (b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
             431, "RequestHeaderFieldsTooLarge"),
            (b"GET /health HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n",
             431, "RequestHeaderFieldsTooLarge"),
        ],
        ids=["put", "garbage", "no-version", "header-no-colon",
             "long-request-line", "long-header-line", "101-headers"],
    )
    def test_a_refused_request_is_a_json_error_and_a_close(
        self, live, request_bytes, status, kind
    ):
        _, port = live
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request_bytes)
            reader = sock.makefile("rb")
            got, headers, body = _read_response(reader)
            assert (got, json.loads(body)["type"]) == (status, kind)
            assert headers["content-type"] == "application/json"
            assert headers["connection"] == "close"
            assert reader.read() == b""

    def test_one_hundred_headers_are_accepted(self, live):
        _, port = live
        request = b"GET /healthz HTTP/1.1\r\n" + b"X-A: 1\r\n" * 100 + b"\r\n"
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            assert _raw_exchange(sock, request) == (200, {"status": "ok"})

    def test_an_exception_escaping_a_route_is_a_typed_500_logged_once(
        self, live, capsys
    ):
        service, port = live

        def broken(payload):
            raise RuntimeError("route blew up")

        service.healthz = broken
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                reader = sock.makefile("rb")
                status, headers, body = _read_response(reader)
                assert status == 500
                assert json.loads(body) == {
                    "error": "RuntimeError: route blew up",
                    "type": "InternalServerError",
                }
                assert headers["connection"] == "close"
                assert reader.read() == b""
        finally:
            del service.healthz
        err = capsys.readouterr().err
        assert err.count("Traceback") == 1 and "route blew up" in err
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            assert _raw_exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            ) == (200, {"status": "ok"})


class TestFraming:
    """The keep-alive loop's framing, over raw sockets."""

    HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize(
        "request_bytes, keeps",
        [
            (b"GET /healthz HTTP/1.0\r\n\r\n", False),
            (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", True),
            (b"GET /healthz HTTP/1.1\r\n\r\n", True),
            (b"GET /healthz HTTP/1.1\r\nconnection: Close\r\n\r\n", False),
        ],
        ids=["1.0", "1.0-keep-alive", "1.1", "1.1-close"],
    )
    def test_the_connection_lives_by_version_and_connection_header(
        self, live, request_bytes, keeps
    ):
        _, port = live
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request_bytes)
            reader = sock.makefile("rb")
            status, headers, body = _read_response(reader)
            assert (status, json.loads(body)) == (200, {"status": "ok"})
            assert ("connection" in headers) is not keeps
            if keeps:
                sock.sendall(self.HEALTHZ)
                assert _read_response(reader)[0] == 200
            else:
                assert reader.read() == b""

    def test_the_interim_100_continue_arrives_before_the_body_is_sent(self, live):
        _, port = live
        body = json.dumps(
            {"records": [{"values": [0, 0], "t": 6 * TPQ, "z": 1.0}]}
        ).encode()
        head, _, payload = _post(
            "/ingest", body, "Expect: 100-continue"
        ).partition(b"\r\n\r\n")
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head + b"\r\n\r\n")
            reader = sock.makefile("rb")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(payload)
            status, _, answer = _read_response(reader)
            assert status == 200 and json.loads(answer)["ingested"] == 1

    def test_pipelined_requests_are_answered_in_order(self, live):
        _, port = live
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n"
                + _post("/query", b'{"op": "magic"}')
                + self.HEALTHZ
            )
            reader = sock.makefile("rb")
            answers = [_read_response(reader) for _ in range(3)]
        assert [(s, json.loads(b)) for s, _, b in answers][::2] == [
            (200, {"ready": True, "shards": 2}),
            (200, {"status": "ok"}),
        ]
        assert answers[1][0] == 400

    def test_a_body_cut_short_closes_unanswered_and_leaks_no_worker(
        self, loaded
    ):
        server = make_server(loaded, port=0, request_threads=1)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1) == b""
            # The one pool thread is free again.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                assert _raw_exchange(sock, self.HEALTHZ) == (200, {"status": "ok"})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_each_response_leaves_in_one_send(self, live, monkeypatch):
        service, port = live
        sends: list[int] = []
        for name in ("send", "sendall", "sendmsg"):
            original = getattr(socket.socket, name)

            def counting(sock, *args, _original=original, **kwargs):
                if sock.getsockname()[1] == port:
                    sends.append(1)
                return _original(sock, *args, **kwargs)

            monkeypatch.setattr(socket.socket, name, counting)
        deck = json.dumps({"op": "observation_deck"}).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            reader = sock.makefile("rb")
            for request in (self.HEALTHZ, _post("/query", deck), _post("/query", deck)):
                sock.sendall(request)
                status, headers, _ = _read_response(reader)
                assert status == 200 and "date" in headers
        assert len(sends) == 3


class TestDrain:
    """Closing the server ends idle keep-alive connections: a client that
    keeps its connection open cannot hold the drain (or a SIGTERM) up."""

    HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    def test_close_with_idle_keep_alive_clients_returns_at_once(self, loaded):
        server = make_server(loaded, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        clients = [
            socket.create_connection(("127.0.0.1", port), timeout=10)
            for _ in range(3)
        ]
        try:
            for sock in clients:
                assert _raw_exchange(sock, self.HEALTHZ) == (200, {"status": "ok"})
            started = time.perf_counter()
            server.shutdown()
            server.server_close()
            assert time.perf_counter() - started < 1.0
            thread.join(timeout=5)
            for sock in clients:
                assert sock.recv(1) == b""  # the server closed its end
        finally:
            for sock in clients:
                sock.close()

    def test_a_connection_queued_behind_a_busy_pool_ends_too(self, loaded):
        """With the one pool thread held by an idle keep-alive client, a
        second connection waits in the pool's queue; close ends both."""
        server = make_server(loaded, port=0, request_threads=1)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as idle, \
                socket.create_connection(("127.0.0.1", port), timeout=10) as queued:
            assert _raw_exchange(idle, self.HEALTHZ) == (200, {"status": "ok"})
            deadline = time.monotonic() + 5
            while len(server._open) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.perf_counter()
            server.shutdown()
            server.server_close()
            assert time.perf_counter() - started < 1.0
            thread.join(timeout=5)
            assert idle.recv(1) == b"" and queued.recv(1) == b""

    def test_a_request_in_flight_at_close_gets_its_whole_answer(self, loaded):
        server = make_server(loaded, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        entered = threading.Event()
        route = loaded.route

        def slow_route(*args):
            entered.set()
            time.sleep(0.3)
            return route(*args)

        loaded.route = slow_route
        deck = json.dumps({"op": "observation_deck"}).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(_post("/query", deck))
            assert entered.wait(5)
            server.shutdown()
            server.server_close()  # returns once the answer is out
            thread.join(timeout=5)
            status, headers, body = _read_response(sock.makefile("rb"))
            assert status == 200
            assert len(body) == int(headers["content-length"])
            assert json.loads(body)["cells"]
            assert sock.recv(1) == b""

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM") or sys.platform == "win32",
        reason="POSIX signals required",
    )
    def test_sigterm_with_an_idle_client_exits_and_snapshots(self, tmp_path):
        port = _free_port()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", str(port),
                "--shards", "2", "--dims", "2", "--levels", "2",
                "--fanout", "3", "--ticks-per-quarter", str(TPQ),
                "--snapshot-dir", str(tmp_path / "snaps"),
            ],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            _wait_for_port(port, proc)
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                idle.request("GET", "/healthz")
                assert idle.getresponse().read() == b'{"status": "ok"}'
                started = time.perf_counter()
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=10)
                assert time.perf_counter() - started < 2.0
            finally:
                idle.close()
            assert proc.returncode == 0, out
            assert "final snapshot: " in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
