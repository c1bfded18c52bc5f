"""Golden wire bodies: ``POST /query`` answers stay byte-identical.

``golden/query_bodies.json`` holds the raw ``json.dumps`` text of every
response below, recorded from the commit *before* ``exceptions`` and
``change_exceptions`` became ordinary specs (and the router delegates, the
view's per-op methods and the ``point`` alias were deleted).  Byte equality
here is the contract that let the delegate/alias tests be deleted rather
than ported: whatever path a request takes inside the service, a client
sees the same bytes — ``json.dumps`` of ``handle``'s dict in process, and
the socket shell's encode-once bytes over a real connection.

Regenerate (only when the wire format is changed on purpose) with
``PYTHONPATH=src python -m tests.service.test_golden_bodies`` from the
repository root.
"""

from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator

from repro.cluster import ClusterConfig
from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.http import StreamCubeService, make_server
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.service.conftest import TPQ, workload

GOLDEN = Path(__file__).parent / "golden" / "query_bodies.json"

QUERIES: list[tuple[str, dict[str, Any]]] = [
    ("cell", {"op": "cell", "coord": [2, 2], "values": [0, 0]}),
    ("cell-rolled-up", {"op": "cell", "coord": [1, 2], "values": [0, 1]}),
    ("cell-level-names", {"op": "cell", "coord": ["d01", "d12"], "values": [0, 1]}),
    ("cell-window-2", {"op": "cell", "coord": [2, 2], "values": [0, 0], "window": 2}),
    ("slice", {"op": "slice", "coord": [1, 1], "fixed": {"d0": 0}}),
    ("roll-up", {"op": "roll_up", "coord": [2, 2], "values": [0, 0], "dim": "d0"}),
    ("drill-down", {"op": "drill_down", "coord": [1, 1], "values": [0, 0], "dim": "d1"}),
    ("siblings", {"op": "siblings", "coord": [2, 2], "values": [0, 0], "dim": "d0"}),
    (
        "sibling-deviation",
        {"op": "sibling_deviation", "coord": [2, 2], "values": [0, 0], "dim": "d0"},
    ),
    ("top-slopes", {"op": "top_slopes", "coord": [1, 1], "k": 3}),
    ("observation-deck", {"op": "observation_deck"}),
    ("watch-list", {"op": "watch_list"}),
    ("watch-list-window-2", {"op": "watch_list", "window": 2}),
    ("exceptions", {"op": "exceptions"}),
    ("exceptions-window-2", {"op": "exceptions", "window": 2}),
    ("change-exceptions", {"op": "change_exceptions"}),
    ("change-exceptions-m", {"op": "change_exceptions", "layer": "m"}),
    ("change-exceptions-o", {"op": "change_exceptions", "layer": "o"}),
    (
        "change-exceptions-o-2-apart",
        {"op": "change_exceptions", "layer": "o", "quarters_apart": 2},
    ),
    (
        "batch-with-one-failing-entry",
        {
            "queries": [
                {"op": "watch_list"},
                {"op": "cell", "coord": [9, 9], "values": [0, 0]},
                {"op": "top_slopes", "coord": [1, 1], "k": 2, "window": 2},
                {"op": "roll_up", "coord": [1, 1], "values": [0, 0]},
            ]
        },
    ),
    ("error-coord-out-of-schema", {"op": "cell", "coord": [9, 9], "values": [0, 0]}),
    ("error-bad-k", {"op": "top_slopes", "coord": [1, 1], "k": 0}),
    ("error-window-too-wide", {"op": "watch_list", "window": 40}),
]


def _load(service: StreamCubeService) -> None:
    rows = [
        {"values": list(r.values), "t": r.t, "z": r.z} for r in workload(3)
    ]
    assert service.handle("POST", "/ingest", {"records": rows})[0] == 200
    assert service.handle("POST", "/advance", {"t": 6 * TPQ})[0] == 200


def _cube(**kwargs: Any) -> ShardedStreamCube:
    return ShardedStreamCube(
        DatasetSpec(2, 2, 3, 1).build_layers(),
        GlobalSlopeThreshold(0.1),
        n_shards=2,
        ticks_per_quarter=TPQ,
        **kwargs,
    )


#: ``send(method, path, payload) -> {"status", "body", "etag"}``: one
#: request and the text a client receives.
Send = Callable[[str, str, "dict[str, Any] | None"], dict[str, Any]]


@contextmanager
def in_process(service: StreamCubeService) -> Iterator[Send]:
    """``json.dumps`` of ``handle``'s dict: the recording's own path."""

    def send(method, path, payload=None):
        status, body = service.handle(method, path, payload)
        return {"status": status, "body": json.dumps(body), "etag": None}

    yield send


@contextmanager
def over_socket(service: StreamCubeService) -> Iterator[Send]:
    """The bytes the socket shell writes, read off a keep-alive
    connection to a real server."""
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )

    def send(method, path, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return {
            "status": response.status,
            "body": response.read().decode("utf-8"),
            "etag": response.getheader("ETag"),
        }

    try:
        yield send
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


Transport = Callable[[StreamCubeService], ContextManager[Send]]


def _query_bodies(transport: Transport) -> Iterator[tuple[str, dict[str, Any]]]:
    cube = _cube()
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    try:
        _load(service)
        with transport(service) as send:
            for name, payload in QUERIES:
                yield name, send("POST", "/query", payload)
            # A pushed update: {"watch": true} registers, one more quarter
            # seals, the dispatcher delivers, the long-poll returns it.
            # (The flush keeps the load's own seals from reaching the new
            # subscription.)
            assert service.subscriptions.flush(10.0)
            status, body = service.handle("POST", "/subscribe", {"watch": True})
            assert status == 200
            cube.ingest_batch(
                [StreamRecord((0, 0), t, 5.0 + t) for t in range(6 * TPQ, 7 * TPQ)]
            )
            cube.advance_to(7 * TPQ)
            assert service.subscriptions.flush(10.0)
            yield "updates-watch", send(
                "GET",
                f"/updates?subscription={body['subscription']}&since=0&timeout=5",
            )
    finally:
        service.close()


def _degraded_bodies(
    tmp_path: Path, transport: Transport
) -> Iterator[tuple[str, dict[str, Any]]]:
    """A dead shard: 200 with the reachable union plus a ``degraded`` block."""
    cube = _cube(
        wal=QuarterWAL(tmp_path / "cube.wal"),
        backend=ClusterConfig(backend="process", max_restarts=0),
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    try:
        _load(service)
        cube.kill_worker(1)
        with transport(service) as send:
            for name, payload in (
                ("degraded-change-exceptions-o", {"op": "change_exceptions", "layer": "o"}),
                ("degraded-observation-deck", {"op": "observation_deck"}),
                ("degraded-exceptions", {"op": "exceptions"}),
            ):
                yield name, send("POST", "/query", payload)
    finally:
        service.close()


def record_bodies(
    tmp_path: Path, transport: Transport = in_process
) -> dict[str, dict[str, Any]]:
    """Every recorded name -> ``{"status", "body", "etag"}``."""
    return dict(
        [*_query_bodies(transport), *_degraded_bodies(tmp_path, transport)]
    )


def _recorded(entries: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    return {
        name: {"status": entry["status"], "body": entry["body"]}
        for name, entry in entries.items()
    }


def test_bodies_are_byte_identical_to_the_recording(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = _recorded(record_bodies(tmp_path))
    assert sorted(got) == sorted(golden)
    for name, entry in golden.items():
        assert got[name] == entry, name


def test_socket_bytes_are_byte_identical_to_the_recording(tmp_path):
    """What a client reads off the socket — cache-line bytes, batches
    assembled from them, a long-polled update around them, ``degraded``
    spliced onto them — is the recorded ``json.dumps`` text."""
    golden = json.loads(GOLDEN.read_text())
    got = record_bodies(tmp_path, over_socket)
    bodies = _recorded(got)
    assert sorted(bodies) == sorted(golden)
    for name, entry in golden.items():
        assert bodies[name] == entry, name
    # A strong validator on exactly the complete single-spec answers.
    tagged = {name for name, entry in got.items() if entry["etag"]}
    assert tagged == {
        name
        for name, payload in QUERIES
        if "op" in payload and got[name]["status"] == 200
    }
    for name in tagged:
        vector, _, digest = got[name]["etag"].strip('"').partition("-")
        assert all(part.isdigit() for part in vector.split(".")), name
        assert len(digest) == 16, name


def test_the_recording_covers_every_registered_op():
    """A new op without a golden body is a hole in the contract."""
    from repro.query.spec import _REGISTRY

    recorded = {payload["op"] for _, payload in QUERIES if "op" in payload}
    assert recorded >= set(_REGISTRY)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recording = _recorded(record_bodies(Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recording)} bodies to {GOLDEN}")
