"""The wire does not depend on the shard count.

``golden/query_bodies.json`` was recorded from a 2-shard service.  The same
load served by 1, 3 or 7 in-process shards must answer every recorded
query with the same status and the same ``json.dumps`` text: the ISB
merges are lossless and the cube merges shards in a canonical order, so
sharding is invisible to clients.  The shard count shows only where it is
meant to — the ``/stats`` ``shard_cells`` list and the ``/readyz`` count —
and those shapes are pinned here for every width, together with what does
not show it: ``/healthz``, no ``/stats`` ``parallel`` block, every
``ETag`` and every pushed ``epoch``.
"""

from __future__ import annotations

import json

import pytest

from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

from tests.service.test_golden_bodies import GOLDEN, QUERIES, TPQ, _load

#: Widths other than the recording's own.
OTHER_WIDTHS = (1, 3, 7)
WIDTHS = (1, 2, 3, 7)


def loaded_service(n_shards: int) -> StreamCubeService:
    """The golden recording's load, served by ``n_shards`` shards."""
    cube = ShardedStreamCube(
        DatasetSpec(2, 2, 3, 1).build_layers(),
        GlobalSlopeThreshold(0.1),
        n_shards=n_shards,
        ticks_per_quarter=TPQ,
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    _load(service)
    return service


@pytest.fixture(scope="module")
def serve():
    """``serve(k)``: one loaded k-shard service per width, shared by the
    module (each recorded query is asked once per width)."""
    services: dict[int, StreamCubeService] = {}

    def get(n_shards: int) -> StreamCubeService:
        if n_shards not in services:
            services[n_shards] = loaded_service(n_shards)
        return services[n_shards]

    yield get
    for service in services.values():
        service.close()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name, payload", QUERIES, ids=[n for n, _ in QUERIES])
@pytest.mark.parametrize("n_shards", OTHER_WIDTHS)
def test_body_is_the_recording_at_any_width(
    serve, golden, n_shards, name, payload
):
    status, body = serve(n_shards).handle("POST", "/query", payload)
    assert {"status": status, "body": json.dumps(body)} == golden[name]


@pytest.mark.parametrize("n_shards", WIDTHS)
def test_stats_name_every_shard_once(serve, n_shards):
    status, body = serve(n_shards).handle("GET", "/stats")
    assert status == 200
    # Key order included: the top-level members are part of the wire.
    assert list(body) == [
        "router",
        "subscriptions",
        "shard_cells",
        "ticks_per_quarter",
        "storage",
        "durability",
    ]
    assert len(body["shard_cells"]) == n_shards
    assert sum(body["shard_cells"]) == serve(n_shards).cube.tracked_cells


@pytest.mark.parametrize("n_shards", WIDTHS)
def test_probes_at_every_width(serve, n_shards):
    service = serve(n_shards)
    assert service.handle("GET", "/healthz") == (200, {"status": "ok"})
    assert service.handle("GET", "/readyz") == (
        200,
        {"ready": True, "shards": n_shards},
    )


#: The recorded single-spec queries: each complete answer carries an ETag.
SINGLE_SPECS = [(name, payload) for name, payload in QUERIES if "op" in payload]


def etags(service: StreamCubeService) -> dict[str, str]:
    tags = {}
    for name, payload in SINGLE_SPECS:
        status, reply = service.route("POST", "/query", payload)
        if status == 200:
            tags[name] = reply.etag
    return tags


@pytest.mark.parametrize("n_shards", WIDTHS)
def test_etags_are_the_same_at_every_width(serve, n_shards):
    """The epoch is ``(cell_events, quarter)``: a birth or a prune lives
    on one shard, so the sum is width-free, and so is every ETag."""
    recorded = etags(serve(2))
    assert len(recorded) == 19
    assert etags(serve(n_shards)) == recorded
    cube = serve(n_shards).cube
    # Nothing was pruned: every cell event so far is a birth.
    assert cube.epoch_vector() == (cube.tracked_cells, 6) == (74, 6)
    vectors = {tag.strip('"').partition("-")[0] for tag in recorded.values()}
    assert vectors == {"74.6"}


def pushed_epochs(n_shards: int) -> list[list[int]]:
    """The golden ``updates-watch`` push, replayed at ``n_shards``."""
    service = loaded_service(n_shards)
    try:
        assert service.subscriptions.flush(10.0)
        status, body = service.handle("POST", "/subscribe", {"watch": True})
        assert status == 200
        service.cube.ingest_batch(
            [StreamRecord((0, 0), t, 5.0 + t) for t in range(6 * TPQ, 7 * TPQ)]
        )
        service.cube.advance_to(7 * TPQ)
        assert service.subscriptions.flush(10.0)
        status, body = service.handle(
            "GET",
            f"/updates?subscription={body['subscription']}&since=0&timeout=5",
        )
        assert status == 200
        return [update["epoch"] for update in body["updates"]]
    finally:
        service.close()


@pytest.mark.parametrize("n_shards", WIDTHS)
def test_pushed_epoch_is_the_same_at_every_width(golden, n_shards):
    recorded = json.loads(golden["updates-watch"]["body"])
    expected = [update["epoch"] for update in recorded["updates"]]
    assert expected == [[74, 7]]
    assert pushed_epochs(n_shards) == expected