"""The wire does not depend on the shard count.

``golden/query_bodies.json`` was recorded from a 2-shard service.  The same
load served by 1, 3 or 7 in-process shards must answer every recorded
query with the same status and the same ``json.dumps`` text: the ISB
merges are lossless and the cube merges shards in a canonical order, so
sharding is invisible to clients.  The shard count shows only where it is
meant to — the ``/stats`` ``shard_cells`` list, the ``/readyz`` count and
the epoch vector an ``ETag`` spells out — and those shapes are pinned here
for every width, together with what no longer shows it (``/healthz``, and
no ``/stats`` ``parallel`` block).
"""

from __future__ import annotations

import json

import pytest

from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec

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


@pytest.mark.parametrize("n_shards", WIDTHS)
def test_etag_spells_one_epoch_per_shard(serve, n_shards):
    service = serve(n_shards)
    status, reply = service.route("POST", "/query", {"op": "watch_list"})
    assert status == 200
    vector, _, digest = reply.etag.strip('"').partition("-")
    parts = tuple(int(part) for part in vector.split("."))
    assert parts == service.cube.epoch_vector()
    # the structure version, then one seal epoch a shard
    assert len(parts) == 1 + n_shards
    assert parts[0] == 0
    assert set(parts[1:]) == {6}
    assert len(digest) == 16
