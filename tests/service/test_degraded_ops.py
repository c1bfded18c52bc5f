"""Every op's partial answer: the survivors' exact union, with its holes.

A shard whose window reads raise :class:`~repro.errors.CorruptionError`
(what a quarantined cold page raises) turns each answer partial.  For every
registered op — through the recorded golden queries — the partial answer's
result must equal, dict for dict, what a service fed only the surviving
shards' records answers; the first answer and every cache hit after it must
carry the same ``degraded`` block and no ``ETag``.  The healthy control:
the same queries on an intact fleet carry an ``ETag`` and no block.
"""

from __future__ import annotations

import pytest

from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import CorruptionError
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

from tests.service.conftest import TPQ, workload
from tests.service.test_golden_bodies import QUERIES

#: The recorded single-spec queries that answer 200 on the golden load.
SPECS = [
    (name, payload)
    for name, payload in QUERIES
    if "op" in payload and not name.startswith("error-")
]
IDS = [name for name, _ in SPECS]
LOST = 1
REASON = f"shard {LOST}: cold page quarantined (injected)"
BLOCK = {
    "missing": [
        {"shard": LOST, "state": "degraded", "reason": REASON, "last_quarter": 6}
    ],
    "staleness_bound": 6,
}


def quarantined(*args):
    raise CorruptionError(REASON)


def service_over(n_shards: int, records: list[StreamRecord]) -> StreamCubeService:
    """A ``n_shards`` service holding ``records`` with six sealed quarters."""
    cube = ShardedStreamCube(
        DatasetSpec(2, 2, 3, 1).build_layers(),
        GlobalSlopeThreshold(0.1),
        n_shards=n_shards,
        ticks_per_quarter=TPQ,
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    cube.ingest_batch(records)
    cube.advance_to(6 * TPQ)
    return service


def fleet(n_shards: int, lose: bool) -> StreamCubeService:
    service = service_over(n_shards, workload(3))
    if lose:
        service.cube.shards[LOST].window_columns = quarantined
    return service


@pytest.fixture(scope="module")
def pairs():
    """``pairs(k)``: a k-shard fleet that lost shard 1, and one shard fed
    only the records the fleet's other shards own."""
    built: dict[int, tuple[StreamCubeService, StreamCubeService]] = {}

    def get(n_shards: int):
        if n_shards not in built:
            sharded = fleet(n_shards, lose=True)
            owner = sharded.cube.shard_index
            survivors = service_over(
                1, [r for r in workload(3) if owner(r.values) != LOST]
            )
            built[n_shards] = (sharded, survivors)
        return built[n_shards]

    yield get
    for sharded, survivors in built.values():
        sharded.close()
        survivors.close()


@pytest.mark.parametrize("name, payload", SPECS, ids=IDS)
@pytest.mark.parametrize("n_shards", (2, 3))
def test_partial_answer_is_the_survivors_exact_union(
    pairs, n_shards, name, payload
):
    sharded, survivors = pairs(n_shards)
    status, body = sharded.handle("POST", "/query", payload)
    assert status == 200
    assert body.pop("degraded") == BLOCK
    assert (status, body) == survivors.handle("POST", "/query", payload)


@pytest.mark.parametrize("name, payload", SPECS, ids=IDS)
def test_every_repeat_carries_the_block_and_no_etag(name, payload):
    service = fleet(2, lose=True)
    try:
        replies = [service.route("POST", "/query", payload) for _ in range(3)]
        assert service.router.stats()["cache_hits"] == 2
        first = replies[0][1].to_dict()
        for status, reply in replies:
            assert status == 200
            assert reply.degraded == BLOCK
            assert reply.etag is None
            assert reply.to_dict() == first
    finally:
        service.close()


@pytest.mark.parametrize("name, payload", SPECS, ids=IDS)
def test_a_healthy_answer_carries_an_etag_and_no_block(name, payload):
    service = fleet(2, lose=False)
    try:
        replies = [service.route("POST", "/query", payload) for _ in range(2)]
        assert service.router.stats()["cache_hits"] == 1
        etags = {reply.etag for _, reply in replies}
        assert len(etags) == 1 and None not in etags
        for status, reply in replies:
            assert status == 200
            assert reply.degraded is None
            assert "degraded" not in reply.to_dict()
    finally:
        service.close()
