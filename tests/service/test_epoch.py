"""The epoch names every input of a merged answer: births and prunes too.

The epoch vector is ``(cell_events, quarter)``.  Sealed quarters are one
input of a merged answer; the tracked cell set is the other (a cell born
mid-quarter joins every window zero-backfilled).  So a birth must move the
epoch — or a cached line, or the router's per-window view, keeps answering
the pre-birth cell list under the same strong ``ETag`` until the next
seal.  Checked through both caches at several widths, against the oracle.
"""

from __future__ import annotations

import pytest

from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord
from repro.verify.oracle import RawStreamOracle, assert_cells_equal

from tests.service.conftest import TPQ, workload
from tests.service.test_http import cells_from_payload


def rows(records):
    return [{"values": list(r.values), "t": r.t, "z": r.z} for r in records]


@pytest.fixture(params=[1, 2, 7], ids=lambda n: f"{n}-shards")
def loaded(request, layers, policy):
    """A served cube and its oracle, six quarters sealed, open at the
    seventh; the cube lacks a few of the schema's m-layer keys."""
    records = workload(3, quarters=6, per_tick=3)
    cube = ShardedStreamCube(
        layers, policy, n_shards=request.param, ticks_per_quarter=TPQ
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    oracle = RawStreamOracle(layers, policy, ticks_per_quarter=TPQ)
    assert service.handle("POST", "/ingest", {"records": rows(records)})[0] == 200
    assert service.handle("POST", "/advance", {"t": 6 * TPQ})[0] == 200
    oracle.ingest(records)
    oracle.advance_to(6 * TPQ)
    yield service, oracle
    service.close()


def pull(service, payload):
    status, reply = service.route("POST", "/query", payload)
    assert status == 200
    return reply.to_dict(), reply.etag


def m_slice(values, dim):
    return {"op": "slice", "coord": [2, 2], "fixed": {dim: values[int(dim[1])]}}


def expected_slice(oracle, values, dim):
    d = int(dim[1])
    return {
        key: isb
        for key, isb in oracle.cuboid_cells((2, 2), 4).items()
        if key[d] == values[d]
    }


def untracked(cube):
    """A key of the schema's m-layer the cube does not track."""
    tracked = {key for shard in cube.shards for key in shard.snapshot().cells}
    return next((a, b) for a in range(9) for b in range(9) if (a, b) not in tracked)


def bear(service, oracle, key):
    """One record of ``key`` mid-quarter: a birth, no seal."""
    record = StreamRecord(key, 6 * TPQ + 1, 2.5)
    assert service.handle("POST", "/ingest", {"records": rows([record])})[0] == 200
    oracle.ingest([record])


def test_a_birth_moves_the_cached_lines(loaded):
    """The cache-hit path: specs answered before the birth are asked again."""
    service, oracle = loaded
    cube = service.cube
    new = untracked(cube)
    deck = {"op": "observation_deck"}
    before, tag = pull(service, m_slice(new, "d0"))
    _, deck_tag = pull(service, deck)
    assert new not in cells_from_payload(before["cells"])
    epoch = cube.epoch_vector()

    bear(service, oracle, new)
    after, after_tag = pull(service, m_slice(new, "d0"))
    assert after_tag != tag
    assert new in cells_from_payload(after["cells"])
    assert_cells_equal(
        cells_from_payload(after["cells"]),
        expected_slice(oracle, new, "d0"),
        "m-layer slice after a birth",
    )
    deck_after, deck_after_tag = pull(service, deck)
    assert deck_after_tag != deck_tag
    assert_cells_equal(
        cells_from_payload(deck_after["cells"]),
        oracle.o_layer_cells(4),
        "observation deck after a birth",
    )
    assert cube.epoch_vector() == (epoch[0] + 1, epoch[1])


def test_a_birth_moves_the_window_view(loaded):
    """The per-window view memo: after the birth, a spec never asked
    before is answered from the window's merged view."""
    service, oracle = loaded
    _, deck_tag = pull(service, {"op": "observation_deck"})  # builds the view
    new = untracked(service.cube)
    bear(service, oracle, new)
    fresh, tag = pull(service, m_slice(new, "d1"))
    assert new in cells_from_payload(fresh["cells"])
    assert_cells_equal(
        cells_from_payload(fresh["cells"]),
        expected_slice(oracle, new, "d1"),
        "m-layer slice from the view after a birth",
    )
    assert tag.partition("-")[0] != deck_tag.partition("-")[0]


def test_a_prune_moves_the_epoch(layers, policy):
    with ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ
    ) as cube:
        router = QueryRouter(cube, window_quarters=1)
        cube.ingest_batch(
            [StreamRecord((0, 0), 0, 1.0), StreamRecord((5, 5), 0, 2.0)]
        )
        cube.ingest_batch(
            [StreamRecord((0, 0), t, 1.0) for t in range(TPQ, 4 * TPQ)]
        )
        cube.advance_to(4 * TPQ)
        spec = {"op": "slice", "coord": [2, 2], "fixed": {}}
        assert set(router.execute(spec).value) == {(0, 0), (5, 5)}
        epoch = cube.epoch_vector()
        assert epoch == (2, 4)
        assert cube.prune_idle(2) == 1
        assert cube.epoch_vector() == (3, 4)
        assert set(router.execute(spec).value) == {(0, 0)}
