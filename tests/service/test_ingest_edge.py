"""The ``/ingest`` edge: columns in, the same answers out.

``POST /ingest`` turns the parsed rows into columns at the door and never
builds a record object; what a *client* sees must not have moved.
``golden/ingest_edge.json`` holds the status and body of every malformed (or
merely odd) batch below, recorded from the commit before the columnar path
(034bbe6, one ``StreamRecord`` per row); the bulk decoder and its row-by-row
fallback must reproduce each byte for byte.  Regenerate — only when an
answer is changed on purpose — with ``PYTHONPATH=src python -m
tests.service.test_ingest_edge`` from the repository root.

Also here, because they are properties of the same edge: a rejected batch
leaves every shard's state byte-equal (with no WAL attached too), one
far-future tick is refused instead of sealing quarters for minutes, and a
2,000-row request constructs zero ``StreamRecord``s.
"""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path
from typing import Any

import pytest

from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import StreamError
from repro.io import engine_state_to_dict
from repro.regression import kernels
from repro.service.http import StreamCubeService, make_server
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream import records as records_module
from repro.stream.engine import MAX_QUARTERS_AHEAD, StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.service.conftest import TPQ

GOLDEN = Path(__file__).parent / "golden" / "ingest_edge.json"
NOW = 6 * TPQ  # the first tick of the open quarter in `prepared`


def row(values: Any = (0, 0), t: Any = NOW, z: Any = 1.0) -> dict[str, Any]:
    return {"values": list(values) if isinstance(values, tuple) else values, "t": t, "z": z}


def without(field: str) -> dict[str, Any]:
    out = row()
    del out[field]
    return out


BATCHES: list[tuple[str, Any]] = [
    ("records-not-a-list", "nope"),
    ("records-missing", None),
    ("empty-records", []),
    ("row-not-an-object", [[0, 0, NOW, 1.0]]),
    ("row-a-number", [5]),
    ("missing-t", [without("t")]),
    ("missing-values", [without("values")]),
    ("missing-z", [without("z")]),
    ("values-a-string", [row(values="ab")]),
    ("values-null", [row(values=None)]),
    ("values-nested-list", [row(values=[[0], 0])]),
    ("values-wrong-arity", [row(values=[0])]),
    ("values-out-of-schema", [row(values=[0, 99])]),
    ("t-a-numeric-string", [row(t=str(NOW + 1))]),
    ("t-a-float", [row(t=NOW + 1.9)]),
    ("t-true", [row(t=True)]),
    ("t-a-word", [row(t="soon")]),
    ("t-null", [row(t=None)]),
    ("z-null", [row(z=None)]),
    ("z-a-numeric-string", [row(z="1.5")]),
    ("z-an-int", [row(z=3)]),
    ("z-true", [row(z=True)]),
    ("z-a-word", [row(z="much")]),
    ("z-nan", [row(), row(z=float("nan"))]),  # json.loads accepts NaN
    ("z-1e400", [row(z=json.loads("1e400"))]),  # parses to infinity
    ("second-row-malformed", [row(), row(z=None)]),
    ("sealed-quarter", [row(t=NOW - 1)]),
    ("second-row-sealed", [row(), row(t=0)]),
    ("quarters-out-of-order", [row(t=NOW + TPQ), row(t=NOW)]),
    ("a-plain-batch", [row(), row((1, 2), NOW + 1, -0.5), row(t=NOW + TPQ)]),
]


def fresh_service() -> StreamCubeService:
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    cube = ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(0.1),
        n_shards=2,
        ticks_per_quarter=TPQ,
    )
    return StreamCubeService(cube, QueryRouter(cube, window_quarters=4))


def prepared() -> StreamCubeService:
    """Six sealed quarters of three cells, one record into the open one."""
    service = fresh_service()
    rows = [
        row(key, t, 0.25 * t + key[0])
        for t in range(NOW + 1)
        for key in ((0, 0), (1, 2), (4, 4))
    ]
    status, body = service.handle("POST", "/ingest", {"records": rows})
    assert status == 200, body
    return service


def answer(service: StreamCubeService, batch: Any) -> dict[str, Any]:
    payload = {} if batch is None else {"records": batch}
    status, body = service.handle("POST", "/ingest", payload)
    return {"status": status, "body": body}


def shard_states(service: StreamCubeService) -> str:
    """Every shard's ``snapshot()`` in codec form, as one JSON text."""
    states = service.cube._backend.broadcast("snapshot")
    return json.dumps([engine_state_to_dict(state) for state in states])


@pytest.mark.parametrize("name, batch", BATCHES, ids=[name for name, _ in BATCHES])
def test_answers_equal_the_recorded_parent_answers(name, batch):
    recorded = json.loads(GOLDEN.read_text())
    service = prepared()
    try:
        before = shard_states(service)
        assert answer(service, batch) == recorded[name]
        if recorded[name]["status"] != 200:
            assert shard_states(service) == before  # rejected whole
    finally:
        service.close()


def test_the_table_and_the_recording_name_the_same_batches():
    assert set(json.loads(GOLDEN.read_text())) == {name for name, _ in BATCHES}


class TestRejectedBatchesLeaveNoTrace:
    """A 400 means nothing happened — also with no WAL to protect."""

    BAD_FOURTH = [
        row((0, 0), NOW + 1),
        row((7, 7), NOW + 1),  # two cells born by this batch ...
        row((8, 1), NOW + 2),
        row((0, 99), NOW + 2),  # ... and a leaf outside the schema
        row((2, 2), NOW + 3),
    ]

    def test_out_of_schema_key_through_handle(self):
        service = prepared()
        try:
            before = shard_states(service)
            cells = service.cube.tracked_cells
            status, body = service.handle(
                "POST", "/ingest", {"records": self.BAD_FOURTH}
            )
            assert status == 400 and body["type"] == "HierarchyError"
            assert service.cube.tracked_cells == cells
            assert shard_states(service) == before
            # The client fixes the row and resends: counted exactly once.
            fixed = [*self.BAD_FOURTH[:3], row((0, 8), NOW + 2), self.BAD_FOURTH[4]]
            status, body = service.handle("POST", "/ingest", {"records": fixed})
            assert status == 200 and body["ingested"] == 5
            reference = prepared()
            try:
                reference.handle("POST", "/ingest", {"records": fixed})
                assert shard_states(service) == shard_states(reference)
            finally:
                reference.close()
        finally:
            service.close()

    def test_a_sealing_batch_rejected_for_its_key_seals_nothing(self):
        service = prepared()
        try:
            before = shard_states(service)
            batch = [row(t=NOW + 5 * TPQ), row((99, 0), NOW + 5 * TPQ)]
            status, body = service.handle("POST", "/ingest", {"records": batch})
            assert status == 400 and body["type"] == "HierarchyError"
            assert service.cube.current_quarter == 6
            assert shard_states(service) == before
        finally:
            service.close()


class TestNonFiniteZ:
    """A NaN or infinite ``z`` is refused before the journal on every
    ingest path; accepted, it made every window and ancestor covering its
    quarter NaN (and the wire carried ``NaN``, which is not JSON)."""

    BAD = [float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("z", BAD)
    @pytest.mark.parametrize("sharded", [False, True], ids=["engine", "cube"])
    def test_python_paths_refuse_it_before_the_wal(self, tmp_path, sharded, z):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        policy = GlobalSlopeThreshold(0.1)
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        if sharded:
            target = ShardedStreamCube(
                layers, policy, n_shards=2, ticks_per_quarter=TPQ, wal=wal
            )
            ingest_batch = target.ingest_batch
        else:
            target = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ, wal=wal)
            ingest_batch = target.ingest_many
        bad = StreamRecord((1, 2), 1, z)
        try:
            with pytest.raises(StreamError, match="non-finite z"):
                target.ingest(bad)
            with pytest.raises(StreamError, match="non-finite z"):
                ingest_batch([StreamRecord((0, 0), 0, 1.0), bad])
            assert wal.last_seq == 0
            assert target.tracked_cells == 0
        finally:
            if sharded:
                target.close()

    def test_wal_replay_stops_at_an_entry_journaled_before_the_check(self, tmp_path):
        """A journal written before the check can hold such an entry;
        replay goes through the same validation and stops there with the
        typed error, the entries before it applied."""
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        for record in (
            StreamRecord((0, 0), 0, 1.0),
            StreamRecord((0, 0), 1, float("nan")),
            StreamRecord((0, 1), 1, 2.0),
        ):
            wal.append_batch([record], 0)
        engine = StreamCubeEngine(layers, GlobalSlopeThreshold(0.1), ticks_per_quarter=TPQ)
        with pytest.raises(StreamError, match="non-finite z"):
            wal.replay(engine)
        assert engine.records_ingested == 1


class TestFarFutureTicks:
    """One tick far ahead used to seal hundreds of millions of empty
    quarters under every shard's write lock; now it is a typed 400."""

    @pytest.mark.parametrize(
        "t", [1_000_000_000, 2**70, (6 + MAX_QUARTERS_AHEAD + 1) * TPQ]
    )
    def test_ingest_and_advance_refuse_it(self, t):
        service = prepared()
        try:
            before = shard_states(service)
            for path, payload in (
                ("/ingest", {"records": [row((1, 2), t, 1.0)]}),
                ("/advance", {"t": t}),
            ):
                status, body = service.handle("POST", path, payload)
                assert status == 400, (path, body)
                assert body["type"] in ("StreamError", "ServiceError"), body
                assert shard_states(service) == before
            assert service.cube.current_quarter == 6
        finally:
            service.close()

    def test_out_of_int64_tick_is_a_typed_400_naming_the_batch(self):
        service = prepared()
        try:
            status, body = service.handle(
                "POST", "/ingest", {"records": [row(t=2**70)]}
            )
            assert status == 400 and body["type"] == "ServiceError"
            assert body["error"].startswith("malformed record in batch")
        finally:
            service.close()

    def test_the_horizon_itself_is_reachable(self):
        service = fresh_service()
        try:
            t = MAX_QUARTERS_AHEAD * TPQ
            status, body = service.handle("POST", "/advance", {"t": t})
            assert status == 200
            assert body["current_quarter"] == MAX_QUARTERS_AHEAD
        finally:
            service.close()

    def test_the_connection_and_a_concurrent_query_stay_live(self):
        service = prepared()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        headers = {"Content-Type": "application/json"}
        ingest = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        query = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            far = json.dumps(
                {"records": [{"values": [1, 2], "t": 1_000_000_000, "z": 1.0}]}
            )
            ingest.request("POST", "/ingest", body=far, headers=headers)
            # Sent while the far-future batch is in flight, on a second
            # connection: it must not queue behind a seal loop.
            query.request(
                "POST",
                "/query",
                body=json.dumps({"op": "cell", "coord": [1, 1], "values": [0, 0]}),
                headers=headers,
            )
            answered = query.getresponse()
            assert answered.status == 200
            answered.read()
            refused = ingest.getresponse()
            assert refused.status == 400
            assert json.loads(refused.read())["type"] == "StreamError"
            # Same keep-alive connection, next request: still in step.
            ingest.request(
                "POST", "/advance", body=json.dumps({"t": 2**70}), headers=headers
            )
            refused = ingest.getresponse()
            assert refused.status == 400
            refused.read()
            ingest.request(
                "POST",
                "/ingest",
                body=json.dumps({"records": [row((1, 2), NOW + 1, 2.0)]}),
                headers=headers,
            )
            accepted = ingest.getresponse()
            assert accepted.status == 200
            assert json.loads(accepted.read()) == {
                "ingested": 1,
                "current_quarter": 6,
            }
        finally:
            ingest.close()
            query.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()


class TestStructure:
    """What the path is made of, not just what it answers."""

    def test_a_2000_row_ingest_builds_no_records_and_one_fit_per_shard(
        self, monkeypatch
    ):
        built = []
        original = records_module.StreamRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        fits = []
        group_fit = kernels.group_fit

        def recording(ticks, *args):
            fits.append(len(ticks))
            return group_fit(ticks, *args)

        service = fresh_service()
        try:
            keys = [(a, b) for a in range(9) for b in range(9)]
            rows = [
                row(keys[(7 * i) % 81], i % TPQ, 0.001 * i) for i in range(2000)
            ]
            monkeypatch.setattr(records_module.StreamRecord, "__init__", counting)
            status, body = service.handle("POST", "/ingest", {"records": rows})
            assert status == 200 and body["ingested"] == 2000
            assert not built
            monkeypatch.setattr(kernels, "group_fit", recording)
            status, _ = service.handle("POST", "/advance", {"t": TPQ})
            assert status == 200
            # One grouped fit per shard over exactly the distinct
            # (cell, tick) pairs — what the per-cell accumulators handed
            # the kernel before.
            assert len(fits) == 2
            assert sum(fits) == len(
                {(tuple(r["values"]), r["t"]) for r in rows}
            )
        finally:
            service.close()


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    recorded = {}
    for name, batch in BATCHES:
        service = prepared()
        try:
            recorded[name] = answer(service, batch)
        finally:
            service.close()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} answers to {GOLDEN}")
