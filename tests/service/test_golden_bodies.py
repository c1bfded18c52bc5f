"""Golden wire bodies: ``POST /query`` answers stay byte-identical.

``golden/query_bodies.json`` holds the raw ``json.dumps`` text of every
response below, recorded from the commit *before* ``exceptions`` and
``change_exceptions`` became ordinary specs (and the router delegates, the
view's per-op methods and the ``point`` alias were deleted).  Byte equality
here is the contract that let the delegate/alias tests be deleted rather
than ported: whatever path a request takes inside the service, a client
sees the same bytes.

Regenerate (only when the wire format is changed on purpose) with
``PYTHONPATH=src python -m tests.service.test_golden_bodies`` from the
repository root.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.cluster import ClusterConfig
from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.http import StreamCubeService
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


def _entry(answer: tuple[int, dict[str, Any]]) -> dict[str, Any]:
    status, body = answer
    return {"status": status, "body": json.dumps(body)}


def _query_bodies() -> Iterator[tuple[str, dict[str, Any]]]:
    cube = _cube()
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    try:
        _load(service)
        for name, payload in QUERIES:
            yield name, _entry(service.handle("POST", "/query", payload))
        # A pushed update: {"watch": true} registers, one more quarter
        # seals, the dispatcher delivers, the long-poll returns it.  (The
        # flush keeps the load's own seals from reaching the new
        # subscription.)
        assert service.subscriptions.flush(10.0)
        status, body = service.handle("POST", "/subscribe", {"watch": True})
        assert status == 200
        cube.ingest_batch(
            [StreamRecord((0, 0), t, 5.0 + t) for t in range(6 * TPQ, 7 * TPQ)]
        )
        cube.advance_to(7 * TPQ)
        assert service.subscriptions.flush(10.0)
        yield "updates-watch", _entry(
            service.handle(
                "GET", f"/updates?subscription={body['subscription']}&since=0"
            )
        )
    finally:
        service.close()


def _degraded_bodies(tmp_path: Path) -> Iterator[tuple[str, dict[str, Any]]]:
    """A dead shard: 200 with the reachable union plus a ``degraded`` block."""
    cube = _cube(
        wal=QuarterWAL(tmp_path / "cube.wal"),
        backend=ClusterConfig(backend="process", max_restarts=0),
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=4))
    try:
        _load(service)
        cube.kill_worker(1)
        for name, payload in (
            ("degraded-change-exceptions-o", {"op": "change_exceptions", "layer": "o"}),
            ("degraded-observation-deck", {"op": "observation_deck"}),
            ("degraded-exceptions", {"op": "exceptions"}),
        ):
            yield name, _entry(service.handle("POST", "/query", payload))
    finally:
        service.close()


def record_bodies(tmp_path: Path) -> dict[str, dict[str, Any]]:
    return dict([*_query_bodies(), *_degraded_bodies(tmp_path)])


def test_bodies_are_byte_identical_to_the_recording(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = record_bodies(tmp_path)
    assert sorted(got) == sorted(golden)
    for name, entry in golden.items():
        assert got[name] == entry, name


def test_the_recording_covers_every_registered_op():
    """A new op without a golden body is a hole in the contract."""
    from repro.query.spec import _REGISTRY

    recorded = {payload["op"] for _, payload in QUERIES if "op" in payload}
    assert recorded >= set(_REGISTRY)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recording = record_bodies(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recording)} bodies to {GOLDEN}")
