"""Writes this directory's snapshot — run it at the commit whose format it pins.

The committed files were written at commit 6a49a45 (the last build with one
``TiltTimeFrame`` per cell)::

    PYTHONPATH=src python tests/stream/fixtures/parent_snapshot/make_fixture.py

It builds a small durable service (2 shards, WAL, file cold store,
2-quarter hot horizon), drives cells born mid-stream, a prune and a revival
through it, snapshots, journals a tail past the snapshot, and records the
``/query`` bodies of the *restored* service.
``tests/stream/test_page_store.py`` restores the directory on the current
build and requires byte-equal bodies.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from repro.cubing.policy import GlobalSlopeThreshold
from repro.service import QueryRouter, ShardedStreamCube, StreamCubeService
from repro.storage import StorageConfig
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

HERE = Path(__file__).resolve().parent
TPQ = 2
HOT = 2
QUERIES = [
    {"op": "observation_deck"},
    {"op": "observation_deck", "window": 12},
    {"op": "slice", "coord": [2, 2], "window": 9},
    {"op": "cell", "coord": [1, 1], "values": [0, 0]},
    {"op": "top_slopes", "coord": [1, 1], "k": 5, "window": 20},
    {"op": "watch_list"},
    {"op": "exceptions"},
    {"op": "change_exceptions"},
    {"op": "change_exceptions", "quarters_apart": 3},
]


def layers_and_policy():
    return DatasetSpec(2, 2, 3, 1).build_layers(), GlobalSlopeThreshold(0.05)


def traffic(first_quarter: int, quarters: int, keys) -> list[StreamRecord]:
    out = []
    for q in range(first_quarter, first_quarter + quarters):
        for i, key in enumerate(keys):
            if (q + i) % 3 == 0:
                continue  # every cell idles a third of its quarters
            for t in range(q * TPQ, (q + 1) * TPQ):
                out.append(
                    StreamRecord(key, t, 0.5 * i + 0.01 * (t % 7) * (i + 1) + q / 11)
                )
    return out


def restored_service(root: Path) -> StreamCubeService:
    """What ``python -m repro serve --restore`` builds, without the CLI."""
    layers, policy = layers_and_policy()
    snapshot_dir = root / "snapshot"
    wal = QuarterWAL(snapshot_dir / "wal.jsonl")
    manifest = ShardedStreamCube.read_manifest(snapshot_dir)
    cube = ShardedStreamCube.restore(
        snapshot_dir,
        layers,
        policy,
        wal=wal,
        storage=StorageConfig(root=root / "storage", hot_quarters=HOT),
    )
    wal.replay(cube, after_seq=int(manifest["wal_seq"]))
    return StreamCubeService(cube, QueryRouter(cube, window_quarters=4))


def bodies(root: Path) -> list[str]:
    """Each query's ``/query`` body as the JSON text the handler sends."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "copy"
        shutil.copytree(root, copy)
        service = restored_service(copy)
        try:
            out = []
            for spec in QUERIES:
                status, body = service.handle("POST", "/query", dict(spec))
                assert status == 200, (spec, body)
                out.append(json.dumps(body))
            return out
        finally:
            service.close()


def write() -> None:
    for name in ("snapshot", "storage"):
        shutil.rmtree(HERE / name, ignore_errors=True)
    layers, policy = layers_and_policy()
    wal = QuarterWAL(HERE / "snapshot" / "wal.jsonl")
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=2,
        ticks_per_quarter=TPQ,
        wal=wal,
        storage=StorageConfig(root=HERE / "storage", hot_quarters=HOT),
    )
    service = StreamCubeService(
        cube, QueryRouter(cube, window_quarters=4), snapshot_dir=HERE / "snapshot"
    )
    early = [(0, 0), (1, 2), (4, 4)]
    late = [(7, 1), (3, 8), (8, 8)]
    cube.ingest_batch(traffic(0, 9, early))
    cube.ingest_batch(traffic(9, 8, early + late[:2]))  # born mid-stream
    cube.ingest_batch(traffic(17, 6, early[:2] + late[:2]))  # (4, 4) goes idle
    cube.advance_to(23 * TPQ)
    assert cube.prune_idle(4) == 1  # (4, 4) is dropped ...
    cube.ingest_batch(traffic(23, 5, early + late))  # ... and revived
    cube.advance_to(28 * TPQ)
    service.write_snapshot()
    cube.ingest_batch(traffic(28, 3, early + late))  # the WAL tail
    cube.advance_to(30 * TPQ)
    cube.ingest_batch(traffic(30, 1, late))  # an unsealed quarter
    service.close()
    expected = {"queries": QUERIES, "bodies": bodies(HERE)}
    (HERE / "expected_bodies.json").write_text(
        json.dumps(expected, indent=1) + "\n"
    )


if __name__ == "__main__":
    write()
