"""Writes this directory's journal — run it at the commit whose format it pins.

The committed segments were written at commit 1ae166c (the last build that
journaled each batch as ``"records"`` rows under a version 1 header)::

    PYTHONPATH=src python tests/stream/fixtures/parent_wal/make_fixture.py

It drives :func:`batches` through a 2-shard cube with a WAL attached: the
first :data:`SEALED` actions go to a segment that is then sealed (renamed
``wal.jsonl.<first>-<last>``), the rest stay in the active ``wal.jsonl``.
Both segments hold batch and advance entries, batches that span quarters
and cells born in either segment; the last quarter stays open.
``tests/stream/test_wal_compat.py`` replays the directory on the current
build and requires a cube bit-identical to direct ingestion.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

HERE = Path(__file__).resolve().parent
TPQ = 2
#: Actions journaled before the first segment is sealed.
SEALED = 5


def layers_and_policy():
    return DatasetSpec(2, 2, 3, 1).build_layers(), GlobalSlopeThreshold(0.05)


def batches() -> list[list[StreamRecord] | int]:
    """The journaled actions in order: a record list is one batch, an
    ``int`` an explicit ``advance_to`` tick."""
    rng = random.Random(33)
    actions: list[list[StreamRecord] | int] = []
    tick = 0
    for step in range(10):
        cells = [(rng.randrange(9), rng.randrange(9)) for _ in range(3 + step)]
        batch = []
        for _ in range(rng.choice((1, 6, 20))):
            tick += rng.choice((0, 0, 1))
            z = rng.choice((0.1 + 0.2, -1e-17, 1e300, -0.0, rng.uniform(-5, 5)))
            batch.append(StreamRecord(rng.choice(cells), tick, z))
        actions.append(batch)
        if step % 3 == 2:
            tick = (tick // TPQ + 2) * TPQ
            actions.append(tick)
    return actions


def build_cube(wal: QuarterWAL | None = None) -> ShardedStreamCube:
    layers, policy = layers_and_policy()
    return ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ, wal=wal
    )


def apply(cube: ShardedStreamCube, action: list[StreamRecord] | int) -> None:
    if isinstance(action, int):
        cube.advance_to(action)
    else:
        cube.ingest_batch(action)


def write() -> None:
    for old in HERE.glob("wal.jsonl*"):
        old.unlink()
    wal = QuarterWAL(HERE / "wal.jsonl")
    with build_cube(wal) as cube:
        for i, action in enumerate(batches()):
            if i == SEALED:
                wal.truncate_through(0)  # seal the first segment, drop none
            apply(cube, action)
    wal.close()


if __name__ == "__main__":
    write()
