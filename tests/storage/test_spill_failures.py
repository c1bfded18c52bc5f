"""A cold store that refuses a write cannot corrupt the cube.

A seal always completes: a demoted page the store refuses (the append and
its rollback retry both failed) stays in memory, answers reads, is counted
in ``spill_failures`` and is written by the next seal.  So a batch that
passed validation is applied whole — on every shard — and every window is
bit-identical to a twin whose store never failed.
"""

from __future__ import annotations

import random

import pytest

from repro import faults
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import StorageError
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.storage import FileColdStore, StorageConfig
from repro.stream.engine import StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

TPQ = 2
HOT = 1
#: One refused page: the append fails, and so does its rollback retry.
REFUSE_ONE = {"seed": 0, "rules": [{"site": "store.write", "kind": "enospc", "count": 2}]}
REFUSE_ALL = {"seed": 0, "rules": [{"site": "store.write", "kind": "enospc", "count": 0}]}


@pytest.fixture(autouse=True)
def disarm():
    faults.clear()
    yield
    faults.clear()


def build():
    return DatasetSpec(2, 2, 3, 1).build_layers(), GlobalSlopeThreshold(0.1)


def quarter(q: int, seed: int = 5) -> list[StreamRecord]:
    rng = random.Random(seed * 1000 + q)
    return [
        StreamRecord((rng.randrange(9), rng.randrange(9)), t, rng.uniform(-3, 3))
        for t in range(q * TPQ, (q + 1) * TPQ)
        for _ in range(6)
    ]


def windows(sink, quarters: int) -> dict:
    """Every finest-slot window and every whole-hour window of the sealed
    history, or the error type where one is not answerable."""
    bounds = [(q * TPQ, (q + 1) * TPQ - 1) for q in range(quarters)]
    bounds += [(h * 4 * TPQ, (h + 1) * 4 * TPQ - 1) for h in range(quarters // 4)]
    bounds.append((0, quarters * TPQ - 1))
    out = {}
    for t_b, t_e in bounds:
        try:
            out[t_b, t_e] = sink.window_isbs(t_b, t_e)
        except Exception as exc:  # noqa: BLE001 - compared by type
            out[t_b, t_e] = type(exc)
    return out


def engine_pair(tmp_path):
    layers, policy = build()
    return [
        StreamCubeEngine(
            layers,
            policy,
            ticks_per_quarter=TPQ,
            storage=FileColdStore(tmp_path / name),
            hot_quarters=HOT,
        )
        for name in ("clean", "faulty")
    ]


class TestEngine:
    def test_a_refused_page_stays_exact_and_lands_at_the_next_seal(self, tmp_path):
        clean, faulty = engine_pair(tmp_path)
        for q in range(4):
            clean.ingest_many(quarter(q))
            faulty.ingest_many(quarter(q))
        clean.ingest_many(quarter(4))
        # Quarter 4's first record seals quarter 3, completing an hour:
        # three pages are demoted, and the store refuses the first.
        faults.install(REFUSE_ONE)
        faulty.ingest_many(quarter(4))
        faults.clear()
        assert faulty.storage_stats()["spill_failures"] == 1
        assert faulty.current_quarter == clean.current_quarter == 4
        assert faulty.records_ingested == clean.records_ingested
        assert len(faulty._storage.scan()) == len(clean._storage.scan()) - 1
        assert windows(faulty, 4) == windows(clean, 4)

        for sink in (clean, faulty):
            sink.ingest_many(quarter(5))
        assert faulty._storage.scan() == clean._storage.scan()
        assert faulty.storage_stats()["spill_failures"] == 1
        assert windows(faulty, 5) == windows(clean, 5)

    def test_a_store_refusing_every_write_loses_nothing(self, tmp_path):
        clean, faulty = engine_pair(tmp_path)
        clean.ingest_many(quarter(0))
        faulty.ingest_many(quarter(0))
        faults.install(REFUSE_ALL)
        for q in range(1, 11):  # two hour boundaries go by unwritten
            faulty.ingest_many(quarter(q))
        faults.clear()
        for q in range(1, 11):
            clean.ingest_many(quarter(q))
        assert faulty._storage.scan() == []
        assert faulty.storage_stats()["spill_failures"] > 0
        assert windows(faulty, 10) == windows(clean, 10)

        faults.install(REFUSE_ALL)
        with pytest.raises(StorageError, match="no snapshot"):
            faulty.snapshot()
        faults.clear()
        # The snapshot writes what is pending first, and then it is whole.
        state = faulty.snapshot()
        assert faulty._storage.scan() == clean._storage.scan()
        layers, policy = build()
        restored = StreamCubeEngine.restore(
            state,
            layers,
            policy,
            storage=FileColdStore(tmp_path / "faulty"),
            hot_quarters=HOT,
        )
        assert windows(restored, 10) == windows(clean, 10)


def rows(records):
    return [{"values": list(r.values), "t": r.t, "z": r.z} for r in records]


def served(tmp_path, name: str) -> StreamCubeService:
    layers, policy = build()
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=2,
        ticks_per_quarter=TPQ,
        wal=QuarterWAL(tmp_path / name / "wal.jsonl"),
        storage=StorageConfig(root=tmp_path / name / "cold", hot_quarters=HOT),
    )
    return StreamCubeService(cube, QueryRouter(cube, window_quarters=4))


def test_a_refused_page_is_not_a_failed_ingest(tmp_path):
    """The request that seals answers 200, is applied once on every
    shard, and the journal replays to the same cube."""
    clean, faulty = served(tmp_path, "clean"), served(tmp_path, "faulty")
    try:
        for q in range(4):
            for service in (clean, faulty):
                status, _ = service.handle(
                    "POST", "/ingest", {"records": rows(quarter(q))}
                )
                assert status == 200
        assert clean.handle("POST", "/ingest", {"records": rows(quarter(4))})[0] == 200
        faults.install(REFUSE_ONE)
        status, body = faulty.handle("POST", "/ingest", {"records": rows(quarter(4))})
        faults.clear()
        assert status == 200, body
        stats = faulty.handle("GET", "/stats")[1]["storage"]
        assert stats["spill_failures"] == 1
        assert faulty.cube.records_ingested == clean.cube.records_ingested
        for service in (clean, faulty):
            assert service.handle("POST", "/advance", {"t": 8 * TPQ})[0] == 200
        assert windows(faulty.cube, 8) == windows(clean.cube, 8)

        layers, policy = build()
        replayed = ShardedStreamCube(layers, policy, n_shards=2, ticks_per_quarter=TPQ)
        faulty.cube.wal.replay(replayed)
        assert replayed.records_ingested == clean.cube.records_ingested
        assert replayed.current_quarter == clean.cube.current_quarter
        assert replayed.m_cells(4) == clean.cube.m_cells(4)
    finally:
        clean.close()
        faulty.close()
