"""The cube's cell table: one hash per record, ids through churn, refused
batches that change nothing, and reads that never tear under births.

A :class:`~repro.stream.cells.CellTable` is shared by a cube's shards: each
key is interned once at the door, a prune retires its keys, and a restore
or a reshard builds a fresh table.  Answers stay bit-identical to a
one-shard cube fed the same stream.
"""

from __future__ import annotations

import itertools
import json
import random
import threading

import pytest

from repro import faults
from repro.errors import HierarchyError, StorageError, StreamError
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

from tests.service.conftest import TPQ

KEYS = list(itertools.product(range(9), repeat=2))


class CountingInt(int):
    """An ``int`` that counts how often it is hashed."""

    hashes = 0

    def __hash__(self) -> int:
        CountingInt.hashes += 1
        return int.__hash__(self)


def table_state(cube: ShardedStreamCube) -> tuple:
    table = cube._table
    n = len(table.keys)
    return list(table.keys), dict(table._ids), table.owner[:n].tolist()


def quarter_records(rng, quarter, keys, per_key=2):
    return [
        StreamRecord(key, quarter * TPQ + rng.randrange(TPQ), rng.uniform(-2.0, 4.0))
        for key in keys
        for _ in range(per_key)
    ]


def test_a_warm_batch_hashes_each_key_once_per_record(layers, policy, tmp_path):
    rng = random.Random(3)
    pool = [tuple(map(CountingInt, key)) for key in rng.sample(KEYS, 60)]
    wal = QuarterWAL(tmp_path / "wal.jsonl")
    with ShardedStreamCube(
        layers, policy, n_shards=3, ticks_per_quarter=TPQ, wal=wal
    ) as cube:
        cube.ingest_batch(quarter_records(rng, 0, pool, per_key=1))  # births
        batch = quarter_records(rng, 0, pool) + quarter_records(rng, 0, pool[:7])
        rng.shuffle(batch)
        CountingInt.hashes = 0
        cube.ingest_batch(batch)
        # A key hash is one hash per dimension value.
        assert CountingInt.hashes <= len(batch) * layers.schema.n_dims
        assert cube.records_ingested == len(pool) + len(batch)
    wal.close()


def assert_same_answers(cube, reference, window):
    assert cube.epoch_vector() == reference.epoch_vector()
    got, want = cube.m_cells(window), reference.m_cells(window)
    assert list(got.items()) == list(want.items())
    got, want = cube.refresh(window), reference.refresh(window)
    assert set(got.cuboids) == set(want.cuboids)
    for coord, cuboid in want.cuboids.items():
        assert list(got.cuboids[coord].items()) == list(cuboid.items())
    assert list(got.o_layer_exceptions().items()) == list(
        want.o_layer_exceptions().items()
    )
    for layer in ("change_exceptions", "o_layer_change_exceptions"):
        got, want = getattr(cube, layer)(), getattr(reference, layer)()
        assert list(got.items()) == list(want.items())


def assert_live_cells_only(cube):
    table = cube._table
    assert len(table._ids) == cube.tracked_cells
    for shard, engine in enumerate(cube.shards):
        ids = engine._ids[: engine.tracked_cells]
        assert all(table._ids[table.keys[i]] == i for i in ids.tolist())
        assert (table.owner[ids] == shard).all()


def test_prune_and_revive_through_restore_and_reshard(layers, policy, tmp_path):
    """Three rounds of births, prunes and revivals; a restore at another
    width after the first, a reshard after the second.  Every answer is
    the one-shard cube's, and the table holds live cells only."""
    rng = random.Random(11)
    cube = ShardedStreamCube(layers, policy, n_shards=2, ticks_per_quarter=TPQ)
    reference = ShardedStreamCube(layers, policy, n_shards=1, ticks_per_quarter=TPQ)
    quarter = 0

    def both(records=(), advance=True, prune=None):
        nonlocal quarter
        for target in (cube, reference):
            if records:
                target.ingest_batch(records)
            if advance:
                target.advance_to((quarter + 1) * TPQ)
        if advance:
            quarter += 1
        if prune is not None:
            assert cube.prune_idle(prune) == reference.prune_idle(prune)

    for round_ in range(3):
        active = rng.sample(KEYS, 30)
        for _ in range(2):
            both(quarter_records(rng, quarter, active))
        steady, silent = active[:12], active[12:]
        newborn = rng.sample([k for k in KEYS if k not in active], 6)
        # Mid-quarter births: a batch of old cells, then one of new cells.
        both(quarter_records(rng, quarter, steady), advance=False)
        both(quarter_records(rng, quarter, newborn))
        both(quarter_records(rng, quarter, steady + newborn))
        assert_same_answers(cube, reference, 2)
        both(advance=False, prune=2)
        assert cube.tracked_cells == len(steady) + len(newborn)
        assert_live_cells_only(cube)
        assert_same_answers(cube, reference, 2)
        # Revival: pruned keys speak again and are born with new ids.
        born_before = len(cube._table.keys)
        both(quarter_records(rng, quarter, silent[:9] + steady))
        assert len(cube._table.keys) == born_before + 9
        assert_live_cells_only(cube)
        assert_same_answers(cube, reference, 2)
        if round_ == 0:
            cube.snapshot(tmp_path / "snap")
            cube = ShardedStreamCube.restore(
                tmp_path / "snap", layers, policy, n_shards=3
            )
        elif round_ == 1:
            cube = cube.reshard(5)
        else:
            break
        # A fresh table: one id per live cell, nothing retired.
        assert len(cube._table.keys) == cube.tracked_cells
        assert_live_cells_only(cube)
        assert_same_answers(cube, reference, 2)


def test_steady_churn_keeps_the_table_as_long_as_the_live_cells(policy):
    """Four shards, 60 quarters of 500 random cells out of 64 x 64, and
    ``prune_idle(1)`` each quarter: the retired ids go with every prune, so
    the table and every shard's id -> row column stay within the live cells
    plus one quarter's births, and every answer is the one-shard cube's."""
    layers = DatasetSpec(2, 2, 8, 1).build_layers()
    space = list(itertools.product(range(64), repeat=2))
    rng = random.Random(60)
    cube = ShardedStreamCube(layers, policy, n_shards=4, ticks_per_quarter=TPQ)
    reference = ShardedStreamCube(layers, policy, n_shards=1, ticks_per_quarter=TPQ)
    table = cube._table
    for quarter in range(60):
        records = quarter_records(rng, quarter, rng.sample(space, 500), per_key=1)
        before = len(table.keys)
        for target in (cube, reference):
            target.ingest_batch(records)
            target.advance_to((quarter + 1) * TPQ)
        births = len(table.keys) - before
        assert cube.prune_idle(1) == reference.prune_idle(1)
        bound = cube.tracked_cells + births
        assert len(table.keys) <= bound, quarter
        assert all(len(engine._row_of) <= bound for engine in cube.shards)
        assert_live_cells_only(cube)
        if quarter >= 2:
            assert_same_answers(cube, reference, 1)


class TestRefusedBatches:
    """A batch refused by schema, by the clock or by the journal leaves the
    table as it was, new keys included."""

    @pytest.fixture
    def cube(self, layers, policy, tmp_path):
        wal = QuarterWAL(tmp_path / "wal.jsonl")
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ, wal=wal
        )
        cube.ingest_batch(quarter_records(random.Random(5), 1, KEYS[:20]))
        yield cube
        faults.clear()
        wal.close()

    def refused(self, cube, records, error):
        before = table_state(cube), cube.epoch_vector(), cube.records_ingested
        with pytest.raises(error):
            cube.ingest_batch(records)
        assert (table_state(cube), cube.epoch_vector(), cube.records_ingested) == before

    def test_an_out_of_schema_key(self, cube):
        fresh = [StreamRecord(key, TPQ, 1.0) for key in KEYS[40:45]]
        self.refused(cube, fresh + [StreamRecord((99, 0), TPQ + 1, 1.0)], HierarchyError)

    def test_a_sealed_quarter(self, cube):
        cube.advance_to(2 * TPQ)
        fresh = [StreamRecord(key, 2 * TPQ, 1.0) for key in KEYS[40:45]]
        self.refused(cube, fresh + [StreamRecord(KEYS[0], 0, 1.0)], StreamError)

    def test_a_journal_that_refuses_the_append(self, cube):
        faults.install(
            {"seed": 1, "rules": [{"site": "wal.append", "kind": "eio", "count": 2}]}
        )
        fresh = [StreamRecord(key, TPQ, 1.0) for key in KEYS[40:45]]
        self.refused(cube, fresh + [StreamRecord(KEYS[0], TPQ, 1.0)], StorageError)
        faults.clear()
        cube.ingest_batch(fresh)  # the same keys are born once accepted
        assert cube._table.keys[-5:] == KEYS[40:45]


def test_reads_under_births_and_prunes_never_tear(layers, policy):
    """Readers pull while one mutator births cells mid-quarter, seals and
    prunes.  Each answer's bytes are the one-shard cube's at the epoch its
    ``ETag`` names."""
    rng = random.Random(29)
    services = [
        StreamCubeService(cube, QueryRouter(cube, window_quarters=2))
        for cube in (
            ShardedStreamCube(layers, policy, n_shards=3, ticks_per_quarter=TPQ),
            ShardedStreamCube(layers, policy, n_shards=1, ticks_per_quarter=TPQ),
        )
    ]
    live, reference = services
    query = {"op": "observation_deck"}
    expected: dict[str, bytes] = {}

    def step(records=None, t=None, prune=None):
        """One mutation on both services, then the reference's answer at
        the epoch it moved to."""
        for service in services:
            if records:
                rows = [{"values": list(r.values), "t": r.t, "z": r.z} for r in records]
                assert service.handle("POST", "/ingest", {"records": rows})[0] == 200
            elif t is not None:
                assert service.handle("POST", "/advance", {"t": t})[0] == 200
            else:
                service.cube.prune_idle(prune)
        if live.cube.current_quarter >= 2:
            status, reply = reference.route("POST", "/query", query)
            assert status == 200
            epoch = reply.etag.strip('"').rsplit("-", 1)[0]
            expected.setdefault(epoch, reply.wire)

    active = rng.sample(KEYS, 20)
    for quarter in range(3):
        step(quarter_records(rng, quarter, active))
        step(t=(quarter + 1) * TPQ)

    seen: list[tuple[str, bytes]] = []
    stop = threading.Event()
    failures: list[BaseException] = []

    def reader():
        try:
            while not stop.is_set():
                status, reply = live.route("POST", "/query", query)
                assert status == 200
                seen.append((reply.etag.strip('"').rsplit("-", 1)[0], reply.wire))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        for quarter in range(3, 15):
            born = rng.sample([k for k in KEYS if k not in active], 3)
            active = active[3:] + born
            step(quarter_records(rng, quarter, active[:-3]))
            for key in born:  # births one at a time, mid-quarter
                step(quarter_records(rng, quarter, [key]))
            step(t=(quarter + 1) * TPQ)
            if quarter % 3 == 0:
                step(prune=2)
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert not failures, failures
    assert len({epoch for epoch, _ in seen}) > 5
    for epoch, wire in seen:
        assert wire == expected[epoch], epoch
    assert json.loads(seen[-1][1])["cells"]
