"""Cold reads across cell-set changes: never a stale generation.

A cold page shares its keys with every page spilled from the same cell
set, and keeps the gather rows it computed for a reader's cell generation.
Both are only sound if nothing survives a change of the cell set that it
should not: here a deep window (wider than the 2-quarter hot set) is read
after a birth, a prune and a revival, a ``load_state``, a restore and a
reshard, and every read must be bit-identical to a resident engine that
never spilled.  Pages spilled from one cell set must share one keys tuple,
and a bit-flipped page must still fail its checksum and be quarantined.
"""

from __future__ import annotations

import random

import pytest

from repro import faults
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import CorruptionError
from repro.faults.plan import preset_plan
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.storage.pages import PAGE_HEADER_BYTES
from repro.stream.engine import StreamCubeEngine, recent_window_bounds
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

TPQ = 2
HOT = 2
#: Deep reads: wider than the hot set, within the resident engine's
#: finest level (4 quarter slots), so both read the same pieces.
WINDOWS = (3, 4)
POOL = [(0, 0), (1, 2), (4, 4), (7, 1), (3, 8)]


@pytest.fixture(autouse=True)
def disarm():
    faults.clear()
    yield
    faults.clear()


def layers_and_policy():
    return DatasetSpec(2, 2, 3, 1).build_layers(), GlobalSlopeThreshold(0.05)


def traffic(quarters: range, keys, seed: int) -> list[StreamRecord]:
    rng = random.Random(seed)
    return [
        StreamRecord(key, t, rng.uniform(-3.0, 3.0))
        for q in quarters
        for t in range(q * TPQ, (q + 1) * TPQ)
        for key in keys
        if rng.random() < 0.8
    ]


def ingest(targets, records: list[StreamRecord]) -> None:
    for target in targets:
        if isinstance(target, ShardedStreamCube):
            target.ingest_batch(records)
        else:
            target.ingest_many(records)


def feed(targets, quarters: range, keys, seed: int) -> None:
    """Whole quarters of traffic for ``keys``, sealed."""
    ingest(targets, traffic(quarters, keys, seed))
    for target in targets:
        target.advance_to(quarters.stop * TPQ)


def assert_deep_reads_match(cube: ShardedStreamCube, resident) -> None:
    assert cube.storage_stats() is not None
    for _ in range(2):  # the second read reuses the pages' gather rows
        for window in WINDOWS:
            bounds = recent_window_bounds(
                cube.current_quarter, TPQ, window
            )
            assert cube.window_isbs(*bounds) == resident.window_isbs(*bounds)
        assert cube.m_cells(4) == resident.m_cells(4)


def cached_pages(engine: StreamCubeEngine) -> list:
    return list(engine._page_cache.values())


def assert_one_keys_tuple_per_shard(cube: ShardedStreamCube) -> None:
    for engine in cube.shards:
        pages = cached_pages(engine)
        assert pages, "the deep reads faulted no page"
        assert all(page.keys is pages[0].keys for page in pages)


@pytest.fixture
def setup(tmp_path):
    layers, policy = layers_and_policy()
    storage = StorageConfig(root=tmp_path / "cold", hot_quarters=HOT)
    cube = ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ, storage=storage
    )
    resident = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
    feed((cube, resident), range(0, 11), POOL, seed=1)
    # (4, 4) idles through the last sealed quarter: prunable, while the
    # cold pages of the deep window still hold rows of its history.
    feed((cube, resident), range(11, 12), [k for k in POOL if k != (4, 4)], 2)
    yield cube, resident, storage
    cube.close()


def test_no_cell_set_change_serves_a_stale_generation(tmp_path, setup):
    """Each change lands mid-quarter, so the deep reads before and after it
    cover the same sealed quarters and fault nothing new: the cached pages
    must not answer with the rows of the generation before."""
    cube, resident, storage = setup
    layers, policy = layers_and_policy()
    open_tick = cube.current_quarter * TPQ
    assert_deep_reads_match(cube, resident)
    assert_one_keys_tuple_per_shard(cube)
    faulted = cube.storage_stats()["cold_faults"]
    assert faulted > 0

    # A birth: (8, 8) is new, and every cold page answers its zero row.
    ingest((cube, resident), [StreamRecord((8, 8), open_tick, 1.5)])
    assert_deep_reads_match(cube, resident)
    # A prune: the rows are renumbered.
    assert cube.prune_idle(1) == resident.prune_idle(1) == 1
    assert_deep_reads_match(cube, resident)
    # A revival: the cold pages hold the pruned predecessor's rows under
    # the same key, and they are not the newborn's history.
    ingest((cube, resident), [StreamRecord((4, 4), open_tick + 1, -2.0)])
    assert_deep_reads_match(cube, resident)
    assert cube.storage_stats()["cold_faults"] == faulted  # all from cache

    # load_state on every shard: same data, a new generation.
    for engine in cube.shards:
        engine.load_state(engine.snapshot())
    assert_deep_reads_match(cube, resident)

    # A restore from a snapshot directory, decoding every page afresh.
    cube.snapshot(tmp_path / "snap")
    restored = ShardedStreamCube.restore(
        tmp_path / "snap", layers, policy, storage=storage
    )
    with restored:
        assert_deep_reads_match(restored, resident)
        assert_one_keys_tuple_per_shard(restored)
        # A reshard: every cold page is split into a new layout.
        with restored.reshard(3) as resharded:
            assert_deep_reads_match(resharded, resident)
            feed((resharded, resident), range(12, 15), POOL + [(2, 5)], 5)
            assert_deep_reads_match(resharded, resident)


def test_a_bit_flipped_page_still_fails_its_checksum(setup):
    cube, resident, _ = setup
    assert_deep_reads_match(cube, resident)  # every key block is known
    # A flip on the way in is retried away (the page-bitflip preset) ...
    faults.install(preset_plan("page-bitflip", seed=7))
    for engine in cube.shards:
        engine.drop_page_cache()
    assert_deep_reads_match(cube, resident)
    retries = sum(e.storage_stats()["read_retries"] for e in cube.shards)
    assert retries >= 1
    faults.clear()
    # ... and one on disk, inside a keys block the store already holds,
    # is caught by the page checksum and quarantined.
    engine = cube.shards[0]
    store = engine._storage
    engine.drop_page_cache()
    key = max(store.scan())  # the newest cold page: every deep read needs it
    path, offset, _, _ = store._index[key]
    raw = bytearray(path.read_bytes())
    raw[offset + PAGE_HEADER_BYTES + 2] ^= 0x01
    path.write_bytes(bytes(raw))
    bounds = recent_window_bounds(cube.current_quarter, TPQ, 4)
    with pytest.raises(CorruptionError, match="quarantined"):
        engine.window_columns(*bounds)
    assert store.stats().quarantined == 1
