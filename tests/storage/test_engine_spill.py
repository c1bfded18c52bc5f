"""The engine's spill/fault seam: bounded hot set, exact deep windows.

The contract under test:

* windows answerable from resident slots stay bit-identical to a
  storage-free engine fed the same traffic;
* windows reaching past the hot horizon — which the storage-free engine
  *cannot answer at all* — fault cold pages back and agree with the
  brute-force oracle;
* resident state stays bounded by the hot set while history grows;
* snapshot/restore round-trips the cold bookkeeping, and restoring a
  spilled snapshot without reattaching a store is refused loudly.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import StreamError, TiltFrameError
from repro.io import engine_state_from_dict, engine_state_to_dict
from repro.storage import FileColdStore
from repro.stream.engine import StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.verify.oracle import RawStreamOracle, assert_cells_equal

TPQ = 1  # single-tick quarters reach deep tilt levels in few records
HOT = 2
POOL = [(0, 0), (1, 2), (4, 4), (7, 1), (3, 8)]


def build():
    return (
        DatasetSpec(2, 2, 3, 1).build_layers(),
        GlobalSlopeThreshold(0.05),
    )


def traffic(seed: int, quarters: int, start: int = 0) -> list[StreamRecord]:
    rng = random.Random(seed)
    records = []
    for q in range(start, start + quarters):
        for key in POOL:
            if rng.random() < 0.8:
                records.append(
                    StreamRecord(key, q * TPQ, rng.uniform(-3.0, 3.0))
                )
    return records


def make_trio(tmp_path, quarters=60, hot=HOT, seed=11):
    layers, policy = build()
    store = FileColdStore(tmp_path / "cold")
    engine = StreamCubeEngine(
        layers, policy, ticks_per_quarter=TPQ, storage=store, hot_quarters=hot
    )
    reference = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
    oracle = RawStreamOracle(layers, policy, ticks_per_quarter=TPQ)
    records = traffic(seed, quarters)
    for sink in (engine, reference):
        sink.ingest_many(records)
    oracle.ingest(records)
    t = quarters * TPQ
    engine.advance_to(t)
    reference.advance_to(t)
    oracle.advance_to(t)
    return engine, reference, oracle, store


class TestSpillAndFault:
    def test_sealing_spills_pages(self, tmp_path):
        engine, _, _, store = make_trio(tmp_path)
        stats = engine.storage_stats()
        assert stats["pages_spilled"] > 0
        assert stats["cold_slots"] > 0
        assert stats["pages"] == store.stats().pages > 0
        assert stats["backend"] == "file"
        assert stats["hot_quarters"] == HOT

    def test_hot_windows_bit_identical_to_storage_free_engine(self, tmp_path):
        engine, reference, _, _ = make_trio(tmp_path)
        end = 60 * TPQ
        for quarters_back in (1, 2, 3):
            t_b, t_e = end - quarters_back * TPQ, end - 1
            assert engine.window_isbs(t_b, t_e) == reference.window_isbs(
                t_b, t_e
            )

    def test_deep_windows_need_the_cold_store_and_match_the_oracle(
        self, tmp_path
    ):
        engine, reference, oracle, _ = make_trio(tmp_path)
        end = 60 * TPQ
        # The storage-free engine promoted its early fine slots away: the
        # first quarter alone is simply not answerable any more.
        with pytest.raises((StreamError, TiltFrameError)):
            reference.window_isbs(0, TPQ - 1)
        faults_before = engine.storage_stats()["cold_faults"]
        for t_b, t_e in ((0, TPQ - 1), (0, 4 * TPQ - 1), (0, end - 1)):
            assert_cells_equal(
                engine.window_isbs(t_b, t_e),
                oracle.window_isbs(t_b, t_e),
                f"deep window [{t_b},{t_e}]",
            )
        stats = engine.storage_stats()
        assert stats["cold_faults"] > faults_before
        assert stats["page_cache_entries"] <= 32

    def test_resident_state_is_bounded_by_the_hot_set(self, tmp_path):
        def resident(engine):
            return sum(
                engine.frame_of(key).total_retained for key in engine.snapshot().cells
            )

        eng_mid, ref_mid, _, _ = make_trio(tmp_path / "mid", quarters=120)
        eng_long, ref_long, _, _ = make_trio(tmp_path / "long", quarters=216)
        # Demotion keeps far less resident than natural tilt retention...
        assert resident(eng_long) < resident(ref_long)
        # ...and another 96 quarters of history barely move the hot set
        # (one more day slot per cell at most), while nothing was lost:
        per_cell = eng_long.tracked_cells
        assert resident(eng_long) - resident(eng_mid) <= 2 * per_cell
        assert (
            eng_long.storage_stats()["cold_slots"]
            > eng_mid.storage_stats()["cold_slots"]
        )


class TestDurabilityWithStorage:
    def test_snapshot_restore_round_trips_cold_state(self, tmp_path):
        engine, _, oracle, store = make_trio(tmp_path)
        wire = json.loads(json.dumps(engine_state_to_dict(engine.snapshot())))
        restored = StreamCubeEngine.restore(
            engine_state_from_dict(wire),
            engine.layers,
            engine.policy,
            storage=store,
            hot_quarters=HOT,
        )
        end = 60 * TPQ
        for t_b, t_e in ((0, TPQ - 1), (0, end - 1), (end - TPQ, end - 1)):
            assert restored.window_isbs(t_b, t_e) == engine.window_isbs(
                t_b, t_e
            )
        assert_cells_equal(
            restored.window_isbs(0, end - 1),
            oracle.window_isbs(0, end - 1),
            "restored deep window",
        )
        assert (
            restored.storage_stats()["cold_slots"]
            == engine.storage_stats()["cold_slots"]
        )

    def test_restore_without_store_is_refused(self, tmp_path):
        engine, _, _, _ = make_trio(tmp_path)
        state = engine.snapshot()
        with pytest.raises(StreamError, match="storage"):
            StreamCubeEngine.restore(state, engine.layers, engine.policy)

    def test_spilling_restart_continues_bit_identically(self, tmp_path):
        """Stop mid-stream, restore against the same store, keep ingesting:
        indistinguishable from the uninterrupted spilling engine."""
        layers, policy = build()
        quarters = 80
        records = traffic(23, quarters)
        split = len(records) * 2 // 3

        straight_store = FileColdStore(tmp_path / "straight")
        straight = StreamCubeEngine(
            layers, policy, ticks_per_quarter=TPQ,
            storage=straight_store, hot_quarters=HOT,
        )
        straight.ingest_many(records)
        straight.advance_to(quarters * TPQ)

        resumed_store = FileColdStore(tmp_path / "resumed")
        first = StreamCubeEngine(
            layers, policy, ticks_per_quarter=TPQ,
            storage=resumed_store, hot_quarters=HOT,
        )
        first.ingest_many(records[:split])
        state = engine_state_from_dict(
            json.loads(json.dumps(engine_state_to_dict(first.snapshot())))
        )
        resumed = StreamCubeEngine.restore(
            state, layers, policy,
            storage=resumed_store, hot_quarters=HOT,
        )
        resumed.ingest_many(records[split:])
        resumed.advance_to(quarters * TPQ)

        end = quarters * TPQ
        for t_b, t_e in ((0, TPQ - 1), (0, end - 1), (end - 2 * TPQ, end - 1)):
            assert resumed.window_isbs(t_b, t_e) == straight.window_isbs(
                t_b, t_e
            )


class TestLateBornCells:
    def test_late_cell_reads_zero_rows_from_pre_birth_pages(self, tmp_path):
        """A cell first seen long after early slots were demoted must see
        its zero-backfill in deep windows — served by the cold pages' zero
        row, bit-identical to what a resident frame would have held."""
        layers, policy = build()
        store = FileColdStore(tmp_path / "cold")
        engine = StreamCubeEngine(
            layers, policy, ticks_per_quarter=TPQ,
            storage=store, hot_quarters=HOT,
        )
        oracle = RawStreamOracle(layers, policy, ticks_per_quarter=TPQ)
        early = traffic(5, 40)
        late_key = (8, 8)
        late = [
            StreamRecord(late_key, q * TPQ, 1.0 + 0.1 * q)
            for q in range(40, 50)
        ]
        for batch in (early, late):
            engine.ingest_many(batch)
            oracle.ingest(batch)
        engine.advance_to(50 * TPQ)
        oracle.advance_to(50 * TPQ)
        cells = engine.window_isbs(0, 50 * TPQ - 1)
        assert late_key in cells
        assert_cells_equal(
            cells,
            oracle.window_isbs(0, 50 * TPQ - 1),
            "window with late-born cell",
        )
