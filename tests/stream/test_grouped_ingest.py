"""Grouped batch ingestion leaves the engine bit-identical to per-record.

``ingest_many`` takes the columnar path (intern once per batch, one ordered
scatter-add per quarter segment, one kernel fit per sealed quarter, bulk
tilt-frame promotion); these tests pin that an engine fed that way is
*exactly* — dict equality on frozen ISB dataclasses, i.e. exact float
equality — the engine a record-at-a-time ``ingest`` loop produces.  This is the contract the sharded service's
shard-count invariance rests on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.hierarchy import FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.policy import GlobalSlopeThreshold
from repro.stream.engine import StreamCubeEngine
from repro.stream.records import StreamRecord
from tests.conftest import state_rows

TPQ = 4


@pytest.fixture
def layers():
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 3)),
            Dimension("b", FanoutHierarchy("b", 2, 3)),
        ]
    )
    return CriticalLayers(schema, m_coord=(2, 2), o_coord=(1, 1))


def make_engine(layers):
    return StreamCubeEngine(
        layers, GlobalSlopeThreshold(0.0), ticks_per_quarter=TPQ
    )


def random_batch(seed: int, n_records: int, n_quarters: int):
    """A quarter-ordered batch with shuffled ticks inside each quarter."""
    rng = random.Random(seed)
    records = []
    for q in range(n_quarters):
        quarter_records = []
        for _ in range(rng.randrange(0, n_records // n_quarters + 1)):
            t = q * TPQ + rng.randrange(TPQ)
            values = (rng.randrange(9), rng.randrange(9))
            quarter_records.append(
                StreamRecord(values, t, rng.uniform(-10.0, 10.0))
            )
        rng.shuffle(quarter_records)  # any tick order within a quarter
        records.extend(quarter_records)
    return records


def assert_engines_identical(a: StreamCubeEngine, b: StreamCubeEngine):
    assert a.records_ingested == b.records_ingested
    assert a.tracked_cells == b.tracked_cells
    assert a.current_quarter == b.current_quarter
    # Same cells in the same row order, same pending per-tick sums (bit
    # for bit) and activity markers.
    state_a = a.snapshot()
    assert state_rows(state_a) == state_rows(b.snapshot())
    for key in state_a.keys:
        # Same retained slots at every granularity, bit for bit.
        fa, fb = a.frame_of(key), b.frame_of(key)
        assert list(fa.all_slots()) == list(fb.all_slots())
        assert fa.now == fb.now


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_quarters=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_batch_equals_record_at_a_time(seed, n_quarters):
    # hypothesis can't inject pytest fixtures; build layers inline.
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 3)),
            Dimension("b", FanoutHierarchy("b", 2, 3)),
        ]
    )
    layers = CriticalLayers(schema, m_coord=(2, 2), o_coord=(1, 1))
    records = random_batch(seed, 60, n_quarters)
    grouped = make_engine(layers)
    scalar = make_engine(layers)
    grouped.ingest_many(records)
    for record in records:
        scalar.ingest(record)
    assert_engines_identical(grouped, scalar)


class TestGroupedIngest:
    def test_multiple_batches_mid_quarter(self, layers):
        """Partial-quarter batches fold into earlier batches' partial sums."""
        rng = random.Random(5)
        grouped = make_engine(layers)
        scalar = make_engine(layers)
        for start in range(0, 4 * TPQ, 2):  # two ticks per batch: mid-quarter
            batch = [
                StreamRecord(
                    (rng.randrange(9), rng.randrange(9)),
                    start + (i % 2),
                    rng.uniform(-5, 5),
                )
                for i in range(10)
            ]
            batch.sort(key=lambda r: r.t // TPQ)
            grouped.ingest_many(batch)
            for record in batch:
                scalar.ingest(record)
        assert_engines_identical(grouped, scalar)

    def test_large_groups(self, layers):
        """One hot cell taking dozens of records per quarter."""
        rng = random.Random(9)
        records = []
        for q in range(3):
            for _ in range(40):  # one hot cell per quarter
                records.append(
                    StreamRecord(
                        (1, 2), q * TPQ + rng.randrange(TPQ),
                        rng.uniform(-2, 2),
                    )
                )
        grouped = make_engine(layers)
        scalar = make_engine(layers)
        grouped.ingest_many(records)
        for record in records:
            scalar.ingest(record)
        assert_engines_identical(grouped, scalar)

    def test_repeated_ticks_accumulate_in_record_order(self, layers):
        """Same-tick records sum left to right on both paths."""
        values = [1e16, 1.0, 1.0, -1e16]
        records = [StreamRecord((0, 0), 0, z) for z in values]
        grouped = make_engine(layers)
        scalar = make_engine(layers)
        grouped.ingest_many(records)
        for record in records:
            scalar.ingest(record)
        assert_engines_identical(grouped, scalar)

    def test_windows_match_after_seal(self, layers):
        records = random_batch(3, 80, 5)
        grouped = make_engine(layers)
        scalar = make_engine(layers)
        grouped.ingest_many(records)
        for record in records:
            scalar.ingest(record)
        grouped.advance_to(5 * TPQ)
        scalar.advance_to(5 * TPQ)
        # dict equality on frozen dataclasses == exact float equality
        assert grouped.window_isbs(0, 5 * TPQ - 1) == scalar.window_isbs(
            0, 5 * TPQ - 1
        )


class TestPruneIdleO1:
    def test_idle_cell_dropped_without_frame_probe(self, layers):
        engine = make_engine(layers)
        for t in range(TPQ):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
            engine.ingest(StreamRecord((3, 3), t, 1.0))
        for t in range(TPQ, 3 * TPQ):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
        engine.advance_to(3 * TPQ)
        assert engine.prune_idle(2) == 1
        assert engine.tracked_cells == 1

    def test_zero_reporting_cell_counts_as_active(self, layers):
        """A sensor streaming zeros has records — it is alive, not idle."""
        engine = make_engine(layers)
        for t in range(3 * TPQ):
            engine.ingest(StreamRecord((0, 0), t, 0.0))
        engine.advance_to(3 * TPQ)
        assert engine.prune_idle(2) == 0
        assert engine.tracked_cells == 1

    def test_uncoverable_window_prunes_nothing(self, layers):
        from repro.tilt.frame import TiltLevelSpec

        engine = StreamCubeEngine(
            layers,
            GlobalSlopeThreshold(0.0),
            ticks_per_quarter=TPQ,
            frame_levels=[TiltLevelSpec("quarter", TPQ, 2)],
        )
        for t in range(TPQ):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
        engine.advance_to(6 * TPQ)  # far beyond 2 retained quarter slots
        # 5 idle quarters, but only 2 retained: idleness is unprovable.
        assert engine.prune_idle(5) == 0
        assert engine.tracked_cells == 1

    def test_accumulating_cell_survives(self, layers):
        engine = make_engine(layers)
        for t in range(2 * TPQ):
            engine.ingest(StreamRecord((0, 0), t, 1.0))
        engine.advance_to(2 * TPQ)
        engine.ingest(StreamRecord((3, 3), 2 * TPQ, 1.0))
        assert engine.prune_idle(2) == 0
        assert engine.tracked_cells == 2
