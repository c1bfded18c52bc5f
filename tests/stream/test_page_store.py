"""The page-columnar tilt store against one ``TiltTimeFrame`` per cell.

The engine keeps every cell's sealed history as rows of shared pages
(:class:`repro.tilt.frame.TiltPages`).  The reference here is the design it
replaced, done the slow way: each cell owns a frame, built by feeding that
cell's quarters — flat zeros before its birth — to the public single-series
API, one frame at a time.  The reference frames have unbounded capacity, so
they double as the archive a cold store must reproduce.

Contract: ``frame_of(key)`` is slot-for-slot bit-identical to the reference
at every level; ``window_isbs`` is bit-identical to merging the reference's
slots; both survive ``snapshot()`` -> codec -> ``restore``; with a cold
store attached, every demoted slot faults back as the reference's.
"""

from __future__ import annotations

import importlib.util
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import engine_state_from_dict, engine_state_to_dict
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.regression.linear import RunningRegression
from repro.storage import FileColdStore
from repro.stream.engine import StreamCubeEngine, engine_frame_levels
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.tilt.frame import TiltLevelSpec, TiltTimeFrame, bulk_insert

TPQ = 2
POOL = [(0, 0), (1, 2), (4, 4), (7, 1), (3, 8), (8, 8), (2, 5)]
LEVELS = engine_frame_levels(TPQ)
#: Levels small enough that the coarsest one evicts within a short run.
SMALL_LEVELS = [
    TiltLevelSpec("quarter", TPQ, 4),
    TiltLevelSpec("hour", 4 * TPQ, 6),
    TiltLevelSpec("day", 24 * TPQ, 3),
]
LAYERS = DatasetSpec(2, 2, 3, 1).build_layers()
POLICY = GlobalSlopeThreshold(0.05)


class PerCellReference:
    """One unbounded frame per cell, advanced one frame at a time."""

    def __init__(self, levels):
        self.levels = [
            TiltLevelSpec(lv.name, lv.unit_ticks, 10**6) for lv in levels
        ]
        self.quarter = 0
        self.frames: dict[tuple, TiltTimeFrame] = {}
        self.sums: dict[tuple, dict[int, float]] = {}
        self.last_active: dict[tuple, int] = {}

    @staticmethod
    def _insert(frame: TiltTimeFrame, isb: ISB) -> None:
        # A batch of one: the engine's promotion arithmetic (the grid
        # kernel) for this series alone.
        bulk_insert([frame], [isb])

    def _zero(self, quarter: int) -> ISB:
        return ISB(quarter * TPQ, quarter * TPQ + TPQ - 1, 0.0, 0.0)

    def add(self, key, t, z) -> None:
        self.seal_to(t // TPQ)
        if key not in self.frames:
            frame = TiltTimeFrame(self.levels)
            for quarter in range(self.quarter):  # zero backfill, for real
                self._insert(frame, self._zero(quarter))
            self.frames[key] = frame
            self.sums[key] = {}
        self.sums[key][t] = self.sums[key].get(t, 0.0) + z
        self.last_active[key] = t // TPQ

    def seal_to(self, quarter: int) -> None:
        for q in range(self.quarter, quarter):
            for key, frame in self.frames.items():
                sums = self.sums[key]
                if sums:
                    running = RunningRegression()
                    for t in sorted(sums):
                        running.add(t, sums[t])
                    fit = running.fit_window(q * TPQ, q * TPQ + TPQ - 1)
                    isb = ISB(q * TPQ, q * TPQ + TPQ - 1, fit.base, fit.slope)
                    sums.clear()
                else:
                    isb = self._zero(q)
                self._insert(frame, isb)
        self.quarter = max(self.quarter, quarter)

    def prune(self, idle: int, dropped: int) -> None:
        """Mirror an engine ``prune_idle(idle)`` that dropped ``dropped``."""
        cutoff = self.quarter - min(idle, self.quarter)
        dead = [
            key
            for key in self.frames
            if not self.sums[key] and self.last_active[key] < cutoff
        ]
        # 0 is also legal: the window was not covered by retained history.
        assert dropped in (0, len(dead))
        if dropped:
            for key in dead:
                del self.frames[key], self.sums[key], self.last_active[key]

    def slot(self, key, level: int, t_b: int) -> ISB:
        # Nothing is ever evicted from the archive: slots sit at their index.
        slot = self.frames[key].slots(level)[t_b // self.levels[level].unit_ticks]
        assert slot.t_b == t_b
        return slot

    def window(self, plan, keys) -> dict[tuple, ISB]:
        """The engine's merge over the reference's slots for ``plan``."""
        pieces = [
            [self.slot(key, level, t_b) for key in keys]
            for level, _, t_b, _ in plan
        ]
        columns = [kernels.ISBColumns.from_isbs(piece) for piece in pieces]
        merged = (
            columns[0] if len(columns) == 1 else kernels.merge_time_grid(columns)
        )
        return dict(zip(keys, merged.to_isbs()))


def assert_frames_match(engine, reference, levels) -> None:
    """Every cell's materialized frame == the reference's newest slots."""
    assert engine.current_quarter == reference.quarter
    for key, archive in reference.frames.items():
        frame = engine.frame_of(key)
        assert frame.now == archive.now
        for li, spec in enumerate(levels):
            assert frame.slots(li) == archive.slots(li)[-spec.capacity :], (
                key,
                spec.name,
            )
        coarsest = len(levels) - 1
        assert frame.evicted_slots == max(
            0, len(archive.slots(coarsest)) - levels[coarsest].capacity
        )


def assert_windows_match(engine, reference, windows) -> None:
    keys = list(reference.frames)
    if not keys:  # everything pruned
        return
    probe = engine.frame_of(keys[0])
    for t_b, t_e in windows:
        plan = probe.window_plan(t_b, t_e)
        got = engine.window_isbs(t_b, t_e)
        assert list(got) == keys  # row order is birth order
        assert got == reference.window(plan, keys), (t_b, t_e)
        for key in keys:  # slot by slot, cold ones faulted in
            assert engine.frame_of(key).slots_at(plan) == [
                reference.slot(key, level, piece_b)
                for level, _, piece_b, _ in plan
            ], (key, t_b, t_e)


def recent_windows(quarter: int) -> list[tuple[int, int]]:
    end = quarter * TPQ - 1
    return [(end - n * TPQ + 1, end) for n in (1, 3, 4) if n <= quarter]


def round_trip(engine, **restore_kwargs) -> StreamCubeEngine:
    wire = json.loads(json.dumps(engine_state_to_dict(engine.snapshot())))
    return StreamCubeEngine.restore(
        engine_state_from_dict(wire), LAYERS, POLICY, **restore_kwargs
    )


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("rec"),
            st.integers(0, len(POOL) - 1),
            st.floats(-5.0, 5.0, allow_nan=False),
        ),
        st.tuples(st.just("adv"), st.integers(1, 40), st.none()),
        st.tuples(st.just("prune"), st.integers(1, 8), st.none()),
    ),
    min_size=10,
    max_size=60,
)


def drive(script, engine, reference, check) -> None:
    """Run ``script`` through both, then past two days; ``check`` after
    every clock movement."""
    t = 0
    script = list(script) + [("adv", 1, None)]
    # Two cells from the start, and a closing stretch that guarantees a run
    # past quarter 192 with a late birth and a revival inside it.
    script = [("rec", 0, 1.0), ("rec", 1, -2.0)] + script
    script += [("adv", 97, None), ("rec", 6, 3.5), ("adv", 3, None),
               ("prune", 2, None), ("rec", 0, 0.25), ("adv", 97, None)]
    for op, a, b in script:
        if op == "rec":
            key = POOL[a]
            engine.ingest(StreamRecord(key, t, b))
            reference.add(key, t, b)
            t += 1  # next tick: a quarter holds TPQ of them
        elif op == "adv":
            t = (t // TPQ + a) * TPQ
            engine.advance_to(t)
            reference.seal_to(t // TPQ)
            check()
        else:
            reference.prune(a, engine.prune_idle(a))
            check()
    assert engine.current_quarter > 2 * 96


@pytest.mark.parametrize("levels", [LEVELS, SMALL_LEVELS], ids=["fig4", "small"])
@given(script=steps)
@settings(max_examples=8, deadline=None)
def test_pages_match_one_frame_per_cell(levels, script):
    engine = StreamCubeEngine(
        LAYERS, POLICY, ticks_per_quarter=TPQ, frame_levels=levels
    )
    reference = PerCellReference(levels)

    def check():
        assert_frames_match(engine, reference, levels)
        assert_windows_match(
            engine, reference, recent_windows(engine.current_quarter)
        )

    drive(script, engine, reference, check)
    restored = round_trip(engine)
    assert_frames_match(restored, reference, levels)
    assert_windows_match(
        restored, reference, recent_windows(restored.current_quarter)
    )
    # The future is identical too: rows keep their order through the codec.
    now = engine.current_quarter
    for sink in (engine, restored):
        sink.ingest(StreamRecord(POOL[5], now * TPQ, 9.0))
        sink.advance_to((now + 5) * TPQ)
    assert restored.window_isbs(
        *recent_windows(restored.current_quarter)[-1]
    ) == engine.window_isbs(*recent_windows(engine.current_quarter)[-1])


@pytest.mark.parametrize("hot", [1, 2, 3])
@given(script=steps)
@settings(max_examples=3, deadline=None)
def test_demoted_pages_fault_back_as_the_reference(hot, script):
    with tempfile.TemporaryDirectory() as scratch:
        store = FileColdStore(Path(scratch) / "cold")
        engine = StreamCubeEngine(
            LAYERS, POLICY, ticks_per_quarter=TPQ, storage=store, hot_quarters=hot
        )
        reference = PerCellReference(LEVELS)

        def windows():
            quarter = engine.current_quarter
            if not quarter:
                return []
            end = quarter * TPQ - 1
            deep = [(0, end), (0, TPQ - 1), ((quarter // 2) * TPQ, end)]
            return recent_windows(quarter) + deep

        def check():
            assert_windows_match(engine, reference, windows())

        drive(script, engine, reference, check)
        assert engine.storage_stats()["pages_spilled"] > 0
        # Demotion bounds what stays resident, whatever the history.
        assert engine.frame_of(POOL[0]).total_retained < 40
        restored = round_trip(engine, storage=store, hot_quarters=hot)
        assert_windows_match(restored, reference, windows())


def test_a_retained_slot_costs_sixteen_bytes_not_an_object():
    """1,000 cells through 200 quarters: growth per retained slot <= 32 B
    (two float64s plus slack; one ISB per slot per cell was 176 B)."""
    wide = DatasetSpec(2, 2, 32, 1).build_layers()
    engine = StreamCubeEngine(wide, POLICY, ticks_per_quarter=1)
    keys = [(a, b) for a in range(40) for b in range(25)]

    def quarter(q: int) -> list[StreamRecord]:
        return [
            StreamRecord(key, q, 0.001 * i + 0.1 * q)
            for i, key in enumerate(keys)
            if (i + q) % 2  # half the cells speak each quarter
        ]

    engine.ingest_many(quarter(0) + quarter(1))
    assert engine.tracked_cells == 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for q in range(2, 202):
            engine.ingest_many(quarter(q))
        engine.advance_to(202)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    slots = engine.frame_of(keys[0]).total_retained * engine.tracked_cells
    assert slots >= 30_000  # 4 quarters + 24 hours + 2 days, per cell
    assert grown / slots <= 32, f"{grown / slots:.1f} B per retained slot"


def test_a_parent_written_snapshot_restores_with_byte_equal_query_bodies():
    """The snapshot directory under ``fixtures/parent_snapshot`` was written
    by the last build with one frame per cell (see its ``make_fixture.py``):
    shard files, a WAL tail, file-store cold pages.  Same ``STATE_VERSION``,
    so it must load here and answer every recorded query byte for byte."""
    fixture = Path(__file__).parent / "fixtures" / "parent_snapshot"

    spec = importlib.util.spec_from_file_location(
        "make_fixture", fixture / "make_fixture.py"
    )
    make_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixture)

    expected = json.loads((fixture / "expected_bodies.json").read_text())
    assert expected["queries"] == make_fixture.QUERIES
    # bodies() restores a scratch copy: the committed files stay untouched.
    assert make_fixture.bodies(fixture) == expected["bodies"]
