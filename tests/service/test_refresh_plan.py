"""Refresh without rebuilding: the held plan against a from-scratch recube.

``ShardedStreamCube.refresh`` (and ``StreamCubeEngine.refresh``) keep the
:class:`~repro.cubing.mo_cubing.CubePlan` of the current cell set and re-run
only the floats at each seal.  Two things have to hold:

* **differentially** — whatever happens to the cell set (births
  mid-stream, ``prune_idle`` then revival, reshard, snapshot -> restore, a
  degraded read with a shard down), the planned refresh equals
  ``mo_cubing`` run from scratch over the boxed ``{values: ISB}`` of the
  same read cut: key order of every cuboid, exception sets, every
  ``CubingStats`` counter, and every float to the bit;
* **structurally** — seals that leave the cell set alone re-encode, re-sort
  and re-group nothing and box no cell nobody read, a birth costs exactly
  one rebuild, and the checks a rebuild used to run per refresh still fire
  where their input changes.

(The walk itself — plan + run against the scalar H-tree walk — is pinned by
``tests/cubing/test_columnar_mo.py``.)
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io as repro_io
from repro.cube.hierarchy import LevelCodes
from repro.cubing.mo_cubing import CubePlan, PlannedCells, mo_cubing
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import AggregationError, CorruptionError, ServiceError
from repro.query.spec import Q
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.service import merge
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.engine import StreamCubeEngine
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL
from tests.cubing.test_columnar_mo import (
    assert_same_result,
    layers_strategy,
    level_values,
    scalar_mo_cubing,
)

TPQ = 2
WINDOWS = (1, 4, 8)
POLICY = GlobalSlopeThreshold(0.25)


def assert_planned_equals_scratch(source, layers, expect_cells=None):
    """Every window the history covers: the held-plan refresh against
    ``mo_cubing`` from scratch over the same cut's boxed m-layer."""
    for window in WINDOWS:
        # Past the four finest slots a window must start on an hour.
        sealed = source.current_quarter
        if sealed < window or (window > 4 and sealed % 4):
            continue
        planned = source.refresh(window)
        cells = source.m_cells(window)
        assert_same_result(planned, mo_cubing(layers, cells, POLICY), max_ulps=0)
        for coord, cuboid in planned.cuboids.items():
            for values, isb in cuboid.items():
                assert isinstance(values, tuple) and isinstance(isb, ISB), coord
        if expect_cells is not None:
            assert set(planned.m_layer) == expect_cells
    if source.current_quarter >= 4:
        # ... and against the walk that shares no code with the plan.
        assert_same_result(
            source.refresh(4),
            scalar_mo_cubing(layers, source.m_cells(4), POLICY),
            max_ulps=4,
        )


class Stream:
    """Seeded traffic over a key pool that keeps growing: every quarter a
    few cells speak, and some of them for the first time."""

    def __init__(self, layers, rng):
        pools = [
            level_values(dim, level)
            for dim, level in zip(layers.schema.dimensions, layers.m_coord)
        ]
        self.unborn = list(itertools.product(*pools))
        rng.shuffle(self.unborn)
        del self.unborn[24:]
        self.born: list[tuple] = []
        self.rng = rng
        self.quarter = 0

    def quarter_records(self, births: int = 2, speakers: int = 5):
        rng = self.rng
        for _ in range(min(births, len(self.unborn))):
            self.born.append(self.unborn.pop())
        keys = rng.sample(self.born, min(speakers, len(self.born)))
        keys += self.born[-births:]  # the newborn speak in their first quarter
        lo = self.quarter * TPQ
        self.quarter += 1
        return [
            StreamRecord(key, lo + rng.randrange(TPQ), rng.uniform(-3.0, 7.0))
            for key in keys
            for _ in range(rng.randrange(1, 3))
        ]


def lose_shard(cube, shard):
    """Make one in-process shard unreadable the way a quarantined cold page
    does: its one window read raises, so every merged read (planned or
    boxed) sees the same hole."""

    def quarantined(*args):
        raise CorruptionError("cold page quarantined (injected)")

    cube.shards[shard].window_columns = quarantined
    cube.degraded_reads = True


def heal_shard(cube, shard):
    del cube.shards[shard].window_columns
    cube.degraded_reads = False
    cube.consume_degraded()


# ----------------------------------------------------------------------
# Differential: the held plan vs a from-scratch recube of the same cut
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["fanout", "explicit", "mixed"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_held_plan_equals_scratch_through_cell_set_churn(kind, data, tmp_path_factory):
    layers = data.draw(layers_strategy(kind))
    rng = random.Random(data.draw(st.integers(0, 2**20)))
    stream = Stream(layers, rng)
    engine = StreamCubeEngine(layers, POLICY, ticks_per_quarter=TPQ)
    cube = ShardedStreamCube(layers, POLICY, n_shards=2, ticks_per_quarter=TPQ)
    steps = ["traffic"] * 4 + rng.sample(
        ["traffic", "quiet", "prune", "reshard", "restore", "degraded", "traffic"], 7
    )  # eight quarters in all: the last check sees windows 1, 4 and 8
    try:
        for step in steps:
            if step == "traffic":
                records = stream.quarter_records(births=rng.randrange(3))
                engine.ingest_many(records)
                cube.ingest_batch(records)
            elif step == "quiet":
                stream.quarter += 2
                engine.advance_to(stream.quarter * TPQ)
                cube.advance_to(stream.quarter * TPQ)
            elif step == "prune":
                # Idle cells go; the next traffic step revives some of them
                # (they are still in ``born``) under new rows.
                assert engine.prune_idle(2) == cube.prune_idle(2)
            elif step == "reshard":
                with cube:
                    cube = cube.reshard(rng.choice([1, 2, 7]))
            elif step == "restore":
                target = tmp_path_factory.mktemp("snap")
                with cube:
                    cube.snapshot(target)
                    n_shards = rng.choice([None, 1, 2, 7])
                    cube = ShardedStreamCube.restore(
                        target, layers, POLICY, n_shards=n_shards
                    )
                engine = StreamCubeEngine.restore(engine.snapshot(), layers, POLICY)
            elif step == "degraded" and cube.current_quarter >= 1:
                lost = rng.randrange(cube.n_shards)
                survivors = {
                    key for key in cube.m_cells(1) if cube.shard_index(key) != lost
                }
                lose_shard(cube, lost)
                assert_planned_equals_scratch(cube, layers, survivors)
                assert {h["shard"] for h in cube.consume_degraded()} == {lost}
                heal_shard(cube, lost)
            engine.advance_to(stream.quarter * TPQ)
            cube.advance_to(stream.quarter * TPQ)
            builds = cube.plan_builds
            assert_planned_equals_scratch(cube, layers)
            # Windows 1 / 4 / 8 (and the repeat) share one plan.
            assert cube.plan_builds - builds <= 1
            assert_planned_equals_scratch(engine, layers)
            if cube.current_quarter >= 1:
                assert cube.m_cells(1) == engine.m_cells(1)
    finally:
        cube.close()


def test_held_plan_equals_scratch_through_reload_and_loss(layers, tmp_path):
    """A fixed churn on a journaled cube: a seal with no birth reuses the
    plan, a shard whose state is reloaded in place gets a new generation
    that is never mistaken for its old one (exactly one rebuild), and a
    quarantined shard's hole rebuilds the plan over the survivors."""
    rng = random.Random(23)
    stream = Stream(layers, rng)
    cube = ShardedStreamCube(
        layers,
        POLICY,
        n_shards=2,
        ticks_per_quarter=TPQ,
        wal=QuarterWAL(tmp_path / "snap" / "wal.jsonl"),
    )
    try:
        for _ in range(5):
            cube.ingest_batch(stream.quarter_records())
        cube.advance_to(stream.quarter * TPQ)
        assert_planned_equals_scratch(cube, layers)
        builds = cube.plan_builds
        cube.ingest_batch(stream.quarter_records(births=0))  # a seal, no birth
        cube.advance_to(stream.quarter * TPQ)
        assert_planned_equals_scratch(cube, layers)
        assert cube.plan_builds == builds

        shard = cube.shards[0]
        shard.load_state(shard.snapshot())  # same cells, a new generation
        assert_planned_equals_scratch(cube, layers)
        assert cube.plan_builds == builds + 1

        stream.quarter += 3
        cube.advance_to(stream.quarter * TPQ)
        assert cube.prune_idle(2) > 0
        cube.snapshot(tmp_path / "snap")
        cube.ingest_batch(stream.quarter_records())  # revival + births
        cube.advance_to(stream.quarter * TPQ)
        assert_planned_equals_scratch(cube, layers)

        for n_shards in (7, 1):
            with cube:
                old, cube = cube, cube.reshard(n_shards)
                cube.wal, old.wal = old.wal, None
            assert_planned_equals_scratch(cube, layers)
        with cube:
            old, cube = cube, cube.reshard(2)
            cube.wal, old.wal = old.wal, None
        cube.snapshot(tmp_path / "snap")

        whole = set(cube.m_cells(1))
        lose_shard(cube, 1)
        survivors = {key for key in whole if cube.shard_index(key) != 1}
        assert survivors and survivors != whole
        assert_planned_equals_scratch(cube, layers, survivors)
        assert {h["shard"] for h in cube.consume_degraded()} == {1}
    finally:
        wal = cube.wal
        cube.close()
        if wal is not None:
            wal.close()


# ----------------------------------------------------------------------
# Structural: what an unchanged cell set no longer pays for
# ----------------------------------------------------------------------
def census(layers, rng, n_cells=40):
    pools = [
        level_values(dim, level)
        for dim, level in zip(layers.schema.dimensions, layers.m_coord)
    ]
    keys = rng.sample(list(itertools.product(*pools)), n_cells)
    return keys, [StreamRecord(key, 0, rng.uniform(0.0, 4.0)) for key in keys]


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the structure-deriving functions and of ``ISB``
    construction, from the moment the fixture is requested."""
    counts = dict.fromkeys(
        [
            "encode",
            "first_seen_groups",
            "pack_keys",
            "canonical_cell_order",
            "isb",
            "json_heads",
        ],
        0,
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        LevelCodes, "encode", classmethod(counting("encode", LevelCodes.encode.__func__))
    )
    for name in ("first_seen_groups", "pack_keys"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    monkeypatch.setattr(
        merge,
        "canonical_cell_order",
        counting("canonical_cell_order", merge.canonical_cell_order),
    )
    monkeypatch.setattr(ISB, "__post_init__", counting("isb", ISB.__post_init__))
    monkeypatch.setattr(
        repro_io, "_row_heads", counting("json_heads", repro_io._row_heads)
    )
    return counts


def test_seals_on_an_unchanged_cell_set_rebuild_and_box_nothing(layers, counted):
    rng = random.Random(5)
    keys, prefill = census(layers, rng)
    with ShardedStreamCube(layers, POLICY, n_shards=2, ticks_per_quarter=TPQ) as cube:
        router = QueryRouter(cube, window_quarters=4)
        cube.ingest_batch(prefill)
        cube.advance_to(4 * TPQ)
        deck = router.execute(Q.observation_deck()).value
        assert router.stats()["plan_builds"] == 1

        def seal(quarter, records):
            cube.ingest_batch(records)
            cube.advance_to((quarter + 1) * TPQ)

        for name in counted:
            counted[name] = 0
        for quarter in range(4, 24):
            seal(
                quarter,
                [
                    StreamRecord(key, quarter * TPQ, rng.uniform(0.0, 4.0))
                    for key in rng.sample(keys, 10)
                ],
            )
            sealed_isbs = counted["isb"]
            answer = router.execute(Q.observation_deck())
            assert list(answer.value) == list(deck)  # same cells, same order
            # The deck and its wire bytes are read off the columns: no cell
            # is boxed, neither by the answer nor by its encoding.
            assert answer.wire
            assert counted["isb"] - sealed_isbs == 0
            assert router.execute(Q.observation_deck()) is answer  # a hit
            # A ranking boxes its k rows and nothing else.
            top = router.execute(Q.top_slopes(layers.o_coord, k=3))
            assert top.wire and len(top.value) == 3
            assert counted["isb"] - sealed_isbs == 3
        stats = router.stats()
        assert (stats["plan_builds"], stats["plan_reuses"]) == (1, 20)
        assert stats["refreshes"] == 21
        for name in ("encode", "first_seen_groups", "pack_keys", "canonical_cell_order"):
            assert counted[name] == 0, name
        # The deck's per-row key text is rendered once for the held plan.
        assert counted["json_heads"] == 1

        # One birth: exactly one rebuild (one encode per dimension, one
        # canonical sort), then the plan holds again.
        newborn = next(
            key
            for key in itertools.product(range(9), repeat=2)
            if key not in set(keys)
        )
        seal(24, [StreamRecord(newborn, 24 * TPQ, 1.0)])
        reborn = router.execute(Q.observation_deck())
        assert len(reborn.value) >= len(deck) and reborn.wire
        assert router.stats()["plan_builds"] == 2
        assert counted["json_heads"] == 2
        assert counted["encode"] == layers.schema.n_dims
        assert counted["canonical_cell_order"] == len(keys) + 1
        seal(25, [StreamRecord(newborn, 25 * TPQ, 2.0)])
        router.execute(Q.observation_deck())
        assert router.stats()["plan_builds"] == 2
        assert counted["encode"] == layers.schema.n_dims


def test_a_key_on_two_shards_is_still_refused(layers):
    """The disjointness check moved from every refresh to every plan
    build — and a plan is built whenever the keys change."""
    with ShardedStreamCube(layers, POLICY, n_shards=2, ticks_per_quarter=TPQ) as cube:
        cube.ingest_batch([StreamRecord((1, 1), 0, 1.0), StreamRecord((2, 5), 0, 2.0)])
        cube.advance_to(TPQ)
        cube.refresh(1)
        stray = 1 - cube.shard_index((1, 1))
        cube.shards[stray].ingest_many([StreamRecord((1, 1), TPQ, 3.0)])
        cube.advance_to(2 * TPQ)
        with pytest.raises(ServiceError) as planned:
            cube.refresh(1)
        with pytest.raises(ServiceError) as boxed:
            cube.m_cells(1)
        assert str(planned.value) == str(boxed.value)
        assert "present on more than one shard" in str(planned.value)


def test_mismatched_intervals_are_refused_at_every_run(layers):
    """The interval check is a float-side check: it runs with the kernels,
    plan or no plan."""
    np = kernels.np
    keys = [(0, 0), (0, 1), (1, 2)]  # siblings: they merge one level up
    plan = CubePlan(layers, keys)
    good = kernels.ISBColumns.over(0, 7, np.ones(3), np.ones(3))
    assert len(mo_cubing(layers, PlannedCells(plan, good), POLICY).m_layer) == 3
    bad = kernels.ISBColumns(
        np.array([0, 0, 8]), np.array([7, 7, 15]), np.ones(3), np.ones(3)
    )
    with pytest.raises(AggregationError, match="identical intervals"):
        plan.run(bad, POLICY)
    with pytest.raises(AggregationError, match="identical intervals"):
        scalar_mo_cubing(layers, dict(zip(keys, bad.to_isbs())), POLICY)
