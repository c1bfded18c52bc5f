"""Seeded, declarative chaos scenarios, differentially checked end to end.

A :class:`Scenario` is a cube configuration plus a composable event stream:
traffic shapes (bursts, trickles, boundary ticks, duplicates, multi-quarter
batches), quiet gaps, mid-quarter snapshot+restore, online resharding, WAL
crash/replay, idle-cell pruning with revival, and query/cache churn.  The
:class:`ScenarioRunner` interprets the events against *three* systems at
once — a one-shard :class:`~repro.service.sharding.ShardedStreamCube`
(the reference), the scenario's N-shard cube (with a live WAL), and the
``Q``/``execute``/:class:`~repro.service.router.QueryRouter` query layer —
and checks every answer against the brute-force
:class:`~repro.verify.oracle.RawStreamOracle`:

* reference and cube answers must agree with the oracle to ulps
  (:data:`~repro.verify.oracle.DEFAULT_TOLERANCE`);
* reference and cube must agree with *each other* bit for bit (the
  sharding equivalence guarantee), as must every restored / resharded /
  replayed successor.

Everything is derived from one integer seed, so any failure replays
exactly: ``run_scenario("crash_replay", seed=1234)``.

Scenarios may also run under tiered storage (``Scenario.storage``): every
system spills sealed history past a small hot horizon into a cold store,
and the :class:`DeepWindow` event queries windows that *only* the cold
tier can answer — any catalogue entry can be re-run spilling via
``run_scenario(name, seed, storage=True)``.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable

from repro import faults
from repro.cubing.full import full_materialization
from repro.cubing.policy import GlobalSlopeThreshold
from repro.cubing.popular_path import popular_path_cubing
from repro.cubing.result import CubeResult
from repro.errors import CorruptionError
from repro.io import isb_from_dict
from repro.query.exec import RegressionCubeView, execute
from repro.query.spec import Q
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import SubscriptionRegistry
from repro.storage import StorageConfig
from repro.stream.engine import engine_frame_levels
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL
from repro.verify.oracle import (
    DEFAULT_TOLERANCE,
    RawStreamOracle,
    VerifyMismatch,
    _flag_sets_equal,
    assert_cells_equal,
    assert_result_equal,
    isb_agree,
)

__all__ = [
    "Scenario",
    "ScenarioReport",
    "ScenarioRunner",
    "SCENARIOS",
    "run_scenario",
    # events
    "Traffic",
    "Advance",
    "Check",
    "SnapshotRestore",
    "Reshard",
    "CrashReplay",
    "Prune",
    "CacheChurn",
    "DeepWindow",
    "Subscribe",
    "DrainUpdates",
    "Pulls",
    "LoseShard",
]

Values = tuple[Hashable, ...]


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Traffic:
    """Ingest seeded traffic.

    ``style`` shapes the stream: ``"burst"`` is several records per tick,
    ``"trickle"`` leaves most ticks (and some cells' whole quarters) empty,
    ``"boundary"`` lands every record on a quarter's first or last tick,
    ``"duplicate"`` repeats records — same (cell, tick) with new values and
    exact duplicates of earlier records in the same batch.

    ``batching`` picks the ingest surface: ``"per_quarter"`` one
    ``ingest_many``/``ingest_batch`` call per quarter, ``"spanning"`` one
    call for the whole multi-quarter batch, ``"single"`` record-at-a-time
    ``ingest`` calls.
    """

    quarters: int = 2
    rate: int = 3
    style: str = "burst"
    batching: str = "per_quarter"


@dataclass(frozen=True)
class Advance:
    """Advance the clock over quiet quarters (no traffic)."""

    quarters: int = 1


@dataclass(frozen=True)
class Check:
    """Differentially verify current state against the oracle.

    ``windows`` — m-layer window regressions (plus reference==cube equality);
    ``cube`` — a full cubing refresh (cells, flags, retention closure) or,
    with ``algorithm`` set, that cubing function run on both systems'
    ``m_cells`` (a refresh always runs m/o-cubing);
    ``queries`` — the declarative query layer through view and router;
    ``changes`` — current-vs-previous change exceptions at both layers.
    """

    windows: bool = True
    cube: bool = False
    queries: bool = False
    changes: bool = False
    algorithm: Callable[..., CubeResult] | None = None


@dataclass(frozen=True)
class SnapshotRestore:
    """Snapshot both systems (possibly mid-quarter), restore, and continue
    on the restored instances — the rest of the scenario runs on them."""


@dataclass(frozen=True)
class Reshard:
    """Online-reshard the cube to ``shards`` and continue on the result."""

    shards: int = 5


@dataclass(frozen=True)
class CrashReplay:
    """Simulate a crash: rebuild a cube from the last snapshot directory
    plus WAL replay (with a torn final journal line) and verify it matches
    the live cube bit for bit."""


@dataclass(frozen=True)
class Prune:
    """Prune idle cells on reference and cube; verify the drop sets against
    the oracle's idleness rule and mirror the drop into the oracle."""

    idle_quarters: int = 2


@dataclass(frozen=True)
class CacheChurn:
    """Exercise the router's result cache: repeat a query mix (hits must
    equal misses), then watch a seal invalidate the epoch."""

    repeats: int = 2


@dataclass(frozen=True)
class DeepWindow:
    """Query windows that reach past the hot horizon into the cold store.

    Only legal in a scenario with ``storage`` configured.  Checks the full
    from-origin window plus seeded hour-, day-, and quarter-aligned
    prefixes that end long before the hot set begins — windows a
    storage-free cube cannot answer at all.  Reference and cube must agree
    bit for bit, and both are checked against the oracle; once enough
    quarters have sealed the event also insists the cold tier actually
    participated (pages spilled, pages faulted back).
    """

    samples: int = 2


@dataclass(frozen=True)
class Subscribe:
    """Register continuous queries on the cube's seal path.

    Creates the runner's :class:`SubscriptionRegistry` (if needed) and
    registers three subscribers: two o-layer exception watches sharing one
    spec (so delivery must collapse them onto a single execution per seal)
    and one ``observation_deck``.  ``every_k`` applies to the second watch
    subscriber, exercising the every-K-quarters cadence alongside
    every-seal delivery.  From here on, every Traffic/Advance seal pushes
    updates concurrently with the rest of the event stream.
    """

    every_k: int = 2
    queue_limit: int = 64


@dataclass(frozen=True)
class DrainUpdates:
    """Wait for the dispatcher to go idle, then verify *every* delivered
    update against the oracle recomputed at that update's own quarter:
    payload bit-agreement (to ulps), per-subscription ``seq`` strictly
    increasing, epoch vectors componentwise non-decreasing, and the
    stamped quarter consistent with the epoch vector.  With
    ``expect_updates`` (default) it is a scenario bug if an every-seal
    subscriber has nothing new once the window has ever filled."""

    expect_updates: bool = True


@dataclass(frozen=True)
class Pulls:
    """The dashboard's pulls through the router, each against the oracle.

    ``observation_deck``, ``watch_list``, ``exceptions`` and ``top_slopes``
    over every window in ``windows`` (default: the scenario's) — the
    answers the merged refresh exists for.  Then the cube's plan counters:
    if nothing touched the cell set since the previous ``Pulls`` (same
    cube, same keys, no prune) no pull may have rebuilt the cubing plan,
    and if something did, one must have.  After :class:`LoseShard` the
    answers must be exactly the survivors' and name the hole.
    """

    windows: tuple[int, ...] = ()


@dataclass(frozen=True)
class LoseShard:
    """Lose one cube shard for good; later ``Pulls`` are degraded.

    The shard's engine's window reads are made to raise what a
    quarantined cold page raises.  The cube's degraded-read
    mode is switched on (as the HTTP service runs) and the lost keys leave
    the oracle: every later pull must equal the survivors' answer.  Only
    ``Pulls`` may follow — a cube with a dead shard ingests nothing.
    """

    shard: int | None = None


Event = (
    Traffic
    | Advance
    | Check
    | SnapshotRestore
    | Reshard
    | CrashReplay
    | Prune
    | CacheChurn
    | DeepWindow
    | Subscribe
    | DrainUpdates
    | Pulls
    | LoseShard
)


# ----------------------------------------------------------------------
# Scenario and report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A cube configuration plus the event stream to drive through it.

    ``storage`` turns on tiered storage for reference *and* cube: sealed
    slots older than ``hot_quarters`` are demoted to a cold store under the
    run's workdir and faulted back on demand — the rest of the event
    stream runs unchanged on top.
    """

    name: str
    description: str
    events: tuple[Event, ...]
    dims: int = 2
    levels: int = 2
    fanout: int = 3
    ticks_per_quarter: int = 4
    threshold: float = 0.06
    window: int = 4
    n_shards: int = 3
    cell_pool: int = 10
    storage: bool = False
    hot_quarters: int = 2


@dataclass
class ScenarioReport:
    """What one seeded scenario run did and verified."""

    name: str
    seed: int
    records: int = 0
    events: int = 0
    checks: int = 0
    cells_compared: int = 0


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ScenarioRunner:
    """Interpret one scenario's events against reference + cube + oracle."""

    def __init__(self, scenario: Scenario, seed: int, workdir: str | Path):
        self.scenario = scenario
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.layers = DatasetSpec(
            scenario.dims, scenario.levels, scenario.fanout, 1
        ).build_layers()
        self.policy = GlobalSlopeThreshold(scenario.threshold)
        self.tpq = scenario.ticks_per_quarter
        # With storage configured, reference and cube each spill into their
        # own cold tier under the workdir.
        self._reference_storage, self._cube_storage = (
            (
                StorageConfig(
                    root=self.workdir / root, hot_quarters=scenario.hot_quarters
                )
                for root in ("reference-store", "cube-store")
            )
            if scenario.storage
            else (None, None)
        )
        self.reference = ShardedStreamCube(
            self.layers,
            self.policy,
            n_shards=1,
            ticks_per_quarter=self.tpq,
            storage=self._reference_storage,
        )
        self.snap_dir = self.workdir / "snapshots"
        self.wal_path = self.snap_dir / "wal.jsonl"
        self.snap_dir.mkdir(parents=True, exist_ok=True)
        self.cube = ShardedStreamCube(
            self.layers,
            self.policy,
            n_shards=scenario.n_shards,
            ticks_per_quarter=self.tpq,
            wal=QuarterWAL(self.wal_path),
            storage=self._cube_storage,
            hot_quarters=scenario.hot_quarters if scenario.storage else None,
        )
        self.router = QueryRouter(self.cube, window_quarters=scenario.window)
        self.oracle = RawStreamOracle(
            self.layers, self.policy, ticks_per_quarter=self.tpq
        )
        self.last_manifest: dict | None = None
        # Per-cell ground-truth lines give the traffic a stable trend per
        # cell, so slopes spread well away from zero *and* the threshold.
        leaf_card = scenario.fanout**scenario.levels
        pool: set[Values] = set()
        while len(pool) < scenario.cell_pool:
            pool.add(
                tuple(
                    self.rng.randrange(leaf_card)
                    for _ in range(scenario.dims)
                )
            )
        self.pool = sorted(pool)
        self.trends = {
            key: (self.rng.uniform(-4.0, 4.0), self.rng.uniform(-0.5, 0.5))
            for key in self.pool
        }
        self.report = ScenarioReport(scenario.name, seed)
        # Continuous-query state (Subscribe / DrainUpdates events): the
        # registry rides the live router; per-subscription consumption
        # cursors survive across drains so ordering is checked globally.
        self.subscriptions: SubscriptionRegistry | None = None
        self._subs_meta: dict[str, str] = {}
        self._every_seal: set[str] = set()
        self._sub_since: dict[str, int] = {}
        self._sub_prev_epoch: dict[str, tuple[int, ...]] = {}
        self._updates_verified = 0
        # Pulls / LoseShard state: the shards lost so far, how often the
        # cell set was re-rowed behind the keys' back (prunes), and what
        # the previous Pulls saw — (cube, keys, prunes, plan_builds).
        self._lost_shards: set[int] = set()
        self._prunes = 0
        self._last_pulls: tuple | None = None

    # ------------------------------------------------------------------
    # Event interpretation
    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        try:
            for event in self.scenario.events:
                self.apply(event)
                self.report.events += 1
            return self.report
        finally:
            if self.subscriptions is not None:
                self.subscriptions.close()
            self.reference.close()
            self.cube.close()
            if self.cube.wal is not None:
                self.cube.wal.close()

    def apply(self, event: Event) -> None:
        handler = {
            Traffic: self._traffic,
            Advance: self._advance,
            Check: self._check,
            SnapshotRestore: self._snapshot_restore,
            Reshard: self._reshard,
            CrashReplay: self._crash_replay,
            Prune: self._prune,
            CacheChurn: self._cache_churn,
            DeepWindow: self._deep_window,
            Subscribe: self._subscribe,
            DrainUpdates: self._drain_updates,
            Pulls: self._pulls,
            LoseShard: self._lose_shard,
        }[type(event)]
        handler(event)

    # -- traffic -------------------------------------------------------
    def _make_quarter(self, quarter: int, event: Traffic) -> list[StreamRecord]:
        rng = self.rng
        lo = quarter * self.tpq
        records: list[StreamRecord] = []

        def reading(key: Values, t: int) -> StreamRecord:
            base, slope = self.trends[key]
            return StreamRecord(
                key, t, base + slope * t + rng.uniform(-0.5, 0.5)
            )

        if event.style == "burst":
            for t in range(lo, lo + self.tpq):
                for _ in range(event.rate):
                    records.append(reading(rng.choice(self.pool), t))
        elif event.style == "trickle":
            for key in self.pool:
                if rng.random() < 0.5:
                    continue  # this cell skips the whole quarter
                for _ in range(max(1, event.rate // 2)):
                    records.append(
                        reading(key, lo + rng.randrange(self.tpq))
                    )
        elif event.style == "boundary":
            edges = (lo, lo + self.tpq - 1)
            for _ in range(event.rate * self.tpq):
                records.append(
                    reading(rng.choice(self.pool), rng.choice(edges))
                )
        elif event.style == "duplicate":
            for t in range(lo, lo + self.tpq):
                key = rng.choice(self.pool)
                first = reading(key, t)
                records.extend([first, first, reading(key, t)])
        else:  # pragma: no cover - scenario author error
            raise ValueError(f"unknown traffic style {event.style!r}")
        if not records:
            # Keep the quarter clock advancing even when a trickle quarter
            # drew nothing: one reading so the batch is never empty.
            records.append(
                reading(rng.choice(self.pool), lo + rng.randrange(self.tpq))
            )
        rng.shuffle(records)  # any tick order within a quarter is legal
        return records

    def _traffic(self, event: Traffic) -> None:
        start = self.oracle.current_quarter
        per_quarter = [
            self._make_quarter(start + i, event)
            for i in range(event.quarters)
        ]
        if event.batching == "spanning":
            batches = [[r for batch in per_quarter for r in batch]]
        else:
            batches = per_quarter
        for batch in batches:
            if not batch:
                continue
            if event.batching == "spanning":
                batch.sort(key=lambda r: r.t // self.tpq)
            if event.batching == "single":
                for record in batch:
                    self.reference.ingest(record)
                    self.cube.ingest(record)
            else:
                self.reference.ingest_batch(batch)
                self.cube.ingest_batch(batch)
            self.oracle.ingest(batch)
            self.report.records += len(batch)

    def _advance(self, event: Advance) -> None:
        t = (self.oracle.current_quarter + event.quarters) * self.tpq
        self.reference.advance_to(t)
        self.cube.advance_to(t)
        self.oracle.advance_to(t)

    # -- differential checks -------------------------------------------
    def _windows_ready(self, quarters: int) -> bool:
        return self.oracle.current_quarter >= quarters

    def _require_clocks_agree(self) -> None:
        if not (
            self.reference.current_quarter
            == self.cube.current_quarter
            == self.oracle.current_quarter
        ):
            raise VerifyMismatch(
                f"clock drift: reference={self.reference.current_quarter} "
                f"cube={self.cube.current_quarter} "
                f"oracle={self.oracle.current_quarter}"
            )

    def _check(self, event: Check) -> None:
        self._require_clocks_agree()
        window = self.scenario.window
        if not self._windows_ready(window):
            raise VerifyMismatch(
                f"scenario bug: Check before {window} quarters sealed"
            )
        if event.windows:
            self._check_windows(window)
        if event.cube:
            self._check_cube(window, event.algorithm)
        if event.queries:
            self._check_queries(window)
        if event.changes:
            self._check_changes()
        self.report.checks += 1

    def _check_windows(self, window: int) -> None:
        reference_cells = self.reference.m_cells(window)
        cube_cells = self.cube.m_cells(window)
        if reference_cells != cube_cells:
            raise VerifyMismatch(
                "sharding equivalence broken: reference and cube m-cells "
                "differ (they must be bit-identical)"
            )
        oracle_cells = self.oracle.m_cells(window)
        assert_cells_equal(reference_cells, oracle_cells, "m-cells")
        self.report.cells_compared += len(oracle_cells)
        # A shorter sub-window through the raw window_isbs surface.
        sub = 1 + self.rng.randrange(min(window, 3))
        t_b, t_e = self.oracle.window_bounds(sub)
        reference_sub = self.reference.window_isbs(t_b, t_e)
        if reference_sub != self.cube.window_isbs(t_b, t_e):
            raise VerifyMismatch("reference/cube window_isbs differ")
        assert_cells_equal(
            reference_sub,
            self.oracle.window_isbs(t_b, t_e),
            f"window [{t_b},{t_e}]",
        )

    def _deep_window(self, event: DeepWindow) -> None:
        if not self.scenario.storage:
            raise VerifyMismatch(
                "scenario bug: DeepWindow in a scenario without storage"
            )
        self._require_clocks_agree()
        sealed = self.oracle.current_quarter
        if sealed < 2:
            raise VerifyMismatch(
                "scenario bug: DeepWindow before two quarters sealed"
            )
        t_end = sealed * self.tpq  # first unsealed tick
        bounds = {(0, t_end - 1)}
        # Hour- and day-aligned prefixes — windows whose tail lands on a
        # coarse tilt boundary deep inside the demoted region.
        for width in (4 * self.tpq, 96 * self.tpq):
            n = t_end // width
            for _ in range(event.samples if n else 0):
                bounds.add((0, (1 + self.rng.randrange(n)) * width - 1))
        # Quarter-granularity prefixes ending before the hot horizon
        # begins.  The very first quarter is always among them: once it is
        # demoted, no resident slot of any level can answer [0, tpq-1] —
        # a random draw could land hour-aligned and be covered by resident
        # coarse slots without touching the store at all.
        deep = max(1, sealed - self.scenario.hot_quarters)
        bounds.add((0, self.tpq - 1))
        bounds.add((0, (1 + self.rng.randrange(deep)) * self.tpq - 1))
        for t_b, t_e in sorted(bounds):
            reference_cells = self.reference.window_isbs(t_b, t_e)
            if reference_cells != self.cube.window_isbs(t_b, t_e):
                raise VerifyMismatch(
                    f"reference/cube deep window [{t_b},{t_e}] differ "
                    "(they must be bit-identical)"
                )
            assert_cells_equal(
                reference_cells,
                self.oracle.window_isbs(t_b, t_e),
                f"deep window [{t_b},{t_e}]",
            )
            self.report.cells_compared += len(reference_cells)
        # Once history dwarfs the hot horizon, the cold tier must have
        # actually carried these answers — a silent all-resident pass
        # would mean the scenario never exercised spilling at all.
        if sealed >= 8 * max(1, self.scenario.hot_quarters):
            stats = self.reference.storage_stats()
            if not stats or not stats["pages_spilled"]:
                raise VerifyMismatch(
                    f"no pages spilled after {sealed} quarters with "
                    f"hot_quarters={self.scenario.hot_quarters}"
                )
            if not stats["cold_faults"]:
                raise VerifyMismatch(
                    "deep windows answered without faulting any cold page"
                )
        self.report.checks += 1

    def _check_cube(
        self, window: int, algorithm: Callable[..., CubeResult] | None
    ) -> None:
        for system in (self.reference, self.cube):
            if algorithm is None:
                result = system.refresh(window)
            else:
                result = algorithm(system.layers, system.m_cells(window), system.policy)
            assert_result_equal(result, self.oracle, window)
        self.report.cells_compared += len(result.m_layer)

    def _check_changes(self) -> None:
        if self.oracle.current_quarter < 2:
            return
        pairs = [
            (
                self.reference.change_exceptions(1),
                self.oracle.change_exceptions(1),
                "m-change",
            ),
            (
                self.reference.o_layer_change_exceptions(1),
                self.oracle.o_layer_change_exceptions(1),
                "o-change",
            ),
        ]
        cube_m = self.cube.change_exceptions(1)
        cube_o = self.cube.o_layer_change_exceptions(1)
        # Item for item: same cells, same order, same bits.
        for (reference_side, _, _), cube_side in zip(pairs, (cube_m, cube_o)):
            if list(reference_side.items()) != list(cube_side.items()):
                raise VerifyMismatch("reference/cube change exceptions differ")
        for actual, expected, what in pairs:
            if set(actual) != set(expected):
                raise VerifyMismatch(
                    f"{what}: flagged sets differ; system "
                    f"{sorted(map(repr, actual))} vs oracle "
                    f"{sorted(map(repr, expected))}"
                )
            for key, isb in actual.items():
                problem = isb_agree(isb, expected[key])
                if problem:
                    raise VerifyMismatch(f"{what}[{key!r}]: {problem}")

    # -- query layer ---------------------------------------------------
    def _check_queries(self, window: int) -> None:
        view = RegressionCubeView(self.reference.refresh(window))
        schema = self.layers.schema
        lattice = self.layers.lattice
        rng = self.rng
        coords = sorted(lattice.coords())
        # Each oracle roll-up is a full fsum refit; memoize lazily since a
        # run only touches the chosen coord, its neighbours, and the
        # o-layer.
        _memo: dict[tuple, dict] = {}

        def oracle_cuboid(coord: tuple) -> dict:
            if coord not in _memo:
                _memo[coord] = self.oracle.cuboid_cells(coord, window)
            return _memo[coord]

        tol = DEFAULT_TOLERANCE

        def check_one(spec, expected_fn) -> None:
            for result in (
                execute(view, spec),
                self.router.execute(spec),
                self.router.execute(spec),  # second router hit: cached
            ):
                expected_fn(result.value)
            self.report.checks += 1

        # cell + roll_up + drill_down + siblings on a random populated cell
        coord = rng.choice(coords)
        cells = oracle_cuboid(coord)
        if cells:
            values = rng.choice(sorted(cells))
            expected = cells[values]

            def expect_cell(value):
                problem = isb_agree(value, expected, tol)
                if problem:
                    raise VerifyMismatch(f"query cell {values}: {problem}")

            check_one(Q.cell(coord, values, window=window), expect_cell)

            dims_up = [
                d.name
                for d, lvl, o in zip(
                    schema.dimensions, coord, self.layers.o_coord
                )
                if lvl - 1 >= o
            ]
            if dims_up:
                dim = rng.choice(dims_up)
                d = schema.dim_index(dim)
                parent_coord = coord[:d] + (coord[d] - 1,) + coord[d + 1:]

                def expect_roll_up(value):
                    p_coord, p_values, isb = value
                    if p_coord != parent_coord:
                        raise VerifyMismatch(
                            f"roll_up coord {p_coord} != {parent_coord}"
                        )
                    want = oracle_cuboid(parent_coord)[p_values]
                    problem = isb_agree(isb, want, tol)
                    if problem:
                        raise VerifyMismatch(
                            f"roll_up {p_values}: {problem}"
                        )

                check_one(
                    Q.roll_up(coord, values, dim, window=window),
                    expect_roll_up,
                )

            dims_down = [
                d.name
                for d, lvl, m in zip(
                    schema.dimensions, coord, self.layers.m_coord
                )
                if lvl + 1 <= m
            ]
            if dims_down:
                dim = rng.choice(dims_down)
                d = schema.dim_index(dim)
                child_coord = coord[:d] + (coord[d] + 1,) + coord[d + 1:]
                mappers = [
                    dimension.hierarchy.ancestor_mapper(f, t)
                    for dimension, f, t in zip(
                        schema.dimensions, child_coord, coord
                    )
                ]
                want_children = {
                    child: isb
                    for child, isb in oracle_cuboid(child_coord).items()
                    if tuple(m(v) for m, v in zip(mappers, child)) == values
                }

                def expect_drill(value):
                    assert_cells_equal(
                        value, want_children, "drill_down", tol
                    )

                check_one(
                    Q.drill_down(coord, values, dim, window=window),
                    expect_drill,
                )

            hier_dims = [
                d.name
                for d, lvl in zip(schema.dimensions, coord)
                if lvl >= 1
            ]
            if hier_dims:
                dim = rng.choice(hier_dims)
                d = schema.dim_index(dim)
                level = coord[d]
                hier = schema.dimensions[d].hierarchy
                parent = hier.parent(values[d], level)
                want_siblings = {
                    other: isb
                    for other, isb in cells.items()
                    if other != values
                    and all(
                        i == d or v == w
                        for i, (v, w) in enumerate(zip(other, values))
                    )
                    and hier.parent(other[d], level) == parent
                }

                def expect_siblings(value):
                    assert_cells_equal(
                        value, want_siblings, "siblings", tol
                    )

                check_one(
                    Q.siblings(coord, values, dim, window=window),
                    expect_siblings,
                )

        # slice with one fixed dimension value
        named = [
            (d.name, i)
            for i, (d, lvl) in enumerate(zip(schema.dimensions, coord))
            if lvl >= 1
        ]
        if cells and named:
            name, i = rng.choice(named)
            fixed_value = rng.choice(sorted(cells))[i]
            want_slice = {
                vals: isb
                for vals, isb in cells.items()
                if vals[i] == fixed_value
            }

            def expect_slice(value):
                assert_cells_equal(value, want_slice, "slice", tol)

            check_one(
                Q.slice(coord, {name: fixed_value}, window=window),
                expect_slice,
            )

        # top_slopes: every returned cell matches the oracle, and the cut
        # line is consistent with the oracle ranking (ties allowed).
        k = 1 + rng.randrange(4)
        ranked = sorted(
            (abs(isb.slope) for isb in cells.values()), reverse=True
        )

        def expect_top(value):
            if len(value) != min(k, len(cells)):
                raise VerifyMismatch(
                    f"top_slopes returned {len(value)} of k={k} "
                    f"({len(cells)} cells exist)"
                )
            for vals, isb in value:
                problem = isb_agree(isb, cells[vals], tol)
                if problem:
                    raise VerifyMismatch(f"top_slopes {vals}: {problem}")
            if value and len(cells) > k:
                cut = ranked[k - 1]
                low = min(abs(isb.slope) for _, isb in value)
                if not low >= cut - 1e-9:
                    raise VerifyMismatch(
                        f"top_slopes cut line broken: weakest returned "
                        f"|slope| {low!r} under oracle cut {cut!r}"
                    )

        check_one(Q.top_slopes(coord, k, window=window), expect_top)

        # observation deck and watch list
        o_cells = self.oracle.o_layer_cells(window)

        def expect_deck(value):
            assert_cells_equal(value, o_cells, "observation_deck", tol)

        check_one(Q.observation_deck(window=window), expect_deck)

        o_flags = self.oracle.o_layer_exceptions(window)

        def expect_watch(value):
            assert_cells_equal(value, o_flags, "watch_list", tol)

        check_one(Q.watch_list(window=window), expect_watch)

    # -- durability / elasticity / retirement ---------------------------
    def _snapshot_restore(self, event: SnapshotRestore) -> None:
        self._require_no_subscriptions("SnapshotRestore")
        hot = (
            self.scenario.hot_quarters if self.scenario.storage else None
        )
        reference_dir = self.workdir / "reference-snapshot"
        self.reference.snapshot(reference_dir)
        restored_reference = ShardedStreamCube.restore(
            reference_dir,
            self.layers,
            self.policy,
            storage=self._reference_storage,
            hot_quarters=hot,
        )
        self.last_manifest = self.cube.snapshot(self.snap_dir)
        self.cube.wal.truncate_through(self.last_manifest["wal_seq"])
        # The journal stays on the live cube until the restore proves out,
        # so a failing check leaks neither the new pool nor the WAL handle
        # (run()'s cleanup still owns both live resources).
        restored_cube = ShardedStreamCube.restore(
            self.snap_dir,
            self.layers,
            self.policy,
            storage=self._cube_storage,
            hot_quarters=hot,
        )
        old = self.cube
        try:
            if self._windows_ready(1):
                t_b, t_e = self.oracle.window_bounds(1)
                live = old.window_isbs(t_b, t_e)
                if (
                    restored_reference.window_isbs(t_b, t_e) != live
                    or restored_cube.window_isbs(t_b, t_e) != live
                ):
                    raise VerifyMismatch(
                        "snapshot/restore is not bit-identical to the "
                        "live cube"
                    )
        except BaseException:
            restored_reference.close()
            restored_cube.close()
            raise
        # Continue the scenario on the restored instances.
        restored_cube.wal = old.wal
        old.wal = None
        self.reference.close()
        self.reference = restored_reference
        self.cube = restored_cube
        old.close()
        self.router = QueryRouter(
            self.cube, window_quarters=self.scenario.window
        )
        self.report.checks += 1

    def _require_no_subscriptions(self, what: str) -> None:
        # SnapshotRestore / Reshard continue the run on a *new* cube and
        # router; a registry bound to the old pair would keep pushing from
        # retired state.  Subscription scenarios simply don't mix with
        # instance replacement (a real service unsubscribes on restart).
        if self.subscriptions is not None:
            raise VerifyMismatch(
                f"scenario bug: {what} after Subscribe — the registry is "
                "bound to the live router/cube pair"
            )

    def _reshard(self, event: Reshard) -> None:
        self._require_no_subscriptions("Reshard")
        resharded = self.cube.reshard(event.shards)
        try:
            if self._windows_ready(1):
                t_b, t_e = self.oracle.window_bounds(1)
                if resharded.window_isbs(t_b, t_e) != self.cube.window_isbs(
                    t_b, t_e
                ):
                    raise VerifyMismatch(
                        f"reshard {self.cube.n_shards}->{event.shards} is "
                        "not bit-identical"
                    )
        except BaseException:
            resharded.close()
            raise
        resharded.wal = self.cube.wal
        self.cube.wal = None
        self.cube.close()
        self.cube = resharded
        self.router = QueryRouter(
            self.cube, window_quarters=self.scenario.window
        )
        self.report.checks += 1

    def _crash_replay(self, event: CrashReplay) -> None:
        if self.last_manifest is None:
            self.last_manifest = self.cube.snapshot(self.snap_dir)
            self.cube.wal.truncate_through(self.last_manifest["wal_seq"])
            # Post-snapshot traffic gives the replay something to recover.
            self._traffic(Traffic(quarters=1, rate=3))
        crash_dir = self.workdir / "crash"
        if crash_dir.exists():
            shutil.rmtree(crash_dir)
        shutil.copytree(self.snap_dir, crash_dir)
        crash_storage = None
        if self._cube_storage is not None:
            # Take the cold tier as the crash left it: pages demoted since
            # the manifest landed are on disk, but the manifest's
            # cold_spans predate them — replay re-seals those quarters and
            # re-puts identical pages over the survivors (puts are
            # idempotent), which is exactly the crash-between-spill-and-
            # manifest-write recovery the storage design promises.
            shutil.copytree(
                Path(self._cube_storage.root), crash_dir / "storage"
            )
            crash_storage = StorageConfig(
                root=crash_dir / "storage",
                hot_quarters=self.scenario.hot_quarters,
            )
        with open(crash_dir / "wal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99999, "kind": "batch", "qu')  # torn append
        recovered = ShardedStreamCube.restore(
            crash_dir,
            self.layers,
            self.policy,
            storage=crash_storage,
            hot_quarters=(
                self.scenario.hot_quarters if crash_storage else None
            ),
        )
        with QuarterWAL(crash_dir / "wal.jsonl") as journal:
            journal.replay(
                recovered,
                after_seq=int(self.last_manifest["wal_seq"]),
            )
        try:
            if self._windows_ready(1):
                t_b, t_e = self.oracle.window_bounds(1)
                if recovered.window_isbs(t_b, t_e) != self.cube.window_isbs(
                    t_b, t_e
                ):
                    raise VerifyMismatch(
                        "crash recovery (snapshot + WAL replay) is not "
                        "bit-identical to the uninterrupted cube"
                    )
                assert_cells_equal(
                    recovered.window_isbs(t_b, t_e),
                    self.oracle.window_isbs(t_b, t_e),
                    "recovered window",
                )
            if crash_storage is not None and self._windows_ready(2):
                t_hi = self.oracle.current_quarter * self.tpq - 1
                if recovered.window_isbs(0, t_hi) != self.cube.window_isbs(
                    0, t_hi
                ):
                    raise VerifyMismatch(
                        "recovered cube's deep (cold) window diverges "
                        "from the uninterrupted cube"
                    )
            if recovered.records_ingested != self.oracle.records_ingested:
                raise VerifyMismatch(
                    f"recovery lost records: {recovered.records_ingested} "
                    f"vs {self.oracle.records_ingested} accepted"
                )
        finally:
            recovered.close()
        self.report.checks += 1

    def _prune(self, event: Prune) -> None:
        candidates = self.oracle.idle_keys(event.idle_quarters)
        dropped = self.reference.prune_idle(event.idle_quarters)
        dropped_cube = self.cube.prune_idle(event.idle_quarters)
        if dropped != dropped_cube:
            raise VerifyMismatch(
                f"reference pruned {dropped} cells, cube pruned "
                f"{dropped_cube}"
            )
        # A prune legitimately drops nothing when the tilt frames cannot
        # cover the idleness window; within the finest level's capacity the
        # window is certainly covered, so there a zero-drop with idle
        # candidates is a real bug, not the bail-out — no escape hatch.
        # (The runner builds its engines on the default frame geometry, so
        # the public levels function is the supported way to read it.)
        window = min(event.idle_quarters, self.oracle.current_quarter)
        certainly_coverable = (
            window <= engine_frame_levels(self.tpq)[0].capacity
        )
        if dropped == len(candidates):
            self.oracle.drop_keys(candidates)
            self._prunes += bool(candidates)
        elif dropped == 0 and candidates and certainly_coverable:
            raise VerifyMismatch(
                f"prune dropped nothing although the {window}-quarter "
                f"window is covered and the oracle finds "
                f"{len(candidates)} idle cells "
                f"({sorted(map(repr, candidates))})"
            )
        elif dropped != 0:
            raise VerifyMismatch(
                f"prune dropped {dropped} cells; oracle finds "
                f"{len(candidates)} idle ({sorted(map(repr, candidates))})"
            )
        if self.reference.tracked_cells != self.oracle.tracked_cells:
            raise VerifyMismatch(
                f"after prune: reference tracks {self.reference.tracked_cells} "
                f"cells, oracle {self.oracle.tracked_cells}"
            )
        self.report.checks += 1

    # -- the refresh path: dashboard pulls, plan accounting --------------
    def _pulls(self, event: Pulls) -> None:
        self._require_clocks_agree()
        tol = DEFAULT_TOLERANCE
        oracle, o_coord = self.oracle, self.layers.o_coord
        intermediate = set(self.layers.intermediate_coords)
        for window in event.windows or (self.scenario.window,):
            if not self._windows_ready(window):
                raise VerifyMismatch(
                    f"scenario bug: Pulls before {window} quarters sealed"
                )

            def pull(spec):
                return self.router.execute(spec).value

            deck = oracle.o_layer_cells(window)
            assert_cells_equal(
                pull(Q.observation_deck(window=window)),
                deck,
                f"observation_deck/{window}",
                tol,
            )
            retained = pull(Q.exceptions(window=window))
            if set(retained) != intermediate | {o_coord}:
                raise VerifyMismatch(
                    f"exceptions/{window} covers cuboids {sorted(retained)}"
                )
            watched = {o_coord: pull(Q.watch_list(window=window))}
            for what, answer in (("watch_list", watched), ("exceptions", retained)):
                for coord, cells in answer.items():
                    _flag_sets_equal(
                        cells,
                        oracle.exceptional_cells(coord, window),
                        oracle,
                        coord,
                        f"{what}/{window} at {coord}",
                        tol,
                    )
            top = pull(Q.top_slopes(o_coord, 3, window=window))
            if len(top) != min(3, len(deck)):
                raise VerifyMismatch(
                    f"top_slopes/{window} returned {len(top)} of "
                    f"{len(deck)} cells for k=3"
                )
            cut = sorted((abs(isb.slope) for isb in deck.values()), reverse=True)
            for values, isb in top:
                problem = isb_agree(isb, deck[values], tol)
                if problem:
                    raise VerifyMismatch(f"top_slopes/{window} {values}: {problem}")
                if abs(isb.slope) < cut[len(top) - 1] - 1e-9:
                    raise VerifyMismatch(
                        f"top_slopes/{window}: {values} is under the cut line"
                    )
            self.report.cells_compared += len(deck)
        holes = {hole["shard"] for hole in self.cube.consume_degraded()}
        if holes != self._lost_shards:
            raise VerifyMismatch(
                f"degraded answers named shards {sorted(holes)}; "
                f"lost are {sorted(self._lost_shards)}"
            )
        # Plan accounting.
        builds = self.cube.plan_builds
        seen = (self.cube, frozenset(oracle.keys()), self._prunes)
        if self._last_pulls is not None:
            *before, built = self._last_pulls
            if before[0] is not self.cube:
                built = 0  # a new cube counts from zero
            if tuple(before) == seen and builds != built:
                raise VerifyMismatch(
                    "the cubing plan was rebuilt although the cell set "
                    "did not change"
                )
            if tuple(before) != seen and builds == built:
                raise VerifyMismatch(
                    "the cell set changed but the cubing plan was kept"
                )
        self._last_pulls = (*seen, builds)
        self.report.checks += 1

    def _lose_shard(self, event: LoseShard) -> None:
        self._require_no_subscriptions("LoseShard")
        cube = self.cube
        shard = (
            event.shard
            if event.shard is not None
            else self.rng.randrange(cube.n_shards)
        )
        lost = [key for key in self.oracle.keys() if cube.shard_index(key) == shard]

        def quarantined(*args: Any):
            raise CorruptionError(
                f"shard {shard}: cold page quarantined (injected)"
            )

        cube.shards[shard].window_columns = quarantined  # the one window read
        # Injected from outside, the loss moved no epoch: answers cached
        # while the shard still read must not be served.
        self.router = QueryRouter(cube, window_quarters=self.scenario.window)
        cube.degraded_reads = True
        self.oracle.drop_keys(lost)
        self._lost_shards.add(shard)
        self._prunes += 1  # the merged cell set lost rows

    # -- continuous queries (subscription push) -------------------------
    def _subscribe(self, event: Subscribe) -> None:
        if self.subscriptions is None:
            self.subscriptions = SubscriptionRegistry(
                self.router, queue_limit=event.queue_limit
            )
        window = self.scenario.window
        registrations = (
            # Two watch subscribers share one spec: the dispatcher must
            # collapse them onto a single execution per seal.
            (self.subscriptions.subscribe(Q.watch_list()), "watch", 1),
            (
                self.subscriptions.subscribe(
                    Q.watch_list(), every_k=event.every_k
                ),
                "watch",
                event.every_k,
            ),
            (
                self.subscriptions.subscribe(
                    Q.observation_deck(window=window)
                ),
                "deck",
                1,
            ),
        )
        for sub_id, kind, every_k in registrations:
            self._subs_meta[sub_id] = kind
            if every_k == 1:
                # every-seal subscribers are held to "nothing missing"
                # in DrainUpdates; every-K ones only to correctness.
                self._every_seal.add(sub_id)

    def _verify_update(
        self, sub_id: str, kind: str, update: dict
    ) -> None:
        """One pushed update against the oracle at *its* quarter."""
        epoch = tuple(update["epoch"])
        quarter = update["quarter"]
        if len(epoch) < 2:
            raise VerifyMismatch(
                f"{sub_id}: malformed epoch vector {epoch!r}"
            )
        if quarter != min(epoch[1:]):
            raise VerifyMismatch(
                f"{sub_id}: update quarter {quarter} disagrees with its "
                f"epoch vector {epoch!r}"
            )
        prev = self._sub_prev_epoch.get(sub_id)
        if prev:
            if len(prev) != len(epoch) or any(
                c < p for p, c in zip(prev, epoch)
            ):
                raise VerifyMismatch(
                    f"{sub_id}: update epoch {epoch!r} is older than its "
                    f"predecessor's {prev!r} — delivery reordered"
                )
        self._sub_prev_epoch[sub_id] = epoch
        cells = {
            tuple(row["values"]): isb_from_dict(row["isb"])
            for row in update["result"]["cells"]
        }
        t_b, t_e = self.oracle.window_bounds_at(
            quarter, self.scenario.window
        )
        o_coord = self.layers.o_coord
        what = f"pushed {kind} update at quarter {quarter}"
        if kind == "deck":
            assert_cells_equal(
                cells,
                self.oracle.cuboid_cells_at(o_coord, t_b, t_e),
                what,
            )
        else:
            _flag_sets_equal(
                cells,
                self.oracle.exceptional_cells_at(o_coord, t_b, t_e),
                self.oracle,
                o_coord,
                what,
                DEFAULT_TOLERANCE,
            )
        self._updates_verified += 1
        self.report.cells_compared += len(cells)

    def _drain_updates(self, event: DrainUpdates) -> None:
        if self.subscriptions is None:
            raise VerifyMismatch(
                "scenario bug: DrainUpdates before Subscribe"
            )
        if not self.subscriptions.flush(30.0):
            raise VerifyMismatch(
                "subscription dispatcher failed to drain after the seals"
            )
        window_filled = self.oracle.current_quarter >= self.scenario.window
        for sub_id, kind in self._subs_meta.items():
            since = self._sub_since.get(sub_id, 0)
            reply = self.subscriptions.poll(sub_id, since)
            last_seq = since
            for update in reply["updates"]:
                if update["seq"] <= last_seq:
                    raise VerifyMismatch(
                        f"{sub_id}: sequence numbers not strictly "
                        f"increasing ({update['seq']} after {last_seq})"
                    )
                last_seq = update["seq"]
                self._verify_update(sub_id, kind, update)
            self._sub_since[sub_id] = last_seq
            # An every-seal subscriber, once its window has filled, must
            # have converged on the *newest* seal by the time the
            # dispatcher is idle — anything less means a lost update
            # (coalescing may skip intermediates, never the latest).
            if (
                event.expect_updates
                and window_filled
                and sub_id in self._every_seal
            ):
                prev = self._sub_prev_epoch.get(sub_id)
                if not prev:
                    raise VerifyMismatch(
                        f"{sub_id}: no update delivered although "
                        f"{self.oracle.current_quarter} quarters have "
                        "sealed"
                    )
                delivered_q = min(prev[1:])
                if delivered_q != self.oracle.current_quarter:
                    raise VerifyMismatch(
                        f"{sub_id}: last delivered quarter {delivered_q} "
                        f"!= sealed quarter {self.oracle.current_quarter}"
                    )
        self.report.checks += 1

    def _cache_churn(self, event: CacheChurn) -> None:
        window = self.scenario.window
        if not self._windows_ready(window):
            raise VerifyMismatch("scenario bug: CacheChurn before windows")
        specs = [
            Q.observation_deck(window=window),
            Q.watch_list(window=window),
            Q.top_slopes(self.layers.o_coord, 3, window=window),
        ]
        first = [self.router.execute(spec) for spec in specs]
        before = self.router.cache.hits
        for _ in range(event.repeats):
            for spec, baseline in zip(specs, first):
                again = self.router.execute(spec)
                if again.value != baseline.value:
                    raise VerifyMismatch(
                        f"cache hit for {spec.op!r} returned a different "
                        "answer than the original miss"
                    )
        if self.router.cache.hits < before + len(specs) * event.repeats:
            raise VerifyMismatch("router cache did not serve repeat hits")
        epoch = self.router.epoch
        self._traffic(Traffic(quarters=1, rate=2))
        self._advance(Advance(1))
        deck = self.router.execute(specs[0])
        if self.router.epoch == epoch:
            raise VerifyMismatch(
                "router epoch did not advance after a quarter sealed"
            )
        assert_cells_equal(
            deck.value,
            self.oracle.o_layer_cells(window),
            "post-seal observation_deck",
        )
        self.report.checks += 1


# ----------------------------------------------------------------------
# The scenario catalogue
# ----------------------------------------------------------------------
def _scenario(name: str, description: str, *events: Event, **cfg) -> Scenario:
    return Scenario(name, description, tuple(events), **cfg)


FULL_CHECK = Check(windows=True, cube=True, queries=True, changes=True)

#: One round of ``refresh_plan_churn`` (the fault matrix's long form runs
#: several before losing the shard).  hot_quarters=1 under window=4 makes
#: every pull a cold-window pull.
REFRESH_PLAN_CHURN: tuple[Event, ...] = (
    Traffic(quarters=5, rate=2),  # births all the way
    Advance(1),
    Pulls(),
    Traffic(quarters=1, rate=3),  # seals over (mostly) the same cells
    Advance(1),
    Pulls(),
    Advance(2),  # seals nobody spoke in: the plan must hold
    Pulls(windows=(1, 4, 8)),  # three windows, one plan
    Traffic(quarters=2, rate=1, style="trickle"),
    Prune(idle_quarters=2),
    Pulls(),
    Traffic(quarters=2, rate=3),  # revivals under new rows
    Pulls(),
    Reshard(shards=2),
    Pulls(),
    Traffic(quarters=1, rate=2),
    SnapshotRestore(),  # mid-quarter
    Advance(1),
    Pulls(windows=(4, 8)),
)

# Quarter accounting: Traffic(quarters=n) starting at the accumulating
# quarter q puts records into q .. q+n-1 and leaves q+n-1 *unsealed*; a
# Check with the default window=4 therefore needs traffic/advances summing
# to at least 5 quarter starts (or an explicit Advance) before it fires.
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        _scenario(
            "steady_burst",
            "Dense uniform traffic, checked quarter over quarter.",
            Traffic(quarters=4, rate=4),
            Advance(1),
            Check(),
            Traffic(quarters=2, rate=4),
            Advance(1),
            Check(cube=True, changes=True),
        ),
        _scenario(
            "sparse_trickle",
            "Sparse traffic with empty ticks and whole silent quarters.",
            Traffic(quarters=5, rate=2, style="trickle"),
            Check(changes=True),
            Traffic(quarters=1, rate=1, style="trickle"),
            Advance(1),
            Check(cube=True),
        ),
        _scenario(
            "boundary_ticks",
            "Every record lands on a quarter's first or last tick.",
            Traffic(quarters=4, rate=2, style="boundary"),
            Advance(1),
            Check(cube=True),
            Traffic(quarters=1, rate=2, style="boundary"),
            Advance(1),
            Check(changes=True),
        ),
        _scenario(
            "duplicate_records",
            "Same (cell, tick) repeated and exact duplicates in batches.",
            Traffic(quarters=5, rate=3, style="duplicate"),
            Check(cube=True, changes=True),
        ),
        _scenario(
            "quiet_gaps",
            "Traffic separated by advance-only quarters (zero sealing).",
            Traffic(quarters=2, rate=3),
            Advance(2),
            Traffic(quarters=1, rate=3),
            Advance(1),
            Check(cube=True, changes=True),
        ),
        _scenario(
            "multi_quarter_batches",
            "Single ingest calls spanning several quarter boundaries.",
            Traffic(quarters=4, rate=3, batching="spanning"),
            Advance(1),
            Check(),
            Traffic(quarters=2, rate=3, batching="spanning"),
            Advance(1),
            Check(cube=True),
        ),
        _scenario(
            "record_at_a_time",
            "The per-record ingest surface (WAL per record) end to end.",
            Traffic(quarters=4, rate=2, batching="single"),
            Advance(1),
            Check(cube=True, changes=True),
            cell_pool=6,
        ),
        _scenario(
            "snapshot_restore_midquarter",
            "Snapshot with a hot unsealed quarter; continue on the restore.",
            Traffic(quarters=4, rate=3),
            SnapshotRestore(),  # quarter 3 is mid-accumulation here
            Traffic(quarters=2, rate=3),
            Advance(1),
            Check(cube=True, changes=True),
        ),
        _scenario(
            "reshard_midrun",
            "Online k->j resharding mid-stream, both directions.",
            Traffic(quarters=3, rate=3),
            Reshard(shards=5),
            Traffic(quarters=2, rate=3),
            Advance(1),
            Check(),
            Reshard(shards=1),
            Traffic(quarters=1, rate=3),
            Check(cube=True),
        ),
        _scenario(
            "crash_replay",
            "Crash after a snapshot: recover from snapshot + torn WAL.",
            Traffic(quarters=3, rate=3),
            SnapshotRestore(),
            Traffic(quarters=2, rate=3),
            CrashReplay(),
            Traffic(quarters=1, rate=3),
            Advance(1),
            Check(cube=True),
        ),
        _scenario(
            "prune_then_revive",
            "Cells go idle, get pruned, then speak again (zero-backfilled).",
            Traffic(quarters=3, rate=3),
            Traffic(quarters=3, rate=2, style="trickle"),
            Prune(idle_quarters=2),
            Traffic(quarters=2, rate=3),
            Check(cube=True),
            Prune(idle_quarters=1),
            Check(),
            cell_pool=8,
        ),
        _scenario(
            "cache_churn",
            "Query cache hit/miss interleaving across quarter seals.",
            Traffic(quarters=4, rate=3),
            Advance(1),
            CacheChurn(repeats=2),
            CacheChurn(repeats=1),
            Check(queries=True),
        ),
        _scenario(
            "continuous_push",
            "Subscribers ride the seal path: watch/deck updates pushed "
            "while ingest continues, each verified against the oracle at "
            "its own quarter, strictly ordered, never from the seal's "
            "critical section.",
            Traffic(quarters=2, rate=3),
            Subscribe(every_k=2),
            Traffic(quarters=3, rate=3),
            Advance(1),
            DrainUpdates(),
            Traffic(quarters=2, rate=3, style="trickle"),
            Advance(1),
            DrainUpdates(),
            Traffic(quarters=1, rate=4, style="boundary"),
            Advance(1),
            DrainUpdates(),
            Check(queries=True),
        ),
        _scenario(
            "query_sweep",
            "Every query op checked against the oracle, twice per surface.",
            Traffic(quarters=4, rate=4),
            Advance(1),
            Check(queries=True),
            Traffic(quarters=1, rate=2, style="trickle"),
            Advance(1),
            Check(queries=True, changes=True),
            dims=2,
            levels=3,
            fanout=2,
        ),
        _scenario(
            "popular_path_check",
            "Popular-path cubing's retention closure vs the oracle.",
            Traffic(quarters=4, rate=4),
            Advance(1),
            Check(cube=True, algorithm=popular_path_cubing),
            Traffic(quarters=1, rate=3, style="trickle"),
            Advance(1),
            Check(cube=True, algorithm=full_materialization),
        ),
        _scenario(
            "single_tick_quarters",
            "ticks_per_quarter=1: every record seals a quarter by itself.",
            Traffic(quarters=6, rate=2),
            Advance(1),
            Check(cube=True, changes=True),
            Traffic(quarters=2, rate=1, style="trickle"),
            Advance(1),
            Check(),
            ticks_per_quarter=1,
            cell_pool=6,
        ),
        _scenario(
            "spill_deep_window",
            "Hundreds of sealed quarters spill to disk; windows reaching "
            "back to the origin fault cold pages and match the oracle.",
            Traffic(quarters=120, rate=2),
            DeepWindow(),
            Traffic(quarters=81, rate=1, style="trickle"),
            Advance(1),
            DeepWindow(samples=3),
            Check(),
            ticks_per_quarter=1,
            storage=True,
            hot_quarters=2,
            cell_pool=6,
        ),
        _scenario(
            "spill_snapshot_restore",
            "Snapshot and reshard a cube whose history lives in a "
            "populated cold store; deep windows stay identical.",
            Traffic(quarters=20, rate=2),
            SnapshotRestore(),
            Traffic(quarters=8, rate=2),
            Advance(1),
            DeepWindow(),
            Reshard(shards=2),
            Traffic(quarters=4, rate=2, style="trickle"),
            Advance(1),
            DeepWindow(),
            Check(cube=True),
            ticks_per_quarter=2,
            storage=True,
            hot_quarters=2,
            cell_pool=8,
        ),
        _scenario(
            "spill_crash_replay",
            "Crash lands between a spill and the next manifest write: "
            "recovery replays the WAL over the already-written cold pages.",
            Traffic(quarters=12, rate=3),
            SnapshotRestore(),
            Traffic(quarters=6, rate=2),
            CrashReplay(),
            Traffic(quarters=2, rate=2),
            Advance(1),
            DeepWindow(),
            Check(cube=True),
            ticks_per_quarter=2,
            storage=True,
            hot_quarters=1,
            cell_pool=8,
        ),
        _scenario(
            "refresh_plan_churn",
            "The held cubing plan under everything that moves the cell "
            "set — births, prune + revival, reshard, snapshot + restore — "
            "and everything that does not (seals, windows reaching cold "
            "pages), dashboard pulls checked after every step; ends "
            "degraded, a shard lost for good.",
            *REFRESH_PLAN_CHURN,
            LoseShard(),
            Pulls(windows=(4, 1)),
            ticks_per_quarter=2,
            storage=True,
            hot_quarters=1,
            cell_pool=9,
        ),
        _scenario(
            "kitchen_sink",
            "Everything composed: all traffic shapes, durability, queries.",
            Traffic(quarters=3, rate=3),
            Traffic(quarters=1, rate=2, style="boundary"),
            Advance(1),
            Traffic(quarters=1, rate=3, style="duplicate"),
            SnapshotRestore(),
            Traffic(quarters=2, rate=2, style="trickle", batching="spanning"),
            Reshard(shards=2),
            CrashReplay(),
            Traffic(quarters=2, rate=3),
            Prune(idle_quarters=3),
            Advance(1),
            FULL_CHECK,
        ),
    ]
}


def run_scenario(
    scenario: Scenario | str,
    seed: int,
    workdir: str | Path | None = None,
    storage: bool | None = None,
    hot_quarters: int | None = None,
    fault_plan: str | None = None,
) -> ScenarioReport:
    """Run one scenario under one seed; raises :class:`VerifyMismatch` on
    any disagreement.  ``workdir`` (for snapshots, journals and cold
    stores) defaults to a fresh temporary directory.  ``storage`` /
    ``hot_quarters`` override the scenario's tiered-storage configuration,
    so the whole catalogue can be replayed spilling:
    ``run_scenario("kitchen_sink", seed, storage=True)``.
    ``fault_plan`` (a :mod:`repro.faults` preset name or plan-file path)
    arms seeded storage fault injection for the whole run — the
    scenario must still pass bit-identically, because every injected
    fault class is one the durability layer repairs in place."""
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    overrides: dict[str, Any] = {}
    if storage is not None:
        overrides["storage"] = storage
    if hot_quarters is not None:
        overrides["hot_quarters"] = hot_quarters
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    installed = False
    if fault_plan is not None:
        faults.install(faults.load_plan(fault_plan, seed))
        installed = True
    try:
        if workdir is not None:
            return ScenarioRunner(scenario, seed, workdir).run()
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            return ScenarioRunner(scenario, seed, tmp).run()
    finally:
        if installed:
            faults.clear()
