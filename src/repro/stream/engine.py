"""The online, incremental stream-cube engine (paper Section 4.5).

The engine closes the loop the paper describes: raw records arrive
continuously at the primitive layer; they are rolled up to m-layer cells on
ingestion and accumulated — by regression aggregation, in O(1) space per
cell — within the current quarter; every quarter boundary seals an exact ISB
per cell into the tilt time frame, where promotions to coarser granularities
happen automatically ("the aggregated data will trigger the cube computation
once every 15 minutes"); and on demand the engine assembles the m-layer over
an analysis window, from which the sharded cube
(:mod:`repro.service.sharding`, one engine a shard) refreshes the o-layer
and the exception cells.

Every cell's frame advances on one global quarter grid, so the engine keeps
the frame *once*: a :class:`~repro.tilt.frame.TiltPages` — one clock (the
zero prototype: levels, ``now``, eviction count, cold index, window
planning) and, per retained slot, one page of ``(base, slope)`` float64
columns with a row per cell.  A cell's history costs 16 bytes per retained
slot (Example 3's 71 slots: ~1.1 KB), a seal scatters the grouped fit's
arrays into a new page, a promotion is one grid merge down the rows of the
last ``ratio`` pages, and demotion hands a page's columns to the cold store
as they are.  Rows are numbered in the order cells were born; a cell born
(or revived) after a page was sealed has no row in it and reads that page's
*zero row* — the one rule that backfills late cells, hot page or cold.

The *open* quarter is columnar too.  Within it, readings are accumulated
per tick — several records of one cell at the same tick are *summed* (the
point-wise standard-dimension semantics of Section 3.3: a cell's series is
the sum of its contributing streams) — and the quarter's ISB is fitted over
the per-tick sums at sealing time.  A cell is an integer id of the cube's
:class:`~repro.stream.cells.CellTable` (a standalone engine owns a
one-shard table); the engine keeps each row's id and each id's row, and
four flat columns over the rows: ``sums`` and a ``present`` mask,
row-major with ``ticks_per_quarter`` slots a row — tick ``t`` of the
quarter starting at ``lo`` is slot ``row * ticks_per_quarter + (t - lo)`` —
plus ``last_active_quarter`` and ``cold_since``, one entry a row (9 bytes a
tick and 16 a cell; no per-cell object).  Batches arrive as *segments*,
``(quarter, ids, ticks, z)``, one record a position.  Applying one is a
take of the id -> row column and one ordered scatter-add
(:func:`repro.regression.kernels.open_add`); sealing is the ``present``
mask handed to the grouped fit as it stands.

Time units: records carry *primitive* ticks (e.g. minutes);
``ticks_per_quarter`` primitive ticks form one finest tilt-frame slot.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.cube.cuboid import CuboidColumns
from repro.cube.layers import CriticalLayers
from repro.cubing.mo_cubing import PlannedCells, mo_cubing
from repro.cubing.policy import ExceptionPolicy, two_point_columns
from repro.cubing.result import CubeResult
from repro.errors import StorageError, StreamError, TiltFrameError
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.storage.files import FileColdStore
from repro.storage.pages import ColdPage, KeyBlock
from repro.storage.spill import ColdIndex, demotion_cutoffs
from repro.stream.cells import CellTable
from repro.stream.records import (
    RecordColumns,
    Segment,
    StreamRecord,
    require_finite_z,
    require_int_ticks,
)
from repro.stream.state import CellSnapshot, EngineState
from repro.tilt.frame import (
    Column,
    TiltLevelSpec,
    TiltPages,
    TiltTimeFrame,
    merge_grid,
)

__all__ = [
    "MAX_QUARTERS_AHEAD",
    "Segment",
    "StreamCubeEngine",
    "check_seal_horizon",
    "engine_frame_levels",
    "quarter_segments",
    "recent_window_bounds",
    "run_cubing",
    "validate_batch",
    "change_window_bounds",
    "window_change_exceptions",
]

Values = tuple[Hashable, ...]
KeyFn = Callable[[StreamRecord], Values]

#: How far past the clock one batch or advance may reach, in quarters (one
#: month, the coarsest Fig 4 unit).  Every quarter in between is sealed one
#: by one under every shard's write lock, so a single far-future tick would
#: otherwise stall the service for as long as it likes; a stream quiet for
#: longer than this advances in several calls.
MAX_QUARTERS_AHEAD = 4 * 24 * 31


def check_seal_horizon(t: int, quarter: int, current_quarter: int) -> None:
    """Refuse a tick that would seal more than :data:`MAX_QUARTERS_AHEAD`
    quarters at once (before anything is journaled or mutated)."""
    if quarter - current_quarter > MAX_QUARTERS_AHEAD:
        raise StreamError(
            f"t={t} (quarter {quarter}) is more than {MAX_QUARTERS_AHEAD} "
            f"quarters ahead of the current quarter {current_quarter}; "
            "advance in smaller steps — nothing ingested"
        )


def validate_batch(
    batch: RecordColumns, current_quarter: int, ticks_per_quarter: int
) -> kernels.Column:
    """Enforce the batch contract before any state is mutated or journaled.

    Every ``z`` must be finite (:func:`~repro.stream.records.require_finite_z`).
    Quarters must be non-decreasing across the batch, none may precede
    ``current_quarter`` and the last may not lie past the seal horizon
    (:func:`check_seal_horizon`); within one quarter any tick order is fine.
    The one body behind the shard engine's
    :meth:`~StreamCubeEngine.ingest_many` and the sharded cube's
    ``ingest_batch``, so the contract cannot diverge.

    Returns the quarter column of the tick column (empty batches pass).
    """
    require_finite_z(batch.z)
    ticks = batch.ticks
    quarters, bad = kernels.quarter_order(
        ticks, ticks_per_quarter, current_quarter
    )
    if bad >= 0:
        t, quarter = int(ticks[bad]), int(quarters[bad])
        if quarter < current_quarter:
            raise StreamError(
                f"batch record {bad} at t={t} belongs to sealed "
                f"quarter {quarter} (current quarter is {current_quarter}); "
                "batch rejected, no records ingested"
            )
        raise StreamError(
            f"batch record {bad} at t={t} (quarter {quarter}) "
            f"goes back past quarter {int(quarters[bad - 1])} seen earlier "
            "in the batch; batches must be quarter-ordered — batch "
            "rejected, no records ingested"
        )
    if len(ticks):
        check_seal_horizon(int(ticks[-1]), int(quarters[-1]), current_quarter)
    return quarters


def quarter_segments(
    ids: kernels.Column,
    ticks: kernels.Column,
    z: kernels.Column,
    quarters: kernels.Column,
) -> list[Segment]:
    """A quarter-ordered batch's columns cut into one :data:`Segment` a
    quarter (views: nothing is copied or hashed)."""
    cuts = [0, *(np.flatnonzero(np.diff(quarters)) + 1).tolist(), len(ids)]
    return [
        (int(quarters[a]), ids[a:b], ticks[a:b], z[a:b])
        for a, b in zip(cuts, cuts[1:])
        if b > a
    ]


def recent_window_bounds(
    current_quarter: int, ticks_per_quarter: int, window_quarters: int
) -> tuple[int, int]:
    """The ``(t_b, t_e)`` ticks of the last ``window_quarters`` sealed
    quarters; raises when fewer are sealed.  One definition serves the
    engine and the sharded cube."""
    if current_quarter < window_quarters:
        raise StreamError(
            f"only {current_quarter} quarters sealed; cannot form "
            f"a {window_quarters}-quarter window"
        )
    t_e = current_quarter * ticks_per_quarter - 1
    return t_e - window_quarters * ticks_per_quarter + 1, t_e


def change_window_bounds(
    current_quarter: int, ticks_per_quarter: int, quarters_apart: int
) -> tuple[int, int, int]:
    """The ``(prev_b, cur_b, end)`` ticks of a current-vs-previous pair.

    Raises when fewer than two windows are sealed.  The sharded cube's
    change exceptions read their two windows through it.
    """
    if current_quarter < 2 * quarters_apart:
        raise StreamError(
            "need at least two sealed windows for change detection"
        )
    end = current_quarter * ticks_per_quarter - 1
    cur_b = end - quarters_apart * ticks_per_quarter + 1
    prev_b = cur_b - quarters_apart * ticks_per_quarter
    return prev_b, cur_b, end


def window_change_exceptions(
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    rows: CuboidColumns,
    prev: kernels.ISBColumns,
    cur: kernels.ISBColumns,
    layer: str = "m",
) -> dict[Values, ISB]:
    """Window-over-window change exceptions from two adjacent m-layer windows.

    The paper's second exception flavour: ``prev`` and ``cur`` hold, row for
    row, the ISBs of the cells encoded in ``rows`` (key-only m-layer
    :class:`CuboidColumns`) over the previous and the current window.  At
    the m-layer (``layer="m"``) each row's two-point line is judged at the
    m-layer coordinate.  At the o-layer (``layer="o"``) rows are grouped by
    their o-layer ancestor, groups in first-seen row order (kept on
    ``rows``); each group's two windows are summed with ``math.fsum``
    (Theorem 3.2, correctly rounded, so no row order inside a group can
    move a bit) and the o-cell's line is judged at the o-layer coordinate.
    Answers come out in row order, so callers that present the rows in
    canonical order (:meth:`CuboidColumns.canonical`) give one
    answer, as the sharded cube does for every shard count.
    """
    coord = layers.o_coord if layer == "o" else layers.m_coord
    cells = rows
    if len(rows) and layer == "o":

        def o_groups(rows: CuboidColumns):
            lifted = rows.lifted(coord)
            gid, first = lifted.grouping()
            groups = np.split(np.argsort(gid), np.cumsum(np.bincount(gid))[:-1])
            return lifted.take(first), first, groups

        cells, first, groups = rows.memo("o_groups", o_groups)

        def fsums(column: kernels.Column) -> kernels.Column:
            return kernels.float_column(math.fsum(column[g].tolist()) for g in groups)

        prev, cur = (
            kernels.ISBColumns(
                isbs.t_b[first], isbs.t_e[first], fsums(isbs.base), fsums(isbs.slope)
            )
            for isbs in (prev, cur)
        )
    line = two_point_columns(prev, cur)
    hits = np.flatnonzero(policy.exception_mask(line.slope, coord))
    keys = cells.keys()
    return dict(zip([keys[i] for i in hits.tolist()], line.take(hits).to_isbs()))


def run_cubing(
    layers: CriticalLayers,
    cells: Mapping[Values, ISB] | PlannedCells,
    policy: ExceptionPolicy,
) -> CubeResult:
    """One cubing run over an assembled m-layer: m/o-cubing (Algorithm 1).

    The sharded cube's refresh calls this with ``cells`` as columns under
    the held plan of its cell set
    (:class:`~repro.cubing.mo_cubing.PlannedCells`).  The other cubing
    algorithms are library functions over ``m_cells(window)``, not options
    of the stream path."""
    return mo_cubing(layers, cells, policy)


def engine_frame_levels(ticks_per_quarter: int) -> list[TiltLevelSpec]:
    """The Fig 4 levels expressed in primitive ticks.

    Quarter slots span ``ticks_per_quarter`` primitive ticks (15 for
    minute-level streams), hours four quarters, days 24 hours, months 31
    days — capacities 4 / 24 / 31 / 12 as in the paper.
    """
    q = ticks_per_quarter
    return [
        TiltLevelSpec("quarter", q, 4),
        TiltLevelSpec("hour", 4 * q, 24),
        TiltLevelSpec("day", 96 * q, 31),
        TiltLevelSpec("month", 2976 * q, 12),
    ]


class StreamCubeEngine:
    """One shard of a :class:`~repro.service.sharding.ShardedStreamCube`:
    incremental m-layer maintenance over its share of an unbounded stream.

    The engine ingests, seals, prunes, spills and answers window reads
    (:meth:`window_columns`).  The cube owns everything above that: the
    journal, the held cubing plan, the refresh and change exceptions.  A
    single-engine cube is ``ShardedStreamCube(..., n_shards=1)``.

    Parameters
    ----------
    layers:
        The critical layers (m-layer / o-layer) of the cube.
    policy:
        The cube's exception policy (read by
        :meth:`change_exceptions_between`).
    key_fn:
        Maps a primitive record to its m-layer cell values.  Defaults to
        using ``record.values`` unchanged (records already at the m-layer).
    ticks_per_quarter:
        Primitive ticks per finest tilt-frame slot.
    frame_levels:
        Tilt-frame level specs; defaults to :func:`engine_frame_levels`.
    storage:
        Optional :class:`~repro.storage.files.FileColdStore`.  When attached,
        every quarter seal demotes slots older than the hot horizon into
        packed cold pages; deep-history windows fault them back
        transparently, so resident memory is bounded by the hot set while
        answers stay exact.
    hot_quarters:
        The hot horizon, in quarters, kept resident before demotion
        (default 4 — one full hour of finest slots).  Ignored without
        ``storage``.
    table:
        The cube's :class:`~repro.stream.cells.CellTable`; a standalone
        engine makes a one-shard table of its own.
    """

    def __init__(
        self,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None = None,
        ticks_per_quarter: int = 15,
        frame_levels: Iterable[TiltLevelSpec] | None = None,
        storage: FileColdStore | None = None,
        hot_quarters: int | None = None,
        table: CellTable | None = None,
    ) -> None:
        if ticks_per_quarter < 1:
            raise StreamError("ticks_per_quarter must be >= 1")
        if hot_quarters is not None and hot_quarters < 1:
            raise StreamError("hot_quarters must be >= 1")
        self.layers = layers
        self.policy = policy
        self.key_fn = key_fn
        self.ticks_per_quarter = ticks_per_quarter
        self._frame_levels = (
            list(frame_levels)
            if frame_levels is not None
            else engine_frame_levels(ticks_per_quarter)
        )
        # Each row's cell id (rows in birth order, ``_n`` of them) and each
        # id's row (-1: not on this engine); the open quarter's columns
        # over the rows (see the module docstring for the layout).
        self._table = table if table is not None else CellTable(
            layers.schema.values_validator(layers.m_coord)
        )
        self._n = 0
        self._ids = np.zeros(0, dtype=np.int64)
        self._row_of = np.zeros(0, dtype=np.int64)
        self._sums = np.zeros(0)
        self._present = np.zeros(0, dtype=np.uint8)
        self._last_active = np.zeros(0, dtype=np.int64)
        # With tiered storage: the clock at each cell's birth.  Cold pages
        # are keyed, and one sealed *before* a cell existed may still carry
        # a row under its key (a pruned predecessor); below this tick the
        # cell reads the page's zero row, as it does from a hot page too
        # short to hold its row.
        self._cold_since = np.zeros(0, dtype=np.int64)
        self._current_quarter = 0
        self._records_ingested = 0
        # The cell set's version: a count of the changes to which keys are
        # tracked or to their row order (birth, prune, state load), under a
        # token drawn per engine object — so two engines' generations never
        # collide, whatever their change counts.  Readers that
        # cache what they derived from the keys (the cube's cubing plan)
        # compare :attr:`cell_generation` for equality, nothing else.
        self._incarnation = os.urandom(8).hex()
        self._cell_changes = 0
        # Cells born plus cells pruned so far: a cell lives on one shard,
        # so the cube's sum of these is the same at every width.
        self._cell_events = 0
        # Every cell's sealed history: one clock (an always-idle frame, the
        # zero prototype) and a page of columns per retained slot.  A new
        # cell takes the next row and nothing is backfilled — pages sealed
        # before it answer their zero row.
        self._tilt = TiltPages(TiltTimeFrame(self._frame_levels, origin=0))
        self._storage = storage
        self.hot_quarters = 4 if hot_quarters is None else hot_quarters
        self._pages_spilled = 0
        self._cold_faults = 0
        self._spill_failures = 0
        # Demoted pages the cold store refused to write: recorded cold,
        # answered from here, written again by every later seal until the
        # store takes them (oldest first).
        self._unwritten: dict[tuple[int, int, int], ColdPage] = {}
        self._page_cache: OrderedDict[tuple[int, int, int], ColdPage]
        self._page_cache = OrderedDict()
        # The cell set's keys as its spilled pages carry them (one block a
        # cell generation, made at the first spill of the generation).
        self._key_block: tuple[str, KeyBlock] | None = None
        # The one piece of engine state that *reads* mutate (LRU ordering,
        # fault fills, unwritten pages): its own lock, so concurrent
        # deep-window queries sharing the cube's read lock stay safe.
        self._page_lock = threading.Lock()
        self._cold: ColdIndex | None = None
        if storage is not None:
            self._cold = ColdIndex(
                [lv.unit_ticks for lv in self._frame_levels]
            )
            self._tilt.clock.attach_cold(self._cold, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_quarter(self) -> int:
        """Index of the quarter currently accumulating."""
        return self._current_quarter

    @property
    def quarters_sealed(self) -> int:
        return self._current_quarter

    @property
    def tracked_cells(self) -> int:
        return self._n

    @property
    def records_ingested(self) -> int:
        return self._records_ingested

    @property
    def cell_generation(self) -> str:
        """Names the tracked cell set and its row order; moves when a cell
        is born, pruned or the state is reloaded, and only then."""
        return f"{self._incarnation}:{self._cell_changes}"

    @property
    def cell_events(self) -> int:
        """Cells born plus cells pruned by this engine (a state load
        counts neither: the cube carries the count across restores)."""
        return self._cell_events

    def frame_of(self, values: Values) -> TiltTimeFrame:
        """The tilt frame of one m-layer cell, materialized from the pages.

        An independent :class:`~repro.tilt.frame.TiltTimeFrame` holding,
        slot for slot, what ``TiltTimeFrame.insert`` of the cell's sealed
        quarters alone would have built (zero backfill before its birth
        included) — the single-series view, and the differential reference
        for the page store.  With tiered storage it faults demoted slots
        in like the engine's own windows do.
        """
        key = tuple(values)
        cell = self._table.id_of(key)
        if cell is None or cell >= len(self._row_of) or self._row_of[cell] < 0:
            raise StreamError(f"no data seen for cell {key}")
        row = int(self._row_of[cell])
        frame = self._tilt.frame_of(row)
        if self._cold is not None:
            cold_since = int(self._cold_since[row])

            def read(level: int, t_b: int, t_e: int) -> ISB:
                page = self._load_page(level, t_b, t_e)
                if t_e < cold_since:
                    return page.zero_isb()
                return page.isb(key)

            frame.attach_cold(self._cold, read)
        return frame

    def prune_idle(self, idle_quarters: int) -> int:
        """Drop cells with no records in the last ``idle_quarters`` quarters.

        Long-running deployments see churn — users move away, sensors are
        decommissioned — and per-cell rows are the engine's only unbounded
        state.  The ``last_active_quarter`` column holds the quarter of each
        cell's newest record, so idleness is one vectorized comparison: a
        cell whose last record predates the window was sealed from
        empty accumulators throughout it, i.e. its recent slots are exactly
        the flat zero line the old frame probe looked for.  The frame is
        consulted only once per call — through the clock every cell shares
        — to check that the window is actually covered by retained history
        (an uncoverable window proves nothing, exactly as before).  The
        dead cells' rows are then dropped from every page in one pass.

        A cell that keeps reporting *zeros* counts as active here (it has
        records); the previous implementation pruned it.  Returns the number
        of cells dropped; dropped cells re-enter (zero-backfilled) if they
        speak again.
        """
        if idle_quarters < 1:
            raise StreamError("idle_quarters must be >= 1")
        window = min(idle_quarters, self._current_quarter)
        if window == 0:
            return 0
        q = self.ticks_per_quarter
        end = self._current_quarter * q - 1
        start = end - window * q + 1
        try:
            self._tilt.clock.window_plan(start, end)
        except TiltFrameError:
            return 0  # window not fully covered: cannot prove idleness
        cutoff = self._current_quarter - window
        n = self._n
        recorded = np.flatnonzero(self._present[: n * q])
        slots, sums = recorded.tolist(), self._sums[recorded].tolist()
        keep = sorted(
            {
                *np.flatnonzero(self._last_active[:n] >= cutoff).tolist(),
                *(slot // q for slot in slots),  # still accumulating
            }
        )
        dropped = n - len(keep)
        if dropped:
            self._cell_changes += 1
            self._cell_events += dropped
            self._tilt = TiltPages.gather([(self._tilt, keep)])
            self._table.retire(np.delete(self._ids[:n], keep))
            self._place(self._ids[keep])
            self._last_active = self._last_active[keep]
            self._cold_since = self._cold_since[keep]
            moved = {row: i for i, row in enumerate(keep)}
            self._load_open(
                [moved[slot // q] * q + slot % q for slot in slots], sums
            )
        return dropped

    def _load_open(self, slots: list[int], sums: list[float]) -> None:
        """Fresh open-quarter columns holding ``sums`` at ``slots``
        (adding to ``0.0`` is exact: an accumulated sum is never ``-0.0``)."""
        size = self._n * self.ticks_per_quarter
        self._sums = np.zeros(size)
        self._present = np.zeros(size, dtype=np.uint8)
        kernels.open_add(
            self._sums,
            self._present,
            kernels.int_column(slots),
            kernels.float_column(sums),
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, record: StreamRecord) -> None:
        """Ingest one primitive record.

        Records must not go back past a sealed quarter; within the current
        quarter any order is accepted (the running sums are order-free).
        A record that fails validation — a tick that is not an ``int``, a
        non-finite ``z``, a sealed quarter, a quarter past the seal horizon,
        or an out-of-schema key — is rejected before any state is mutated.
        This is the record-at-a-time reference the batch
        path is pinned against: one scalar ``+=`` on the same slot the
        scatter-add would hit.
        """
        require_int_ticks((record.t,))
        require_finite_z((record.z,))
        tpq = self.ticks_per_quarter
        quarter = record.t // tpq
        if quarter < self._current_quarter:
            raise StreamError(
                f"record at t={record.t} belongs to sealed quarter {quarter} "
                f"(current quarter is {self._current_quarter})"
            )
        check_seal_horizon(record.t, quarter, self._current_quarter)
        key = record.values if self.key_fn is None else self.key_fn(record)
        ids, born = self._table.admit([key])
        if quarter > self._current_quarter:
            self._seal_through(quarter)
        self._table.commit(born)
        row = int(self._rows_of(ids)[0])
        slot = row * tpq + record.t - quarter * tpq
        self._sums[slot] += record.z
        self._present[slot] = 1
        self._last_active[row] = quarter
        self._records_ingested += 1

    def ingest_many(
        self, records: RecordColumns | Iterable[StreamRecord]
    ) -> None:
        """Ingest a batch of records, validating it whole up front.

        Ordering contract: the batch's records must have non-decreasing
        *quarters* (``t // ticks_per_quarter``) and none may belong to an
        already-sealed quarter.  Within one quarter any tick order is fine —
        per-tick accumulation is order-free — but a record whose quarter
        precedes an earlier record's quarter would force sealing that the
        stream cannot undo.  Finite ``z``, order, the seal horizon and the
        schema of every cell key new to the table are checked before any
        state is mutated, so a bad batch raises and leaves the engine
        exactly as it was — a client may fix and resend it.

        Records are converted to columns here, at the door
        (:class:`~repro.stream.records.RecordColumns`, taken as it is when
        the caller already holds one); from there each key is interned
        once (:meth:`~repro.stream.cells.CellTable.admit`), sealing runs
        once per quarter boundary and each quarter is one ordered
        scatter-add.  The resulting engine state is bit-identical to
        record-at-a-time :meth:`ingest` (property-pinned in
        ``tests/stream/test_columnar_ingest.py``).
        """
        batch = RecordColumns.of(records)
        quarters = validate_batch(
            batch, self._current_quarter, self.ticks_per_quarter
        )
        ids, born = self._table.admit(batch.keys(self.key_fn))
        self._table.commit(born)
        self.apply_segments(
            quarter_segments(ids, batch.ticks, batch.z, quarters), len(batch)
        )

    def apply_segments(self, segments: list[Segment], n_records: int) -> None:
        """Apply quarter segments (the one batch write path).

        Each :data:`Segment` is ``(quarter, ids, ticks, z)`` with quarters
        strictly increasing, none sealed, every tick inside its quarter and
        every id committed to the table.  Cells new to this engine are born
        in first-seen order, as record-at-a-time ingestion would bear them,
        and the records land in arrival order, so splitting a segment into
        several (by record range, or by cell) changes nothing.  The sharded
        cube builds these per shard in its routing pass.
        """
        tpq = self.ticks_per_quarter
        for quarter, ids, ticks, z in segments:
            if quarter > self._current_quarter:
                self._seal_through(quarter)
            rows = self._rows_of(ids)
            self._last_active[rows] = quarter
            kernels.open_add(
                self._sums,
                self._present,
                kernels.open_slots(rows, ticks, quarter * tpq, tpq),
                z,
            )
        self._records_ingested += n_records

    def _rows_of(self, ids: kernels.Column) -> kernels.Column:
        """Each id's row; ids new to this engine are born first, in
        first-seen order."""
        self._row_of = kernels.grown(self._row_of, len(self._table.keys), fill=-1)
        rows = self._row_of[ids]
        new = rows < 0
        if new.any():
            fresh = ids[new]
            self._new_cells(fresh[kernels.first_seen_groups(fresh)[1]])
            rows = self._row_of[ids]
        return rows

    def renumber(self, remap: kernels.Column) -> None:
        """Take the cell table's compaction: ``remap[id]`` is each old id's
        new one (rows, and so :attr:`cell_generation`, do not move)."""
        self._ids = remap[self._ids[: self._n]]
        self._row_of = np.full(len(self._table.keys), -1, dtype=np.int64)
        self._row_of[self._ids] = np.arange(self._n)

    def _place(self, ids: kernels.Column) -> None:
        """Make ``ids`` this engine's rows, in order."""
        self._row_of[self._ids[: self._n]] = -1
        self._row_of = kernels.grown(self._row_of, len(self._table.keys), fill=-1)
        self._ids, self._n = ids, len(ids)
        self._row_of[ids] = np.arange(len(ids))

    def advance_to(self, t: int) -> None:
        """Seal every quarter ending at or before primitive tick ``t - 1``.

        Call at the end of a simulation (or on a timer) so quiet periods
        still roll the frame forward.
        """
        quarter = t // self.ticks_per_quarter
        if quarter > self._current_quarter:
            check_seal_horizon(t, quarter, self._current_quarter)
            self._seal_through(quarter)

    def _new_cells(self, ids: kernels.Column) -> None:
        """Give each of ``ids`` (not yet tracked here) the next row."""
        # Every page sealed so far is too short to hold the rows and answers
        # its zero row — the zero backfill at no spawn cost at all.
        first, n = self._n, self._n + len(ids)
        self._ids = kernels.grown(self._ids, n)
        self._ids[first:n] = ids
        self._row_of[ids] = np.arange(first, n)
        self._n = n
        self._cell_changes += 1
        tpq = self.ticks_per_quarter
        self._cell_events += n - first
        self._sums = kernels.grown(self._sums, n * tpq)
        self._present = kernels.grown(self._present, n * tpq)
        self._last_active = kernels.grown(self._last_active, n)
        self._cold_since = kernels.grown(self._cold_since, n)
        self._last_active[first:n] = self._current_quarter
        if self._storage is not None:
            self._cold_since[first:n] = self._tilt.clock.now

    def _seal_through(self, quarter: int) -> None:
        """Seal every quarter up to (excluding) ``quarter`` for all cells.

        :func:`repro.regression.kernels.open_seal` turns the open quarter's
        ``present`` mask into one grouped kernel call
        (:func:`~repro.regression.kernels.group_fit`) and hands back a
        ``(base, slope)`` row per cell, idle cells' rows the zero line;
        :meth:`~repro.tilt.frame.TiltPages.seal` appends them as a page and
        runs the promotions it triggers — no per-cell step anywhere.
        """
        tpq = self.ticks_per_quarter
        for q in range(self._current_quarter, quarter):
            self._tilt.seal(
                *kernels.open_seal(self._sums, self._present, self._n, tpq, q * tpq)
            )
            if self._storage is not None:
                self._spill_cold()
        self._current_quarter = quarter

    # ------------------------------------------------------------------
    # Tiered storage: demotion (spill) and fault-in
    # ------------------------------------------------------------------
    def _spill_cold(self) -> None:
        """Demote slots past the hot horizon into the cold store.

        Runs after every quarter's seal.  Per eligible level (see
        :func:`repro.storage.spill.demotion_cutoffs`), the oldest resident
        pages are handed to the store as they are — a hot page already *is*
        a :class:`ColdPage`'s columns, its rows the first cells in engine
        order, the clock's slot its interval and zero row — written, and
        only then dropped.  Pages are written even with zero tracked cells:
        a cell born later still needs the zero row when it faults the
        interval in.

        A seal never fails here: a page the store refuses (a
        :class:`~repro.errors.StorageError`, the append and its rollback
        retry both failed) is counted in ``spill_failures`` and stays in
        memory, answering reads, and every later seal writes it again
        before demoting anything new.

        The arithmetic is deterministic in the sealed history, so a crash
        after a spill but before the next snapshot loses nothing: WAL
        replay re-seals the same quarters and re-derives pages that read
        bit-identically (``put_segment`` is idempotent by interval).
        """
        for page in list(self._unwritten.values()):
            self._put_page(page)
        clock = self._tilt.clock
        cutoffs = demotion_cutoffs(
            [lv.unit_ticks for lv in clock.levels],
            [lv.capacity for lv in clock.levels],
            clock.origin,
            clock.now,
            self.hot_quarters * self.ticks_per_quarter,
        )
        for li, cutoff in enumerate(cutoffs):
            if cutoff is None:
                continue
            while True:
                oldest = self._tilt.oldest(li)
                if oldest is None or oldest[0].t_e >= cutoff:
                    break
                zero, (base, slope) = oldest
                self._put_page(
                    ColdPage(
                        li,
                        zero.t_b,
                        zero.t_e,
                        self._cell_keys(),
                        base,
                        slope,
                        zero_base=zero.base,
                        zero_slope=zero.slope,
                    )
                )
                self._tilt.pop_oldest(li)
                self._cold.record(li, zero.t_b, zero.t_e)
                with self._page_lock:
                    self._page_cache.pop((li, zero.t_b, zero.t_e), None)
                self._pages_spilled += 1

    def _put_page(self, page: ColdPage) -> None:
        """Write one demoted page, or keep it among the unwritten ones."""
        key = (page.level, page.t_b, page.t_e)
        try:
            self._storage.put_segment(page)
        except StorageError:
            self._spill_failures += 1
            with self._page_lock:
                self._unwritten[key] = page
            return
        if key in self._unwritten:
            with self._page_lock:
                del self._unwritten[key]

    def _cell_keys(self) -> KeyBlock:
        """The key block of the current cell generation, the rows' keys in
        row order: every page spilled before the cell set moves shares its
        tuple and its key text."""
        generation = self.cell_generation
        held = self._key_block
        if held is None or held[0] != generation:
            keys = map(self._table.keys.__getitem__, self._ids[: self._n].tolist())
            held = self._key_block = (generation, KeyBlock(tuple(keys)))
        return held[1]

    #: Decoded cold pages kept hot; a deep window touches each page once
    #: per call anyway, so a small LRU only needs to absorb *repeated*
    #: deep queries.
    _PAGE_CACHE_SLOTS = 32

    def _load_page(self, level: int, t_b: int, t_e: int) -> ColdPage:
        cache_key = (level, t_b, t_e)
        with self._page_lock:
            page = self._unwritten.get(cache_key)
            if page is not None:
                return page
            page = self._page_cache.get(cache_key)
            if page is not None:
                self._page_cache.move_to_end(cache_key)
                return page
        # The cold read runs outside the lock (it is the slow part); a
        # racing fill of the same page is harmless — pages for one key
        # are identical, so last-writer-wins caches the same bytes.
        page = self._storage.get_segment(level, t_b, t_e)
        with self._page_lock:
            self._cold_faults += 1
            self._page_cache[cache_key] = page
            if len(self._page_cache) > self._PAGE_CACHE_SLOTS:
                self._page_cache.popitem(last=False)
        return page

    def _piece_columns(
        self, piece: tuple[int, int, int, int], generation: str, n: int
    ) -> tuple[Column, Column]:
        """One window piece as ``(base, slope)`` columns over the first
        ``n`` rows.

        The zero-row rule in both its forms: a hot page is positional and
        answers its zero row past its own length; a cold page is keyed and
        answers it for keys it does not hold and for cells born after it
        was sealed (one page fault serves every cell on the piece, and the
        page keeps its rows over the cell ``generation`` until it moves).
        """
        level, pos, t_b, t_e = piece
        if pos >= 0:
            return self._tilt.column(level, pos, n)
        page = self._load_page(level, t_b, t_e)
        return page.gather(
            page.rows_over(generation, self._cell_keys().keys, self._cold_since[:n])
        )

    def storage_stats(self) -> dict[str, Any] | None:
        """The ``/stats`` storage block, or ``None`` without a cold store."""
        if self._storage is None:
            return None
        stats = self._storage.stats().to_dict()
        stats.update(
            hot_cells=self._n,
            hot_quarters=self.hot_quarters,
            cold_slots=self._cold.total_slots,
            pages_spilled=self._pages_spilled,
            spill_failures=self._spill_failures,
            cold_faults=self._cold_faults,
            page_cache_entries=len(self._page_cache),
        )
        return stats

    def compact_storage(self) -> int:
        """Compact the cold store; returns bytes reclaimed (0 without one).

        Compaction rewrites around superseded page versions without
        changing any live page's content, so the decoded-page cache stays
        valid.
        """
        if self._storage is None:
            return 0
        return self._storage.compact()

    def drop_page_cache(self) -> None:
        """Evict every decoded cold page; the next deep window reads disk."""
        with self._page_lock:
            self._page_cache.clear()

    # ------------------------------------------------------------------
    # Durability: explicit state extraction and re-loading
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineState:
        """A complete, independent extract of the engine's stream state.

        The clock and the page lists are copied, the page columns shared
        (sealed pages are never written again) and the open quarter read
        out into per-cell ``tick_sums`` (only rows with open ticks get
        entries), so the snapshot is immune to further ingestion at a cost
        independent of history depth; layers/policy/key_fn are
        configuration and deliberately not captured (see
        :mod:`repro.stream.state`).  Its ``wal_seq`` is 0: the cube's
        manifest carries the journal mark.  Demoted pages the cold store
        has not taken yet are written first; while the store still refuses
        one, there is no snapshot (a :class:`~repro.errors.StorageError`),
        since its cold spans would name a page the store lacks.
        """
        for page in list(self._unwritten.values()):
            self._put_page(page)
        if self._unwritten:
            raise StorageError(
                f"{len(self._unwritten)} demoted page(s) are not in the "
                "cold store yet (it refused the write); no snapshot until "
                "a retry lands them"
            )
        n, tpq = self._n, self.ticks_per_quarter
        lo = self._current_quarter * tpq
        tick_sums: list[dict[int, float]] = [{} for _ in range(n)]
        slots = np.flatnonzero(self._present[: n * tpq])
        for slot, total in zip(slots.tolist(), self._sums[slots].tolist()):
            tick_sums[slot // tpq][lo + slot % tpq] = total
        return EngineState(
            ticks_per_quarter=self.ticks_per_quarter,
            frame_levels=tuple(self._frame_levels),
            current_quarter=self._current_quarter,
            records_ingested=self._records_ingested,
            tilt=self._tilt.copy(),
            cells=dict(
                zip(
                    self._cell_keys().keys,
                    map(
                        CellSnapshot,
                        tick_sums,
                        self._last_active[:n].tolist(),
                        self._cold_since[:n].tolist(),
                    ),
                )
            ),
            cold_spans=(
                tuple(
                    None if span is None else (span[0], span[1])
                    for span in self._cold.to_state()
                )
                if self._cold is not None
                else None
            ),
        )

    @classmethod
    def restore(
        cls,
        state: EngineState,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None = None,
        storage: FileColdStore | None = None,
        hot_quarters: int | None = None,
    ) -> "StreamCubeEngine":
        """Rebuild an engine from a snapshot, bit-identical to the original.

        ``layers`` / ``policy`` / ``key_fn`` are supplied exactly as they
        were to the original constructor; the snapshot's cells are
        re-validated against the supplied schema, so loading a snapshot
        under an incompatible cube raises instead of corrupting silently.
        A snapshot with demoted history additionally needs the ``storage``
        store holding its cold pages.
        """
        engine = cls(
            layers,
            policy,
            key_fn=key_fn,
            ticks_per_quarter=state.ticks_per_quarter,
            frame_levels=state.frame_levels,
            storage=storage,
            hot_quarters=hot_quarters,
        )
        engine.load_state(state)
        return engine

    def load_state(self, state: EngineState) -> None:
        """Replace this engine's stream state with a snapshot's.

        The cells, pages, accumulators, quarter clock, and record counter
        all come from the snapshot; the engine's configuration (layers,
        policy, key_fn) stays.  The snapshot's clock must agree with its
        quarter, no page may hold more rows than there are cells and every
        open tick must lie in the current quarter — a snapshot that
        violates that (corruption, or hand-edited state) raises
        :class:`StreamError` before any state is replaced.
        """
        if state.ticks_per_quarter != self.ticks_per_quarter:
            raise StreamError(
                f"snapshot has ticks_per_quarter={state.ticks_per_quarter}, "
                f"engine is configured with {self.ticks_per_quarter}"
            )
        tilt = state.tilt.copy()
        if tilt.clock.now != state.current_quarter * self.ticks_per_quarter:
            raise StreamError(
                f"snapshot zero frame clock ({tilt.clock.now}) disagrees "
                f"with its current quarter ({state.current_quarter})"
            )
        if tilt.max_rows > len(state.cells):
            raise StreamError(
                f"snapshot pages hold {tilt.max_rows} rows for "
                f"{len(state.cells)} cells (corrupt or inconsistent snapshot)"
            )
        spans = state.cold_spans
        has_cold = spans is not None and any(s is not None for s in spans)
        if has_cold and self._storage is None:
            raise StreamError(
                "snapshot has demoted (cold) history but this engine has no "
                "cold store configured; restore with the snapshot's storage"
            )
        tpq = self.ticks_per_quarter
        lo = state.current_quarter * tpq
        slots: list[int] = []
        sums: list[float] = []
        for row, (key, cell) in enumerate(state.cells.items()):
            for t, total in cell.tick_sums.items():
                if not lo <= t < lo + tpq:
                    raise StreamError(
                        f"snapshot cell {key} holds an open tick {t} outside "
                        f"the current quarter [{lo}, {lo + tpq - 1}] "
                        "(corrupt or inconsistent snapshot)"
                    )
                slots.append(row * tpq + t - lo)
                sums.append(total)
        ids, born = self._table.admit(list(state.cells))
        self._table.retire(np.setdiff1d(self._ids[: self._n], ids))
        self._table.commit(born)
        self._place(ids)
        self._frame_levels = list(state.frame_levels)
        self._tilt = tilt
        self._cell_changes += 1
        self._last_active = kernels.int_column(
            [cell.last_active_quarter for cell in state.cells.values()]
        )
        self._cold_since = kernels.int_column(
            [cell.cold_since for cell in state.cells.values()]
        )
        self._load_open(slots, sums)
        self._current_quarter = state.current_quarter
        self._records_ingested = state.records_ingested
        with self._page_lock:
            self._page_cache.clear()
            self._unwritten.clear()
        if self._storage is not None:
            units = [lv.unit_ticks for lv in self._frame_levels]
            self._cold = (
                ColdIndex.from_state(units, spans)
                if spans is not None
                else ColdIndex(units)
            )
        # The snapshot's clock may still point at its writer's cold index.
        tilt.clock.attach_cold(self._cold, None)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def window_isbs(self, t_b: int, t_e: int) -> dict[Values, ISB]:
        """:meth:`window_columns` boxed: ``{values: isb}`` in birth order."""
        isbs = self.window_columns(t_b, t_e)[2]
        return dict(zip(self._cell_keys().keys, isbs.to_isbs()))

    def window_columns(
        self, t_b: int, t_e: int
    ) -> tuple[str, kernels.Column, kernels.ISBColumns]:
        """Every tracked cell's exact ISB over the sealed window [t_b, t_e],
        as ``(generation, ids, isbs)``.

        The window must be covered by the tilt frame (i.e. lie within the
        sealed history); Theorem 3.3 assembles the exact regression from
        the frame's slots.  One plan from the shared clock serves every
        cell and the planned pages merge down their rows in one grid kernel
        call: one row per tracked cell in birth order, nothing boxed.  This
        is the one window read — every analysis view here and every merged
        read of the sharded cube is built from it.  ``ids`` are the cells'
        table ids in row order, and ``generation`` the
        :attr:`cell_generation` they were read at.
        """
        generation, n = self.cell_generation, self._n
        isbs = kernels.ISBColumns.over(t_b, t_e, np.zeros(0), np.zeros(0))
        if n:
            try:
                plan = self._tilt.clock.window_plan(t_b, t_e)
            except TiltFrameError as exc:
                raise StreamError(
                    f"cell {self._table.keys[self._ids[0]]}: window "
                    f"[{t_b},{t_e}] not covered: {exc}"
                ) from exc
            isbs = merge_grid(
                [(p[2], p[3], *self._piece_columns(p, generation, n)) for p in plan]
            )
        return generation, self._ids[:n], isbs

    def m_cells(self, window_quarters: int = 4) -> dict[Values, ISB]:
        """The m-layer over the last ``window_quarters`` sealed quarters.

        Each cell's ISB is assembled from its tilt frame with Theorem 3.3.
        Cells whose frames cannot cover the window (nothing sealed yet)
        raise; call :meth:`advance_to` first.
        """
        return self.window_isbs(
            *recent_window_bounds(
                self._current_quarter, self.ticks_per_quarter, window_quarters
            )
        )

    def change_exceptions_between(
        self, prev_b: int, cur_b: int, end: int, layer: str = "m"
    ) -> dict[Values, ISB]:
        """Change exceptions over explicit window bounds, at the m-layer
        (``layer="m"``) or the o-layer (``"o"``), over this engine's cells.

        Both windows are read as columns and the keys encoded in canonical
        order, then judged by :func:`window_change_exceptions`, the body
        the sharded cube runs over its merged windows.  Nothing in the
        package calls it: the frozen ``benchmarks/e2e`` hook table wraps it
        by name, and it goes when that table drops it.
        """
        prev = self.window_columns(prev_b, cur_b - 1)[2]
        cur = self.window_columns(cur_b, end)[2]
        rows, order = CuboidColumns.canonical(
            self.layers.schema, self.layers.m_coord, self._cell_keys().keys
        )
        return window_change_exceptions(
            self.layers,
            self.policy,
            rows,
            prev.take(order),
            cur.take(order),
            layer,
        )
