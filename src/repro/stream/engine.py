"""The online, incremental stream-cube engine (paper Section 4.5).

The engine closes the loop the paper describes: raw records arrive
continuously at the primitive layer; they are rolled up to m-layer cells on
ingestion and accumulated — by regression aggregation, in O(1) space per
cell — within the current quarter; every quarter boundary seals an exact ISB
per cell into the tilt time frame, where promotions to coarser granularities
happen automatically ("the aggregated data will trigger the cube computation
once every 15 minutes"); and on demand the engine assembles the m-layer over
an analysis window and runs a cubing algorithm to refresh the o-layer and
the exception cells.

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

Time units: records carry *primitive* ticks (e.g. minutes);
``ticks_per_quarter`` primitive ticks form one finest tilt-frame slot.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, Literal

from repro.cube.lattice import PopularPath
from repro.cube.layers import CriticalLayers
from repro.cubing.full import full_materialization
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.multiway import multiway_cubing
from repro.cubing.policy import ExceptionPolicy, two_point_isb
from repro.cubing.popular_path import popular_path_cubing
from repro.cubing.result import CubeResult
from repro.errors import StreamError, TiltFrameError
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.regression.linear import RunningRegression
from repro.storage.base import ColdStore
from repro.storage.pages import ColdPage
from repro.storage.spill import ColdIndex, demotion_cutoffs
from repro.stream.records import StreamRecord
from repro.stream.state import CellSnapshot, EngineState
from repro.stream.wal import QuarterWAL
from repro.tilt.frame import (
    Column,
    Piece,
    TiltLevelSpec,
    TiltPages,
    TiltTimeFrame,
    merge_grid,
    merge_rows,
)

if kernels.HAVE_NUMPY:
    import numpy as np

__all__ = [
    "StreamCubeEngine",
    "engine_frame_levels",
    "o_layer_change_from_windows",
    "run_cubing",
    "validate_quarter_order",
    "change_window_bounds",
]

Values = tuple[Hashable, ...]
KeyFn = Callable[[StreamRecord], Values]
Algorithm = Literal["mo", "popular", "multiway", "full"]


def validate_quarter_order(
    batch: list[StreamRecord], current_quarter: int, ticks_per_quarter: int
) -> list[int]:
    """Enforce the batch ordering contract before any state is mutated.

    Quarters must be non-decreasing across the batch and none may precede
    ``current_quarter``; within one quarter any tick order is fine.  Shared
    by the single engine's :meth:`~StreamCubeEngine.ingest_many` and the
    sharded cube's ``ingest_batch`` so the contract cannot diverge.

    Returns the per-record quarter indices so callers can group the batch
    without re-deriving ``t // ticks_per_quarter`` per record.
    """
    quarters = [record.t // ticks_per_quarter for record in batch]
    high = current_quarter
    for i, quarter in enumerate(quarters):
        if quarter < current_quarter:
            raise StreamError(
                f"batch record {i} at t={batch[i].t} belongs to sealed "
                f"quarter {quarter} (current quarter is {current_quarter}); "
                "batch rejected, no records ingested"
            )
        if quarter < high:
            raise StreamError(
                f"batch record {i} at t={batch[i].t} (quarter {quarter}) "
                f"goes back past quarter {high} seen earlier in the "
                "batch; batches must be quarter-ordered — batch "
                "rejected, no records ingested"
            )
        high = quarter
    return quarters


def change_window_bounds(
    current_quarter: int, ticks_per_quarter: int, quarters_apart: int
) -> tuple[int, int, int]:
    """The ``(prev_b, cur_b, end)`` ticks of a current-vs-previous pair.

    Raises when fewer than two windows are sealed.  One definition serves
    the engine and the sharded cube so their change detection cannot drift.
    """
    if current_quarter < 2 * quarters_apart:
        raise StreamError(
            "need at least two sealed windows for change detection"
        )
    end = current_quarter * ticks_per_quarter - 1
    cur_b = end - quarters_apart * ticks_per_quarter + 1
    prev_b = cur_b - quarters_apart * ticks_per_quarter
    return prev_b, cur_b, end


def run_cubing(
    layers: CriticalLayers,
    cells: dict[Values, ISB],
    policy: ExceptionPolicy,
    algorithm: Algorithm = "mo",
    path: PopularPath | None = None,
) -> CubeResult:
    """Dispatch one cubing run over an assembled m-layer by algorithm name."""
    if algorithm == "mo":
        return mo_cubing(layers, cells, policy)
    if algorithm == "popular":
        return popular_path_cubing(layers, cells, policy, path)
    if algorithm == "multiway":
        return multiway_cubing(layers, cells, policy)
    if algorithm == "full":
        return full_materialization(layers, cells, policy)
    raise StreamError(f"unknown algorithm {algorithm!r}")


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


#: Minimum records in one (cell, quarter) group before the grouped ingest
#: path builds numpy arrays; smaller groups stay on the dict loop, whose
#: result is bit-identical (see :meth:`_CellState.add_many`).
_GROUP_VECTOR_MIN = 16


class _CellState:
    """Per-m-layer-cell streaming state.

    Within the current quarter, readings are accumulated per tick — several
    records of one cell at the same tick are *summed* (the point-wise
    standard-dimension semantics of Section 3.3: a cell's series is the sum
    of its contributing streams) — and the quarter's ISB is fitted over the
    per-tick sums at sealing time.  Memory per cell is O(ticks_per_quarter).

    The cell's sealed history is not here: it is row ``i`` of the engine's
    pages, ``i`` the cell's position in the engine's cell order.

    ``last_active_quarter`` records the quarter of the newest record the
    cell has received; :meth:`StreamCubeEngine.prune_idle` reads it instead
    of probing the tilt frame.
    """

    __slots__ = ("tick_sums", "last_active_quarter", "cold_since")

    def __init__(self, quarter: int) -> None:
        self.tick_sums: dict[int, float] = {}
        self.last_active_quarter = quarter
        # With tiered storage: the clock at this cell's birth.  Cold pages
        # are keyed, and one sealed *before* a cell existed may still carry
        # a row under its key (a pruned predecessor); below this tick the
        # cell reads the page's zero row, as it does from a hot page too
        # short to hold its row.
        self.cold_since = 0

    def add(self, t: int, z: float) -> None:
        self.tick_sums[t] = self.tick_sums.get(t, 0.0) + z

    def add_many(self, ts: list[int], zs: list[float]) -> None:
        """Accumulate one (cell, quarter) group of a batch.

        Bit-identical to calling :meth:`add` per record: when the quarter's
        accumulator is untouched, summing a tick's batch records left to
        right from 0.0 (what ``np.bincount`` does) performs exactly the IEEE
        additions the dict loop would; when partial sums already exist, the
        group stays on the dict loop so the existing sum folds in record
        order.
        """
        sums = self.tick_sums
        if (
            sums
            or len(ts) < _GROUP_VECTOR_MIN
            or not kernels.HAVE_NUMPY
        ):
            for t, z in zip(ts, zs):
                sums[t] = sums.get(t, 0.0) + z
            return
        t_arr = np.asarray(ts, dtype=np.int64)
        t0 = int(t_arr.min())
        offsets = t_arr - t0
        span = int(offsets.max()) + 1
        totals = np.bincount(offsets, weights=zs, minlength=span)
        present = np.bincount(offsets, minlength=span) > 0
        ticks = (np.nonzero(present)[0] + t0).tolist()
        for t, z in zip(ticks, totals[present].tolist()):
            sums[t] = z

    def sorted_items(self) -> list[tuple[int, float]]:
        """The per-tick sums in ascending tick order (the sealing order)."""
        return sorted(self.tick_sums.items())

    def seal(self, lo: int, hi: int) -> ISB:
        """Fit and clear the quarter's accumulator (scalar reference path).

        Ticks are folded in ascending order — the canonical sealing order —
        so the sealed ISB does not depend on record arrival order and
        matches the grouped kernel (:func:`repro.regression.kernels.
        group_fit`) bit for bit.
        """
        running = RunningRegression()
        for t, z in self.sorted_items():
            running.add(t, z)
        self.tick_sums.clear()
        fit = running.fit_window(lo, hi)
        return ISB(lo, hi, fit.base, fit.slope)


class StreamCubeEngine:
    """Incremental regression-cube maintenance over an unbounded stream.

    Parameters
    ----------
    layers:
        The critical layers (m-layer / o-layer) of the cube.
    policy:
        The exception policy used by :meth:`refresh`.
    key_fn:
        Maps a primitive record to its m-layer cell values.  Defaults to
        using ``record.values`` unchanged (records already at the m-layer).
    ticks_per_quarter:
        Primitive ticks per finest tilt-frame slot.
    frame_levels:
        Tilt-frame level specs; defaults to :func:`engine_frame_levels`.
    wal:
        Optional :class:`~repro.stream.wal.QuarterWAL`.  When attached,
        every accepted batch and explicit clock advance is journaled
        *before* it mutates engine state, so a crash loses nothing that was
        acknowledged; when ``None`` (the default) the ingest paths pay one
        ``is None`` check and nothing else.
    storage:
        Optional :class:`~repro.storage.base.ColdStore`.  When attached,
        every quarter seal demotes slots older than the hot horizon into
        packed cold pages; deep-history windows fault them back
        transparently, so resident memory is bounded by the hot set while
        answers stay exact.
    hot_quarters:
        The hot horizon, in quarters, kept resident before demotion
        (default 4 — one full hour of finest slots).  Ignored without
        ``storage``.
    """

    def __init__(
        self,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None = None,
        ticks_per_quarter: int = 15,
        frame_levels: Iterable[TiltLevelSpec] | None = None,
        wal: QuarterWAL | None = None,
        storage: ColdStore | None = None,
        hot_quarters: int | None = None,
    ) -> None:
        if ticks_per_quarter < 1:
            raise StreamError("ticks_per_quarter must be >= 1")
        if hot_quarters is not None and hot_quarters < 1:
            raise StreamError("hot_quarters must be >= 1")
        self.layers = layers
        self.policy = policy
        self.key_fn: KeyFn = key_fn if key_fn is not None else (
            lambda record: record.values
        )
        self.ticks_per_quarter = ticks_per_quarter
        self._frame_levels = (
            list(frame_levels)
            if frame_levels is not None
            else engine_frame_levels(ticks_per_quarter)
        )
        self.wal = wal
        self._cells: dict[Values, _CellState] = {}
        self._current_quarter = 0
        self._records_ingested = 0
        self._validate_values = layers.schema.values_validator(layers.m_coord)
        # Every cell's sealed history: one clock (an always-idle frame, the
        # zero prototype) and a page of columns per retained slot.  A new
        # cell takes the next row and nothing is backfilled — pages sealed
        # before it answer their zero row.
        self._tilt = TiltPages(TiltTimeFrame(self._frame_levels, origin=0))
        self._storage = storage
        self.hot_quarters = 4 if hot_quarters is None else hot_quarters
        self._pages_spilled = 0
        self._cold_faults = 0
        self._page_cache: OrderedDict[tuple[int, int, int], ColdPage]
        self._page_cache = OrderedDict()
        # The one piece of engine state that *reads* mutate (LRU ordering,
        # fault fills): its own lock, so concurrent deep-window queries
        # sharing the cube's shard read lock stay safe.
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
        return len(self._cells)

    @property
    def records_ingested(self) -> int:
        return self._records_ingested

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
        state = self._cells.get(key)
        if state is None:
            raise StreamError(f"no data seen for cell {key}")
        frame = self._tilt.frame_of(list(self._cells).index(key))
        if self._cold is not None:

            def read(level: int, t_b: int, t_e: int) -> ISB:
                page = self._load_page(level, t_b, t_e)
                if t_e < state.cold_since:
                    return page.zero_isb()
                return page.isb(key)

            frame.attach_cold(self._cold, read)
        return frame

    def prune_idle(self, idle_quarters: int) -> int:
        """Drop cells with no records in the last ``idle_quarters`` quarters.

        Long-running deployments see churn — users move away, sensors are
        decommissioned — and per-cell rows are the engine's only unbounded
        state.  Each cell tracks the quarter of its newest record
        (``last_active_quarter``), so idleness is an O(1) comparison per
        cell: a cell whose last record predates the window was sealed from
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
        alive = [
            bool(state.tick_sums) or state.last_active_quarter >= cutoff
            for state in self._cells.values()
        ]
        dropped = alive.count(False)
        if dropped:
            self._tilt = TiltPages.gather(
                [(self._tilt, [i for i, keep in enumerate(alive) if keep])]
            )
            self._cells = {
                key: state
                for (key, state), keep in zip(self._cells.items(), alive)
                if keep
            }
        return dropped

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def validate_cell_key(self, key: Values) -> Values:
        """Schema-validate one m-layer key (the canonical tuple comes back).

        Exposed so batch paths — here and in the sharded cube — can reject
        a record *before* any state is mutated or any WAL entry is written:
        a journaled batch must never fail on replay.
        """
        return self._validate_values(key)

    def ingest(self, record: StreamRecord) -> None:
        """Ingest one primitive record.

        Records must not go back past a sealed quarter; within the current
        quarter any order is accepted (the running sums are order-free).
        A record that fails validation — sealed quarter or out-of-schema
        key — is rejected before any state is mutated or journaled.
        """
        quarter = record.t // self.ticks_per_quarter
        if quarter < self._current_quarter:
            raise StreamError(
                f"record at t={record.t} belongs to sealed quarter {quarter} "
                f"(current quarter is {self._current_quarter})"
            )
        key = self.key_fn(record)
        if self.wal is not None:
            if key not in self._cells:
                self._validate_values(key)
            self.wal.append_batch([record], quarter)
        if quarter > self._current_quarter:
            self._seal_through(quarter)
        state = self._cells.get(key)
        if state is None:
            state = self._new_cell(key)
        state.add(record.t, record.z)
        state.last_active_quarter = quarter
        self._records_ingested += 1

    def ingest_many(self, records: Iterable[StreamRecord]) -> None:
        """Ingest a batch of records, validating time order up front.

        Ordering contract: the batch's records must have non-decreasing
        *quarters* (``t // ticks_per_quarter``) and none may belong to an
        already-sealed quarter.  Within one quarter any tick order is fine —
        per-tick accumulation is order-free — but a record whose quarter
        precedes an earlier record's quarter would force sealing that the
        stream cannot undo.  The whole batch is order-checked before any
        state is mutated, so a bad batch raises :class:`StreamError` and
        leaves the engine exactly as it was (no partial ingestion).

        With a WAL attached, every *new* cell key is additionally
        schema-validated up front, before journaling, so the log can never
        hold a batch that would fail on replay.  The default (WAL-off)
        path skips that batch-wide pass and keeps the lazy per-new-cell
        validation — zero added overhead.

        Batches take the grouped fast path: records are bucketed by
        ``(cell, quarter)`` in one pass, sealing runs once per quarter
        boundary, and each group applies one accumulator update — instead of
        re-deriving the quarter and re-dispatching per record as
        :meth:`ingest` must.  The resulting engine state is bit-identical to
        record-at-a-time ingestion (property-pinned in
        ``tests/stream/test_grouped_ingest.py``).
        """
        batch = list(records)
        quarters = validate_quarter_order(
            batch, self._current_quarter, self.ticks_per_quarter
        )
        self.ingest_grouped(batch, quarters)

    def ingest_grouped(
        self,
        batch: list[StreamRecord],
        quarters: list[int],
    ) -> None:
        """Grouped ingestion of an already-validated, quarter-ordered batch.

        ``quarters`` is :func:`validate_quarter_order`'s output for the
        batch.  One pass buckets the batch into per-quarter, per-cell
        ``(ticks, values)`` groups, then :meth:`apply_segments` seals each
        quarter boundary once and applies one accumulator update per group.
        With a WAL attached, the batch is journaled (after new-key
        validation) exactly as :meth:`ingest_many` would — every accepted
        batch reaches the log no matter which ingest surface it entered
        through.  Callers that cannot guarantee the ordering contract must
        use :meth:`ingest_many`.
        """
        segments = self.group_segments(batch, quarters)
        if self.wal is not None and batch:
            self.validate_segment_keys(segments)
            self.wal.append_batch(batch, quarters[-1])
        self.apply_segments(segments, len(batch))

    def group_segments(
        self,
        batch: list[StreamRecord],
        quarters: list[int],
    ) -> list[tuple[int, dict[Values, tuple[list[int], list[float]]]]]:
        """Bucket a quarter-ordered batch into per-quarter, per-cell groups.

        Pure (no engine state is touched), so callers can group, validate,
        journal, and only then apply.
        """
        key_fn = self.key_fn
        segments: list[tuple[int, dict[Values, tuple[list[int], list[float]]]]]
        segments = []
        groups: dict[Values, tuple[list[int], list[float]]] | None = None
        segment_quarter = -1
        for record, quarter in zip(batch, quarters):
            if groups is None or quarter != segment_quarter:
                groups = {}
                segments.append((quarter, groups))
                segment_quarter = quarter
            key = key_fn(record)
            group = groups.get(key)
            if group is None:
                groups[key] = group = ([], [])
            group[0].append(record.t)
            group[1].append(record.z)
        return segments

    def validate_segment_keys(
        self,
        segments: list[tuple[int, dict[Values, tuple[list[int], list[float]]]]],
    ) -> None:
        """Schema-validate every *new* cell key in pre-grouped segments.

        Runs once per group (not per record) and only for keys the engine
        has not seen, so the whole batch is accepted or rejected before any
        accumulator, frame, or journal is touched.
        """
        cells = self._cells
        for _, groups in segments:
            for key in groups:
                if key not in cells:
                    self._validate_values(key)

    def apply_segments(
        self,
        segments: list[tuple[int, dict[Values, tuple[list[int], list[float]]]]],
        n_records: int,
    ) -> None:
        """Apply pre-grouped quarter segments (the grouped-ingest backend).

        Each segment is ``(quarter, {cell key -> (ticks, values)})`` with
        quarters strictly increasing and none sealed; groups preserve record
        order.  The sharded cube builds these per shard in its routing pass
        so records are grouped exactly once end to end.
        """
        cells = self._cells
        for quarter, groups in segments:
            if quarter > self._current_quarter:
                self._seal_through(quarter)
            for key, (ts, zs) in groups.items():
                state = cells.get(key)
                if state is None:
                    state = self._new_cell(key)
                state.add_many(ts, zs)
                state.last_active_quarter = quarter
        self._records_ingested += n_records

    def advance_to(self, t: int) -> None:
        """Seal every quarter ending at or before primitive tick ``t - 1``.

        Call at the end of a simulation (or on a timer) so quiet periods
        still roll the frame forward.
        """
        quarter = t // self.ticks_per_quarter
        if quarter > self._current_quarter:
            if self.wal is not None:
                self.wal.append_advance(t, quarter)
            self._seal_through(quarter)

    def _new_cell(self, key: Values) -> _CellState:
        key = self._validate_values(key)
        # The cell takes the next row; every page sealed so far is too
        # short to hold it and answers its zero row — the zero backfill at
        # no spawn cost at all.
        state = _CellState(self._current_quarter)
        if self._storage is not None:
            state.cold_since = self._tilt.clock.now
        self._cells[key] = state
        return state

    def _seal_through(self, quarter: int) -> None:
        """Seal every quarter up to (excluding) ``quarter`` for all cells.

        One grouped kernel call fits every active cell's quarter
        (:func:`repro.regression.kernels.group_fit`, bit-identical to the
        scalar :meth:`_CellState.seal`) and its arrays are scattered into
        the rows of a new page, idle cells' rows staying the zero line;
        :meth:`~repro.tilt.frame.TiltPages.seal` appends the page and runs
        the promotions it triggers — no per-cell object is made.
        """
        tpq = self.ticks_per_quarter
        for q in range(self._current_quarter, quarter):
            lo = q * tpq
            hi = lo + tpq - 1
            states = list(self._cells.values())
            if kernels.HAVE_NUMPY:
                base = np.zeros(len(states), dtype=np.float64)
                slope = np.zeros(len(states), dtype=np.float64)
                active = np.array(
                    [bool(state.tick_sums) for state in states], dtype=bool
                )
                if active.any():
                    ticks: list[int] = []
                    sums: list[float] = []
                    starts: list[int] = []
                    for state in states:
                        if state.tick_sums:
                            starts.append(len(ticks))
                            for t, z in state.sorted_items():
                                ticks.append(t)
                                sums.append(z)
                            state.tick_sums.clear()
                    base[active], slope[active] = kernels.group_fit(
                        np.asarray(ticks, dtype=np.int64),
                        np.asarray(sums, dtype=np.float64),
                        starts,
                        lo,
                        hi,
                    )
            else:
                sealed = [
                    state.seal(lo, hi) if state.tick_sums else None
                    for state in states
                ]
                base = array("d", [isb.base if isb else 0.0 for isb in sealed])
                slope = array("d", [isb.slope if isb else 0.0 for isb in sealed])
            self._tilt.seal(base, slope)
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

        The arithmetic is deterministic in the sealed history, so a crash
        after a spill but before the next snapshot loses nothing: WAL
        replay re-seals the same quarters and re-derives pages that read
        bit-identically (``put_segment`` is idempotent by interval).
        """
        clock = self._tilt.clock
        cutoffs = demotion_cutoffs(
            [lv.unit_ticks for lv in clock.levels],
            [lv.capacity for lv in clock.levels],
            clock.origin,
            clock.now,
            self.hot_quarters * self.ticks_per_quarter,
        )
        keys: list[Values] | None = None
        for li, cutoff in enumerate(cutoffs):
            if cutoff is None:
                continue
            while True:
                oldest = self._tilt.oldest(li)
                if oldest is None or oldest[0].t_e >= cutoff:
                    break
                if keys is None:
                    keys = list(self._cells)
                zero, (base, slope) = oldest
                self._storage.put_segment(
                    ColdPage(
                        li,
                        zero.t_b,
                        zero.t_e,
                        keys[: len(base)],
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

    #: Decoded cold pages kept hot; a deep window touches each page once
    #: per call anyway, so a small LRU only needs to absorb *repeated*
    #: deep queries.
    _PAGE_CACHE_SLOTS = 32

    def _load_page(self, level: int, t_b: int, t_e: int) -> ColdPage:
        cache_key = (level, t_b, t_e)
        with self._page_lock:
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
        self, piece: tuple[int, int, int, int], keys: list[Values]
    ) -> tuple[Column, Column]:
        """One window piece as ``(base, slope)`` columns over ``keys``' rows.

        The zero-row rule in both its forms: a hot page is positional and
        answers its zero row past its own length; a cold page is keyed and
        answers it for keys it does not hold and for cells born after it
        was sealed (one page fault serves every cell on the piece).
        """
        level, pos, t_b, t_e = piece
        if pos >= 0:
            return self._tilt.column(level, pos, len(keys))
        page = self._load_page(level, t_b, t_e)
        return page.gather(
            [
                page.row_of(key) if state.cold_since <= t_e else -1
                for key, state in self._cells.items()
            ]
        )

    def storage_stats(self) -> dict[str, Any] | None:
        """The ``/stats`` storage block, or ``None`` without a cold store."""
        if self._storage is None:
            return None
        stats = self._storage.stats().to_dict()
        stats.update(
            hot_cells=len(self._cells),
            hot_quarters=self.hot_quarters,
            cold_slots=self._cold.total_slots,
            pages_spilled=self._pages_spilled,
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
        (sealed pages are never written again) and accumulators copied, so
        the snapshot is immune to further ingestion at a cost independent
        of history depth; layers/policy/key_fn are configuration and
        deliberately not captured (see :mod:`repro.stream.state`).
        When a WAL is attached, the snapshot records its sequence
        high-water mark so recovery replays only what the snapshot missed.
        """
        return EngineState(
            ticks_per_quarter=self.ticks_per_quarter,
            frame_levels=tuple(self._frame_levels),
            current_quarter=self._current_quarter,
            records_ingested=self._records_ingested,
            tilt=self._tilt.copy(),
            cells={
                key: CellSnapshot(
                    tick_sums=dict(state.tick_sums),
                    last_active_quarter=state.last_active_quarter,
                    cold_since=state.cold_since,
                )
                for key, state in self._cells.items()
            },
            wal_seq=self.wal.last_seq if self.wal is not None else 0,
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
        wal: QuarterWAL | None = None,
        storage: ColdStore | None = None,
        hot_quarters: int | None = None,
    ) -> "StreamCubeEngine":
        """Rebuild an engine from a snapshot, bit-identical to the original.

        ``layers`` / ``policy`` / ``key_fn`` are supplied exactly as they
        were to the original constructor; the snapshot's cells are
        re-validated against the supplied schema, so loading a snapshot
        under an incompatible cube raises instead of corrupting silently.
        A snapshot with demoted history additionally needs the ``storage``
        store holding its cold pages.  To recover an interrupted run,
        follow with ``wal.replay(engine, after_seq=state.wal_seq)``.
        """
        engine = cls(
            layers,
            policy,
            key_fn=key_fn,
            ticks_per_quarter=state.ticks_per_quarter,
            frame_levels=state.frame_levels,
            wal=wal,
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
        quarter and no page may hold more rows than there are cells — a
        snapshot that violates that (corruption, or hand-edited state)
        raises :class:`StreamError` before any state is replaced.
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
        cells: dict[Values, _CellState] = {}
        for key, cell in state.cells.items():
            restored = _CellState(cell.last_active_quarter)
            restored.tick_sums = dict(cell.tick_sums)
            restored.cold_since = cell.cold_since
            cells[self._validate_values(key)] = restored
        self._frame_levels = list(state.frame_levels)
        self._tilt = tilt
        self._cells = cells
        self._current_quarter = state.current_quarter
        self._records_ingested = state.records_ingested
        with self._page_lock:
            self._page_cache.clear()
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
        """Every tracked cell's exact ISB over the sealed window [t_b, t_e].

        The window must be covered by the tilt frame (i.e. lie within the
        sealed history); Theorem 3.3 assembles the exact regression from
        the frame's slots.  One plan from the shared clock serves every
        cell, the planned pages merge down their rows in one grid kernel
        call, and the result is boxed into ISBs once, at the end.  This is
        the primitive the analysis views — and the cross-shard merge in
        :mod:`repro.service` — are built from.
        """
        if not self._cells:
            return {}
        keys = list(self._cells)
        pieces = self._window_pieces(t_b, t_e, keys)
        if kernels.HAVE_NUMPY:
            return dict(zip(keys, merge_grid(pieces).to_isbs()))
        return dict(zip(keys, merge_rows(pieces)))

    def _window_pieces(
        self, t_b: int, t_e: int, keys: list[Values]
    ) -> list[Piece]:
        """The window's plan as ``(t_b, t_e, base, slope)`` per piece, the
        columns over ``keys``' rows."""
        try:
            plan = self._tilt.clock.window_plan(t_b, t_e)
        except TiltFrameError as exc:
            raise StreamError(
                f"cell {keys[0]}: window [{t_b},{t_e}] not covered: {exc}"
            ) from exc
        return [
            (piece[2], piece[3], *self._piece_columns(piece, keys))
            for piece in plan
        ]

    def m_cells(self, window_quarters: int = 4) -> dict[Values, ISB]:
        """The m-layer over the last ``window_quarters`` sealed quarters.

        Each cell's ISB is assembled from its tilt frame with Theorem 3.3.
        Cells whose frames cannot cover the window (nothing sealed yet)
        raise; call :meth:`advance_to` first.
        """
        if self._current_quarter < window_quarters:
            raise StreamError(
                f"only {self._current_quarter} quarters sealed; cannot form "
                f"a {window_quarters}-quarter window"
            )
        t_e = self._current_quarter * self.ticks_per_quarter - 1
        t_b = t_e - window_quarters * self.ticks_per_quarter + 1
        return self.window_isbs(t_b, t_e)

    def refresh(
        self,
        window_quarters: int = 4,
        algorithm: Algorithm = "mo",
        path: PopularPath | None = None,
    ) -> CubeResult:
        """Recompute the o-layer and exception cells over a recent window.

        This is the quarter-boundary "cube computation" trigger of
        Section 4.5, exposed as an explicit call so applications control the
        cadence.
        """
        cells = self.m_cells(window_quarters)
        return run_cubing(self.layers, cells, self.policy, algorithm, path)

    def change_exceptions(
        self, quarters_apart: int = 1
    ) -> dict[Values, ISB]:
        """Cells whose current-vs-previous window regression is exceptional.

        Implements the paper's second exception flavour (current quarter vs
        the previous one) at the m-layer: the two-point regression's slope is
        judged by the engine's policy at the m-layer coordinate.
        """
        prev_b, cur_b, end = change_window_bounds(
            self._current_quarter, self.ticks_per_quarter, quarters_apart
        )
        return self.change_exceptions_between(prev_b, cur_b, end)

    def change_exceptions_between(
        self, prev_b: int, cur_b: int, end: int
    ) -> dict[Values, ISB]:
        """Change exceptions over explicit window bounds.

        The sharded cube fixes one ``(prev_b, cur_b, end)`` triple
        parent-side and broadcasts it, so every shard judges the same
        window pair regardless of its own clock (a recovering shard's
        clock can lag the fleet's mid-replay).
        """
        out: dict[Values, ISB] = {}
        if not self._cells:
            return out
        keys = list(self._cells)
        # Per-cell scalar merges (fsum) on both kernel paths: the change
        # line is judged against a threshold, and its digits must not
        # depend on whether numpy imports.
        prevs = merge_rows(self._window_pieces(prev_b, cur_b - 1, keys))
        curs = merge_rows(self._window_pieces(cur_b, end, keys))
        for key, prev, cur in zip(keys, prevs, curs):
            change = two_point_isb(prev, cur)
            if self.policy.is_exception(change, self.layers.m_coord):
                out[key] = change
        return out

    def o_layer_change_exceptions(
        self, quarters_apart: int = 1
    ) -> dict[Values, ISB]:
        """O-layer cells whose window-over-window regression is exceptional.

        The paper's observation-deck reading of the same flavour: "the
        current hour vs. the last" judged at the o-layer, where the analyst
        watches.  Both windows are aggregated to the o-layer with
        Theorem 3.2, then each cell's two-window two-point regression is
        judged by the policy at the o-layer coordinate.
        """
        prev_b, cur_b, end = change_window_bounds(
            self._current_quarter, self.ticks_per_quarter, quarters_apart
        )
        return o_layer_change_from_windows(
            self.layers,
            self.policy,
            self.window_isbs(prev_b, cur_b - 1),
            self.window_isbs(cur_b, end),
        )


def o_layer_change_from_windows(
    layers: CriticalLayers,
    policy: ExceptionPolicy,
    prev_window: dict[Values, ISB],
    cur_window: dict[Values, ISB],
) -> dict[Values, ISB]:
    """O-layer window-over-window change exceptions from two m-layer windows.

    Both windows map m-layer cells to their exact ISBs over adjacent
    intervals.  Cells are rolled up to the o-layer with Theorem 3.2, each
    o-cell's two-window two-point regression is formed, and the policy judges
    it at the o-layer coordinate.  Shared by the single engine and the
    cross-shard merge (whose windows are disjoint unions of shard windows).
    """
    o_coord = layers.o_coord
    schema = layers.schema
    mappers = [
        dim.hierarchy.ancestor_mapper(f, t)
        for dim, f, t in zip(schema.dimensions, layers.m_coord, o_coord)
    ]
    prev_cells: dict[Values, list[ISB]] = {}
    cur_cells: dict[Values, list[ISB]] = {}
    for key, isb in prev_window.items():
        o_key = tuple(m(v) for m, v in zip(mappers, key))
        prev_cells.setdefault(o_key, []).append(isb)
    for key, isb in cur_window.items():
        o_key = tuple(m(v) for m, v in zip(mappers, key))
        cur_cells.setdefault(o_key, []).append(isb)
    # Deliberately the fsum-based scalar merge, NOT the columnar kernel:
    # fsum is permutation-invariant, and the sharded cube feeds this function
    # canonically re-ordered windows whose per-group order differs from a
    # single engine's — order-sensitive sums would break the bit-identity
    # the service property tests pin.
    from repro.regression.aggregation import merge_standard

    out: dict[Values, ISB] = {}
    for o_key, prev_parts in prev_cells.items():
        prev = merge_standard(prev_parts)
        cur = merge_standard(cur_cells[o_key])
        change = two_point_isb(prev, cur)
        if policy.is_exception(change, o_coord):
            out[o_key] = change
    return out
