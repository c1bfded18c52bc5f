"""The tilt time frame (paper Section 4.1, Figure 4).

Time is registered at multiple granularities: the most recent time at the
finest granularity, more distant time at coarser granularities.  Each level
holds a bounded number of *slots*; a slot stores the ISB of its time span.
When the slots of a fine level complete a full unit of the next coarser
level, they are aggregated with Theorem 3.3 and *promoted* into a new slot at
that coarser level, while the fine slots remain available until evicted by
their level's capacity — exactly the Section 4.5 maintenance discipline
("the quarter slots will still retain sufficient information for
quarter-based regression analysis").

The frame is generic; the paper's natural-calendar preset and a logarithmic
variant live in :mod:`repro.tilt.natural` and :mod:`repro.tilt.logarithmic`.

Two carriers share the discipline.  :class:`TiltTimeFrame` is one series:
a deque of :class:`ISB` slots per level — the public single-series API, and
the reference the page store is tested against (:func:`bulk_insert`
advances several such frames at once).  :class:`TiltPages` is *many aligned
series*: one ``TiltTimeFrame`` as the shared clock plus, per retained slot,
a page of ``(base, slope)`` columns with a row per series — what the stream
engine keeps, at 16 bytes per series per slot instead of an object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TiltFrameError
from repro.regression import kernels
from repro.regression.aggregation import merge_time
from repro.regression.isb import ISB

__all__ = [
    "TiltLevelSpec",
    "TiltTimeFrame",
    "TiltPages",
    "bulk_insert",
    "merge_grid",
    "take_rows",
]

#: A window decomposition: ``(level index, slot position, t_b, t_e)`` per
#: piece, finest available level first at every position (see
#: :meth:`TiltTimeFrame.window_plan`).
WindowPlan = list[tuple[int, int, int, int]]


@dataclass(frozen=True)
class TiltLevelSpec:
    """Specification of one tilt-frame level.

    Attributes
    ----------
    name:
        Level name, e.g. ``"quarter"``.
    unit_ticks:
        How many base ticks one slot of this level spans.  Must be a
        multiple of the previous (finer) level's ``unit_ticks``.
    capacity:
        How many most-recent slots this level retains.  For every level
        except the coarsest it must be at least the ratio to the next
        coarser level's unit, otherwise slots would be evicted before they
        can be promoted.
    """

    name: str
    unit_ticks: int
    capacity: int

    def __post_init__(self) -> None:
        if self.unit_ticks < 1:
            raise TiltFrameError(f"level {self.name!r}: unit_ticks must be >= 1")
        if self.capacity < 1:
            raise TiltFrameError(f"level {self.name!r}: capacity must be >= 1")


class TiltTimeFrame:
    """A multi-granularity register of ISBs over a growing time axis.

    Parameters
    ----------
    levels:
        Level specs, finest first.  Unit sizes must be strictly increasing,
        each a multiple of the previous.
    origin:
        The base tick at which the frame's time axis starts; all level units
        are aligned to it.
    """

    #: Cold-storage seam (class-level defaults keep frames storage-free by
    #: default).  ``_cold`` answers "does a demoted slot start here?" (duck
    #: typed: anything with ``has_slot(level, t_b)``, in practice one
    #: :class:`repro.storage.spill.ColdIndex` per engine, consulted through
    #: the engine's clock); ``_cold_reader(level, t_b, t_e)`` faults the
    #: slot's ISB back in (a clock plans but never reads: its reader is
    #: ``None``).  The tilt layer never imports the storage layer.
    _cold = None
    _cold_reader = None

    def __init__(self, levels: Sequence[TiltLevelSpec], origin: int = 0) -> None:
        if not levels:
            raise TiltFrameError("a tilt frame needs at least one level")
        names = [lv.name for lv in levels]
        if len(set(names)) != len(names):
            raise TiltFrameError(f"duplicate level names: {names}")
        for fine, coarse in zip(levels, levels[1:]):
            if coarse.unit_ticks <= fine.unit_ticks:
                raise TiltFrameError(
                    f"level {coarse.name!r} unit ({coarse.unit_ticks}) must "
                    f"exceed level {fine.name!r} unit ({fine.unit_ticks})"
                )
            if coarse.unit_ticks % fine.unit_ticks != 0:
                raise TiltFrameError(
                    f"level {coarse.name!r} unit ({coarse.unit_ticks}) is not "
                    f"a multiple of level {fine.name!r} unit ({fine.unit_ticks})"
                )
            ratio = coarse.unit_ticks // fine.unit_ticks
            if fine.capacity < ratio:
                raise TiltFrameError(
                    f"level {fine.name!r} capacity ({fine.capacity}) is below "
                    f"the promotion ratio to {coarse.name!r} ({ratio}); slots "
                    "would be evicted before promotion"
                )
        self.levels = tuple(levels)
        self.origin = origin
        self._slots: list[Deque[ISB]] = [
            deque(maxlen=lv.capacity) for lv in levels
        ]
        self._next_tick = origin
        self._evicted = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The next base tick the frame expects (1 past the last covered)."""
        return self._next_tick

    @property
    def total_capacity(self) -> int:
        """Total number of slots the frame can hold (Example 3's "71")."""
        return sum(lv.capacity for lv in self.levels)

    @property
    def total_retained(self) -> int:
        """Number of slots currently held across all levels."""
        return sum(len(s) for s in self._slots)

    @property
    def evicted_slots(self) -> int:
        """Count of coarsest-level slots whose data has aged out entirely."""
        return self._evicted

    def level_index(self, level: int | str) -> int:
        if isinstance(level, int):
            if not 0 <= level < len(self.levels):
                raise TiltFrameError(f"no level index {level}")
            return level
        for i, lv in enumerate(self.levels):
            if lv.name == level:
                return i
        raise TiltFrameError(f"no level named {level!r}")

    def slots(self, level: int | str) -> tuple[ISB, ...]:
        """The retained slots of a level, oldest first."""
        return tuple(self._slots[self.level_index(level)])

    def span(self) -> tuple[int, int] | None:
        """The closed tick interval currently covered, or ``None`` if empty.

        The covered span runs from the oldest retained coarse slot to the
        newest fine slot (the levels telescope; coarser levels reach further
        back).
        """
        starts = [s[0].t_b for s in self._slots if s]
        ends = [s[-1].t_e for s in self._slots if s]
        if not starts:
            return None
        return (min(starts), max(ends))

    # ------------------------------------------------------------------
    # Insertion / promotion
    # ------------------------------------------------------------------
    def insert(self, isb: ISB) -> None:
        """Insert the ISB of the next finest-level unit.

        The ISB must cover exactly ``[now, now + unit - 1]`` where ``unit``
        is the finest level's ``unit_ticks`` — the frame only grows
        contiguously, mirroring the always-grow nature of the stream.
        Promotions to coarser levels happen automatically when unit
        boundaries are crossed.
        """
        unit = self.levels[0].unit_ticks
        expected = (self._next_tick, self._next_tick + unit - 1)
        if isb.interval != expected:
            raise TiltFrameError(
                f"expected an ISB over {expected}, got {isb.interval}"
            )
        self._slots[0].append(isb)
        self._next_tick += unit
        self._promote(0)

    def _promote(self, level: int) -> None:
        """Promote level ``level`` into ``level + 1`` if a unit completed."""
        if level + 1 >= len(self.levels):
            return
        coarse = self.levels[level + 1]
        # A coarse unit just completed iff the frame's covered end is aligned.
        if (self._next_tick - self.origin) % coarse.unit_ticks != 0:
            return
        ratio = coarse.unit_ticks // self.levels[level].unit_ticks
        fine_slots = self._slots[level]
        if len(fine_slots) < ratio:  # partial history at startup
            return
        children = list(fine_slots)[-ratio:]
        merged = merge_time(children)
        target = self._slots[level + 1]
        if (
            len(target) == target.maxlen
            and level + 1 == len(self.levels) - 1
        ):
            self._evicted += 1
        target.append(merged)
        self._promote(level + 1)

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def clone(self) -> "TiltTimeFrame":
        """An exact, independent copy of this frame's state.

        Slots hold immutable ISBs, so the copy shares them; only the deques
        are duplicated.  Skips ``__init__`` validation — the levels were
        validated when this frame was built.  A page store's clock is
        copied this way for every snapshot, in O(L).
        """
        other = object.__new__(TiltTimeFrame)
        other.levels = self.levels
        other.origin = self.origin
        other._slots = [s.copy() for s in self._slots]  # keeps maxlen
        other._next_tick = self._next_tick
        other._evicted = self._evicted
        other._cold = self._cold
        other._cold_reader = self._cold_reader
        return other

    def attach_cold(self, index, reader) -> None:
        """Wire this frame to demoted-slot bookkeeping and a fault-in reader.

        ``index`` must answer ``has_slot(level, t_b)`` for slots that have
        been demoted out of the deques; ``reader(level, t_b, t_e)`` must
        return the demoted slot's exact ISB.  Window planning then covers
        windows with cold slots too (see :meth:`window_plan`), and
        :meth:`slots_at` faults them in transparently.
        """
        self._cold = index
        self._cold_reader = reader

    @classmethod
    def from_state(
        cls,
        levels: Sequence[TiltLevelSpec],
        origin: int,
        next_tick: int,
        evicted: int,
        slots: Sequence[Sequence[ISB]],
    ) -> "TiltTimeFrame":
        """Rebuild a frame from externalized state (the snapshot codec).

        The inverse of reading ``levels`` / ``origin`` / ``now`` /
        ``evicted_slots`` / per-level ``slots()``: level specs are
        re-validated through ``__init__`` (a corrupted snapshot must not
        produce a frame that violates promotion invariants), then the
        retained slots are installed verbatim — restored frames are
        bit-identical to the originals, slot for slot, including eviction
        accounting.  Passing an already-validated ``levels`` tuple shared
        by sibling frames keeps the identity-based alignment fast path
        (:meth:`aligned_with`) intact after a restore.
        """
        frame = cls(levels, origin=origin)
        if len(slots) != len(frame.levels):
            raise TiltFrameError(
                f"frame state has {len(slots)} slot levels for "
                f"{len(frame.levels)} level specs"
            )
        for deque_, level_slots, spec in zip(frame._slots, slots, frame.levels):
            if len(level_slots) > spec.capacity:
                raise TiltFrameError(
                    f"level {spec.name!r} state holds {len(level_slots)} "
                    f"slots, over its capacity {spec.capacity}"
                )
            deque_.extend(level_slots)
        frame._next_tick = next_tick
        frame._evicted = evicted
        return frame

    def aligned_with(self, other: "TiltTimeFrame") -> bool:
        """True iff both frames share geometry, clock and slot counts.

        Aligned frames promote and decompose windows identically, which is
        what :func:`bulk_insert` and bulk window queries rely on.
        """
        if self._next_tick != other._next_tick or self.origin != other.origin:
            return False
        # Identity first: clones and restored siblings share one levels tuple.
        if self.levels is not other.levels and self.levels != other.levels:
            return False
        for a, b in zip(self._slots, other._slots):
            if len(a) != len(b):
                return False
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, t_b: int, t_e: int) -> ISB:
        """Regression over ``[t_b, t_e]`` from retained slots (Theorem 3.3).

        The window must be exactly coverable by retained slot boundaries;
        the finest available slots are preferred at every position.  Raises
        :class:`TiltFrameError` when the window reaches beyond retained
        history or does not align with any slot boundary.
        """
        plan = self.window_plan(t_b, t_e)
        return merge_time(self.slots_at(plan))

    def window_plan(self, t_b: int, t_e: int) -> WindowPlan:
        """The slot decomposition ``query`` would use, as positions.

        Returns ``(level index, slot position, t_b, t_e)`` per piece; a
        position of ``-1`` marks a *cold* (demoted) slot that
        :meth:`slots_at` faults back in.  The plan depends only on slot
        *boundaries*, so frames that are :meth:`aligned_with` each other —
        and share one cold index — share one plan: the stream engine plans
        once on its page store's clock and merges the planned pages down
        their rows in one grouped Theorem 3.3 kernel call.

        Planning is two-tier.  The *canonical* pass decomposes finest-first
        over the slots a storage-free frame would retain (resident slots
        plus cold slots still inside each level's capacity window), so any
        window answerable without tiered storage gets the identical plan —
        and the identical arithmetic — with it.  Only when that pass cannot
        cover the window does the *archive* pass retry over the full cold
        history, coarsest-first (fewer pages faulted per deep window); it
        extends coverage toward the origin without changing any answer the
        canonical pass already gave.
        """
        if t_b > t_e:
            raise TiltFrameError(f"empty window [{t_b}, {t_e}]")
        try:
            return self._plan(t_b, t_e, archive=False)
        except TiltFrameError:
            if self._cold is None:
                raise
            return self._plan(t_b, t_e, archive=True)

    def _plan(self, t_b: int, t_e: int, archive: bool) -> WindowPlan:
        plan: WindowPlan = []
        cursor = t_b
        while cursor <= t_e:
            piece = self._piece_at(cursor, t_e, archive)
            if piece is None:
                raise TiltFrameError(
                    f"window [{t_b}, {t_e}] not coverable from retained "
                    f"slots at tick {cursor}"
                )
            plan.append(piece)
            cursor = piece[3] + 1
        return plan

    def slots_at(self, plan: WindowPlan) -> list[ISB]:
        """The slots a plan points at, in plan order (cold ones faulted in)."""
        out: list[ISB] = []
        for level, pos, piece_b, piece_e in plan:
            if pos >= 0:
                out.append(self._slots[level][pos])
            else:
                out.append(self._cold_reader(level, piece_b, piece_e))
        return out

    def _piece_at(
        self, start: int, limit: int, archive: bool
    ) -> tuple[int, int, int, int] | None:
        cold = self._cold
        if not archive:
            for li, level_slots in enumerate(self._slots):  # finest first
                for pos, slot in enumerate(level_slots):
                    if slot.t_b == start and slot.t_e <= limit:
                        return (li, pos, slot.t_b, slot.t_e)
                if cold is not None and cold.has_slot(li, start):
                    end = start + self.levels[li].unit_ticks - 1
                    if end <= limit and start >= self._canonical_floor(li):
                        return (li, -1, start, end)
            return None
        for li in range(len(self._slots) - 1, -1, -1):  # coarsest first
            if cold is not None and cold.has_slot(li, start):
                end = start + self.levels[li].unit_ticks - 1
                if end <= limit:
                    return (li, -1, start, end)
            for pos, slot in enumerate(self._slots[li]):
                if slot.t_b == start and slot.t_e <= limit:
                    return (li, pos, slot.t_b, slot.t_e)
        return None

    def _canonical_floor(self, level: int) -> int:
        """Oldest slot start a storage-free frame would still retain.

        A level retains its ``capacity`` newest slots, ending at the last
        completed unit boundary — a demoted slot older than that would have
        been evicted by ``maxlen`` in a storage-free frame, so the
        canonical planning pass must not see it (the archive pass may).
        """
        spec = self.levels[level]
        last = (
            self.origin
            + ((self._next_tick - self.origin) // spec.unit_ticks)
            * spec.unit_ticks
        )
        return last - spec.capacity * spec.unit_ticks

    def last_window(self, level: int | str, count: int) -> ISB:
        """Merged regression over the most recent ``count`` slots of a level.

        E.g. ``last_window("hour", 24)`` is the paper's "the last day with
        the precision of hour".
        """
        idx = self.level_index(level)
        retained = self._slots[idx]
        if count < 1 or count > len(retained):
            raise TiltFrameError(
                f"level {self.levels[idx].name!r} holds {len(retained)} "
                f"slots; cannot window {count}"
            )
        return merge_time(list(retained)[-count:])

    def all_slots(self) -> Iterator[tuple[str, ISB]]:
        """All retained slots as ``(level_name, isb)`` pairs, finest first."""
        for lv, level_slots in zip(self.levels, self._slots):
            for slot in level_slots:
                yield lv.name, slot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{lv.name}:{len(s)}/{lv.capacity}"
            for lv, s in zip(self.levels, self._slots)
        )
        return f"TiltTimeFrame({parts}, now={self._next_tick})"


def bulk_insert(
    frames: Sequence[TiltTimeFrame],
    isbs: Iterable[ISB],
) -> None:
    """Insert one finest-level slot into many aligned frames at once.

    Semantically ``for f, i in zip(frames, isbs): f.insert(i)``, but all
    promotions triggered by the insert run as one grouped Theorem 3.3 kernel
    call per level (:func:`repro.regression.kernels.merge_time_grid`)
    instead of one ``merge_time`` per frame.  Aligned frames promote at the
    same boundaries with the same child intervals, which is what makes the
    grid shape possible.  (:meth:`TiltPages.seal` is the same operation for
    series that *never* leave alignment, with the frames replaced by rows.)

    Numeric note: the kernel folds each frame's children sequentially where
    scalar ``merge_time`` uses ``math.fsum``, so promoted slots agree with
    the scalar path to ulps, not bits (see :mod:`repro.regression.kernels`).
    Each frame's slots are computed from that frame's values alone, so
    results do not depend on how many frames share the batch — a cell seals
    identically on a 1-cell shard and a 10,000-cell engine, and a batch of
    one frame is the reference for one row of a page store.

    Falls back to per-frame :meth:`TiltTimeFrame.insert` when the frames
    are not aligned.
    """
    frames = list(frames)
    isb_list = list(isbs)
    if len(frames) != len(isb_list):
        raise TiltFrameError(
            f"bulk_insert got {len(frames)} frames but {len(isb_list)} ISBs"
        )
    if not frames:
        return
    first = frames[0]
    if not all(f is first or f.aligned_with(first) for f in frames[1:]):
        for frame, isb in zip(frames, isb_list):
            frame.insert(isb)
        return

    unit = first.levels[0].unit_ticks
    expected = (first._next_tick, first._next_tick + unit - 1)
    for isb in isb_list:
        if isb.interval != expected:
            raise TiltFrameError(
                f"expected an ISB over {expected}, got {isb.interval}"
            )
    for frame, isb in zip(frames, isb_list):
        frame._slots[0].append(isb)
        frame._next_tick += unit

    next_tick = first._next_tick
    level = 0
    while level + 1 < len(first.levels):
        coarse = first.levels[level + 1]
        if (next_tick - first.origin) % coarse.unit_ticks != 0:
            break
        ratio = coarse.unit_ticks // first.levels[level].unit_ticks
        if len(first._slots[level]) < ratio:  # partial history at startup
            break
        columns = [
            kernels.ISBColumns.from_isbs(
                [frame._slots[level][r] for frame in frames]
            )
            for r in range(-ratio, 0)
        ]
        merged = kernels.merge_time_grid(columns).to_isbs()
        coarsest = level + 1 == len(first.levels) - 1
        for frame, slot in zip(frames, merged):
            target = frame._slots[level + 1]
            if len(target) == target.maxlen and coarsest:
                frame._evicted += 1
            target.append(slot)
        level += 1


# ----------------------------------------------------------------------
# The page-columnar frame: many aligned series behind one clock
# ----------------------------------------------------------------------

#: One float64 column over a page's rows — 8 bytes a row.
Column = np.ndarray
#: ``(base, slope)`` columns of one slot interval.
Page = tuple[Column, Column]
#: A page with its interval: ``(t_b, t_e, base, slope)``.
Piece = tuple[int, int, Column, Column]


def _filled(head: Column, n: int, fill: float) -> Column:
    """``head`` extended to ``n`` rows with ``fill`` (as is when it fits)."""
    if len(head) == n:
        return head
    out = np.full(n, fill, dtype=np.float64)
    out[: len(head)] = head
    return out


class TiltPages:
    """The tilt frames of many aligned series, stored by slot, not by series.

    Series that advance in lockstep on one grid — every m-layer cell of a
    stream engine — promote at the same boundaries over the same intervals,
    so a frame per series repeats one clock N times and pays a Python
    :class:`ISB` per series per slot.  Here the clock exists once and each
    retained slot is one *page*: a ``(base, slope)`` pair of float64 columns
    with one row per series — 16 bytes per series per slot, the shape
    :class:`repro.storage.pages.ColdPage` gives a demoted slot.

    ``clock``
        A :class:`TiltTimeFrame` that carries no series of its own: levels,
        ``now``, the eviction count, the cold seam and
        :meth:`~TiltTimeFrame.window_plan` are the clock's, and the slot at
        ``(level, pos)`` holds page ``(level, pos)``'s interval and *zero
        row* — what an always-idle series holds there.

    **The zero-row rule.**  Rows are numbered in the order series joined,
    and a page is as long as the number of series that existed when it was
    sealed: a series that joined later has no row in it and reads the
    page's zero row instead.  That is exactly the zero backfill a frame of
    its own would have held, with nothing materialized.

    Pages are never written after they are sealed, so copies (snapshots)
    share their columns.
    """

    __slots__ = ("clock", "_pages")

    def __init__(
        self,
        clock: TiltTimeFrame,
        pages: Sequence[Sequence[Page]] | None = None,
    ) -> None:
        self.clock = clock
        if pages is None:
            pages = [()] * len(clock.levels)
        if len(pages) != len(clock.levels):
            raise TiltFrameError(
                f"page store has {len(pages)} page levels for "
                f"{len(clock.levels)} level specs"
            )
        self._pages: list[Deque[Page]] = []
        for spec, slots, level_pages in zip(clock.levels, clock._slots, pages):
            if len(level_pages) != len(slots):
                raise TiltFrameError(
                    f"level {spec.name!r} holds {len(level_pages)} pages "
                    f"for the clock's {len(slots)} slots"
                )
            for base, slope in level_pages:
                if len(base) != len(slope):
                    raise TiltFrameError(
                        f"level {spec.name!r}: a page's base and slope "
                        "columns differ in length"
                    )
            self._pages.append(deque(level_pages, maxlen=spec.capacity))

    def copy(self) -> "TiltPages":
        """An independent store over the same (immutable) page columns."""
        return TiltPages(self.clock.clone(), self._pages)

    def pages(self, level: int) -> tuple[Page, ...]:
        """The retained pages of a level, oldest first."""
        return tuple(self._pages[level])

    @property
    def max_rows(self) -> int:
        """Rows of the longest retained page (0 with nothing sealed)."""
        return max(
            (len(base) for level in self._pages for base, _ in level),
            default=0,
        )

    def column(self, level: int, pos: int, n: int) -> Page:
        """Page ``(level, pos)`` over ``n`` rows, zero row where it is short."""
        zero = self.clock._slots[level][pos]
        base, slope = self._pages[level][pos]
        return _filled(base, n, zero.base), _filled(slope, n, zero.slope)

    # ------------------------------------------------------------------
    # Sealing / promotion
    # ------------------------------------------------------------------
    def seal(self, base: Column, slope: Column) -> None:
        """Append the next finest-level page and run its promotions.

        Per series this is :meth:`TiltTimeFrame.insert`; across series it is
        :func:`bulk_insert` — one
        :func:`~repro.regression.kernels.merge_time_grid` per completed
        coarser unit over the last ``ratio`` pages (each row's arithmetic is
        that row's alone, so the result is bit-identical to ``bulk_insert``
        over one frame per series).  The zero row rides along as one extra
        row, so a promoted page's zero row is the promotion of its
        children's zero rows.
        """
        clock = self.clock
        levels = clock.levels
        unit = levels[0].unit_ticks
        lo = clock._next_tick
        clock._slots[0].append(ISB(lo, lo + unit - 1, 0.0, 0.0))
        self._pages[0].append((base, slope))
        clock._next_tick = lo + unit
        n = len(base)
        level = 0
        while level + 1 < len(levels):
            coarse = levels[level + 1]
            if (clock._next_tick - clock.origin) % coarse.unit_ticks != 0:
                break
            zeros = clock._slots[level]
            ratio = coarse.unit_ticks // levels[level].unit_ticks
            if len(zeros) < ratio:  # partial history at startup
                break
            first = len(zeros) - ratio
            # n + 1 rows each: the fill past a page's end is its zero row,
            # so the last row of the merge is the promoted zero row.
            children = [
                (zeros[pos].t_b, zeros[pos].t_e, *self.column(level, pos, n + 1))
                for pos in range(first, first + ratio)
            ]
            merged = merge_grid(children)
            base, slope = merged.base, merged.slope
            target = clock._slots[level + 1]
            if len(target) == target.maxlen and level + 2 == len(levels):
                clock._evicted += 1
            target.append(
                ISB(
                    children[0][0],
                    children[-1][1],
                    float(base[n]),
                    float(slope[n]),
                )
            )
            self._pages[level + 1].append((base[:n], slope[:n]))
            level += 1

    def oldest(self, level: int) -> tuple[ISB, Page] | None:
        """A level's oldest retained slot — the clock's slot (interval and
        zero row) and the page — or ``None`` when the level is empty."""
        if not self._pages[level]:
            return None
        return self.clock._slots[level][0], self._pages[level][0]

    def pop_oldest(self, level: int) -> None:
        """Drop a level's oldest slot (it has been demoted)."""
        self.clock._slots[level].popleft()
        self._pages[level].popleft()

    # ------------------------------------------------------------------
    # Row selection and per-series views
    # ------------------------------------------------------------------
    @classmethod
    def gather(
        cls, parts: Sequence[tuple["TiltPages", Sequence[int]]]
    ) -> "TiltPages":
        """A new store whose rows are the listed rows of each part, in order.

        The parts must share one clock state (the first part's is cloned).
        One part is a row selection (pruning); several are a re-partition.
        A row a page is too short for is taken from the page's zero row.
        """
        template = parts[0][0]
        pages: list[list[Page]] = []
        for level, zeros in enumerate(template.clock._slots):
            level_pages: list[Page] = []
            for pos, zero in enumerate(zeros):
                taken = [
                    (
                        take_rows(store._pages[level][pos][0], rows, zero.base),
                        take_rows(store._pages[level][pos][1], rows, zero.slope),
                    )
                    for store, rows in parts
                ]
                level_pages.append(
                    (
                        _concat([base for base, _ in taken]),
                        _concat([slope for _, slope in taken]),
                    )
                )
            pages.append(level_pages)
        return cls(template.clock.clone(), pages)

    def frame_of(self, row: int) -> TiltTimeFrame:
        """Row ``row``'s series as a frame of its own (the reference view).

        Slot for slot what :meth:`TiltTimeFrame.insert` would have built for
        that series alone; independent of this store.
        """
        clock = self.clock
        slots = []
        for zeros, level_pages in zip(clock._slots, self._pages):
            slots.append(
                [
                    ISB(zero.t_b, zero.t_e, float(base[row]), float(slope[row]))
                    if row < len(base)
                    else zero
                    for zero, (base, slope) in zip(zeros, level_pages)
                ]
            )
        return TiltTimeFrame.from_state(
            clock.levels, clock.origin, clock.now, clock.evicted_slots, slots
        )


def take_rows(column: Column, rows: Sequence[int], fill: float) -> Column:
    """``column[rows]``, with ``fill`` for rows the column does not have
    (negative, or past its end) — the zero-row rule as a gather."""
    size = len(column)
    index = np.asarray(rows, dtype=np.intp)
    out = np.full(len(index), fill, dtype=np.float64)
    present = (index >= 0) & (index < size)
    out[present] = column[index[present]]
    return out


def _concat(columns: Sequence[Column]) -> Column:
    return columns[0] if len(columns) == 1 else np.concatenate(columns)


def merge_grid(pieces: Sequence[Piece]) -> "kernels.ISBColumns":
    """Theorem 3.3 down the rows of time-adjacent pages, one kernel call
    (:func:`~repro.regression.kernels.merge_time_grid`).  A
    single piece is returned as it is — no arithmetic, as ``query`` does."""
    columns = [kernels.ISBColumns.over(*piece) for piece in pieces]
    return columns[0] if len(columns) == 1 else kernels.merge_time_grid(columns)
