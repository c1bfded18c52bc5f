"""Demotion bookkeeping: what is cold, and what may go cold next.

The engine never asks a backend "what do you have?" on the query path —
that would make window planning I/O-bound.  Instead a :class:`ColdIndex`
records, per tilt level, the contiguous *span* of ticks whose slots have
been demoted; membership is arithmetic.  Spans (not counts) survive the
awkward cases: storage enabled mid-life after maxlen eviction already
dropped early history, or a restore into a store holding more pages than
the snapshot's spans acknowledge (orphans from a crash between spill and
manifest — ignored until the WAL replay re-derives them).

:func:`demotion_cutoffs` is the other half of the contract: per level,
the tick below which slots may be demoted *now*, or ``None`` when the
level must not spill at all.  Two rules keep demotion invisible to the
frame's promotion machinery:

* A level spills only if the hot horizon fits in ``capacity - 1`` slots —
  then the level's page deque never reaches ``maxlen`` between demotions,
  so maxlen eviction (which would lose data without writing a page) never
  fires at a spilling level.
* A non-coarsest level never demotes slots at or past the last completed
  next-coarser unit boundary — those pages have not been promoted yet and
  the promotion path reads them from the hot tier.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StorageError

__all__ = ["ColdIndex", "demotion_cutoffs"]

Span = tuple[int, int]  # [lo, hi): demoted ticks, half-open


class ColdIndex:
    """Per-level contiguous demoted spans, consulted by an engine's clock.

    ``units[li]`` is level ``li``'s ``unit_ticks``; a demoted slot at level
    ``li`` covers exactly one unit.  Slots are recorded oldest-first and
    contiguously (the demotion loop drops each level's oldest page), so
    one half-open tick span per level captures the whole cold set.
    """

    __slots__ = ("units", "_spans")

    def __init__(
        self,
        units: Sequence[int],
        spans: Sequence[Span | None] | None = None,
    ) -> None:
        self.units = tuple(int(u) for u in units)
        if any(u < 1 for u in self.units):
            raise StorageError(f"invalid level units {self.units}")
        if spans is None:
            self._spans: list[Span | None] = [None] * len(self.units)
        else:
            if len(spans) != len(self.units):
                raise StorageError(
                    f"cold index got {len(spans)} spans for "
                    f"{len(self.units)} levels"
                )
            self._spans = [
                None if s is None else (int(s[0]), int(s[1])) for s in spans
            ]
            for li, span in enumerate(self._spans):
                if span is not None and (
                    span[0] >= span[1]
                    or (span[1] - span[0]) % self.units[li] != 0
                ):
                    raise StorageError(
                        f"cold index level {li} span {span} is not a "
                        f"positive multiple of unit {self.units[li]}"
                    )

    # ------------------------------------------------------------------
    # Recording (the demotion loop)
    # ------------------------------------------------------------------
    def record(self, level: int, t_b: int, t_e: int) -> None:
        """Mark the slot ``[t_b, t_e]`` of ``level`` as demoted.

        Slots must arrive oldest-first with no gaps: each either starts a
        level's span or extends it on the right.
        """
        unit = self.units[level]
        if t_e - t_b + 1 != unit:
            raise StorageError(
                f"level {level} slot [{t_b},{t_e}] does not span one "
                f"unit ({unit} ticks)"
            )
        span = self._spans[level]
        if span is None:
            self._spans[level] = (t_b, t_e + 1)
            return
        if t_b != span[1]:
            raise StorageError(
                f"level {level} demotion gap: span ends at {span[1]}, "
                f"next slot starts at {t_b}"
            )
        self._spans[level] = (span[0], t_e + 1)

    # ------------------------------------------------------------------
    # Membership (the window planner)
    # ------------------------------------------------------------------
    def span(self, level: int) -> Span | None:
        """The demoted ``[lo, hi)`` tick span of a level, or ``None``."""
        return self._spans[level]

    def has_slot(self, level: int, t_b: int) -> bool:
        """True iff a demoted slot of ``level`` starts exactly at ``t_b``."""
        span = self._spans[level]
        if span is None:
            return False
        unit = self.units[level]
        lo, hi = span
        return lo <= t_b and t_b + unit <= hi and (t_b - lo) % unit == 0

    @property
    def total_slots(self) -> int:
        """Number of demoted slots across all levels."""
        return sum(
            (hi - lo) // unit
            for unit, span in zip(self.units, self._spans)
            if span is not None
            for lo, hi in (span,)
        )

    # ------------------------------------------------------------------
    # State (the snapshot codec)
    # ------------------------------------------------------------------
    def to_state(self) -> list[list[int] | None]:
        return [None if s is None else [s[0], s[1]] for s in self._spans]

    @classmethod
    def from_state(
        cls, units: Sequence[int], spans: Sequence[Span | None]
    ) -> "ColdIndex":
        return cls(units, spans=spans)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColdIndex):
            return NotImplemented
        return self.units == other.units and self._spans == other._spans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColdIndex(units={self.units}, spans={self._spans})"


def demotion_cutoffs(
    units: Sequence[int],
    capacities: Sequence[int],
    origin: int,
    next_tick: int,
    hot_ticks: int,
) -> list[int | None]:
    """Per-level demotion cutoffs for the current clock.

    A slot of level ``li`` may be demoted iff ``slot.t_e < cutoff[li]``;
    ``None`` disables demotion for that level.  See the module docstring
    for the two invariants the arithmetic maintains.
    """
    if hot_ticks < 1:
        raise StorageError("hot horizon must be at least one tick")
    cutoffs: list[int | None] = []
    n = len(units)
    for li in range(n):
        unit = units[li]
        hot_slots = -(-hot_ticks // unit)  # ceil
        if hot_slots > capacities[li] - 1:
            cutoffs.append(None)
            continue
        cutoff = next_tick - hot_ticks
        if li + 1 < n:
            coarse = units[li + 1]
            aligned = origin + ((next_tick - origin) // coarse) * coarse
            cutoff = min(cutoff, aligned)
        cutoffs.append(cutoff)
    return cutoffs
