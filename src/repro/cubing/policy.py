"""Exception thresholds and policies (paper Section 4.3).

"A regression line is exceptional if its slope >= the exception threshold,
where an exception threshold can be defined by a user or an expert for each
cuboid c, for each dimension level d, or for the whole cube."  This module
implements those three granularities plus the paper's second notion of
exception — the regression *between* the current and the previous time
window — and a calibration helper that turns a target exception *rate* (the
x-axis of Fig 8) into a concrete threshold.

Exceptions are judged on the absolute slope: a steep decline is as
noteworthy as a steep rise for the paper's monitoring scenarios.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import CubingError
from repro.regression.isb import ISB
from repro.regression.kernels import ISBColumns

__all__ = [
    "ExceptionPolicy",
    "GlobalSlopeThreshold",
    "PerCuboidSlopeThreshold",
    "PerDimensionLevelThreshold",
    "two_point_isb",
    "two_point_columns",
    "calibrate_threshold",
]

Coord = tuple[int, ...]


class ExceptionPolicy(ABC):
    """Decides whether a cell's regression line is exceptional."""

    @abstractmethod
    def threshold_for(self, coord: Coord) -> float:
        """The slope threshold in force at cuboid ``coord``."""

    def is_exception(self, isb: ISB, coord: Coord) -> bool:
        """Whether the cell's |slope| passes the cuboid's threshold."""
        return abs(isb.slope) >= self.threshold_for(coord)

    def exception_mask(self, slopes, coord: Coord):
        """:meth:`is_exception` over a numpy array of slopes at once.

        The columnar cubing walks judge a whole cuboid through this, so a
        subclass that overrides one of the two must override the other.
        """
        return abs(slopes) >= self.threshold_for(coord)

    def exceptions(self, columns):
        """The exceptional rows of a cuboid's columns
        (:class:`~repro.cube.cuboid.CuboidColumns`), in row order."""
        return columns.take(
            np.flatnonzero(self.exception_mask(columns.isbs.slope, columns.coord))
        )


class GlobalSlopeThreshold(ExceptionPolicy):
    """One threshold for the whole cube."""

    def __init__(self, threshold: float) -> None:
        if threshold < 0:
            raise CubingError(f"threshold must be non-negative, got {threshold}")
        self.threshold = float(threshold)

    def threshold_for(self, coord: Coord) -> float:
        return self.threshold

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GlobalSlopeThreshold({self.threshold:g})"


class PerCuboidSlopeThreshold(ExceptionPolicy):
    """Per-cuboid thresholds with a default for unlisted cuboids."""

    def __init__(
        self, default: float, overrides: Mapping[Coord, float] | None = None
    ) -> None:
        if default < 0:
            raise CubingError(f"default threshold must be non-negative")
        self.default = float(default)
        self.overrides = {
            tuple(k): float(v) for k, v in (overrides or {}).items()
        }
        for coord, value in self.overrides.items():
            if value < 0:
                raise CubingError(
                    f"threshold for cuboid {coord} must be non-negative"
                )

    def threshold_for(self, coord: Coord) -> float:
        return self.overrides.get(tuple(coord), self.default)


class PerDimensionLevelThreshold(ExceptionPolicy):
    """Thresholds attached to ``(dimension, level)`` pairs.

    The paper allows a threshold "for each dimension level d"; a cuboid
    touches one level per dimension, so the cuboid's effective threshold
    combines the per-(dimension, level) values — by default with ``max``
    (the strictest interpretation: a cell is exceptional only if it clears
    the bar of its most demanding dimension level).
    """

    def __init__(
        self,
        default: float,
        levels: Mapping[tuple[int, int], float],
        combine: Callable[[Iterable[float]], float] = max,
    ) -> None:
        if default < 0:
            raise CubingError("default threshold must be non-negative")
        self.default = float(default)
        self.levels = {k: float(v) for k, v in levels.items()}
        self.combine = combine

    def threshold_for(self, coord: Coord) -> float:
        values = [
            self.levels.get((d, level), self.default)
            for d, level in enumerate(coord)
        ]
        if not values:
            return self.default
        return self.combine(values)


def two_point_isb(previous: ISB, current: ISB) -> ISB:
    """Regression "between two points": previous vs current window.

    The paper's second exception flavour compares "the current cell (such as
    the current quarter) vs. the previous one".  We fit the line through the
    two windows' mean points ``(t_mean_prev, z_mean_prev)`` and
    ``(t_mean_cur, z_mean_cur)`` — both exactly recoverable from the ISBs —
    over the combined interval.  Slope-based policies then apply unchanged.
    """
    if not previous.adjacent_before(current):
        raise CubingError(
            f"windows {previous.interval} and {current.interval} are not "
            "adjacent; cannot form a current-vs-previous regression"
        )
    t_prev = (previous.t_b + previous.t_e) / 2.0
    t_cur = (current.t_b + current.t_e) / 2.0
    slope = (current.mean - previous.mean) / (t_cur - t_prev)
    base = previous.mean - slope * t_prev
    return ISB(previous.t_b, current.t_e, base, slope)


def two_point_columns(previous: ISBColumns, current: ISBColumns) -> ISBColumns:
    """:func:`two_point_isb` down the rows of two window batches at once.

    Row ``i`` of the result is ``two_point_isb(previous.row(i),
    current.row(i))`` to the bit: the same IEEE operations in the same
    order, as array expressions.
    """
    if len(previous) and previous.t_e[0] + 1 != current.t_b[0]:
        raise CubingError(
            f"windows {(int(previous.t_b[0]), int(previous.t_e[0]))} and "
            f"{(int(current.t_b[0]), int(current.t_e[0]))} are not "
            "adjacent; cannot form a current-vs-previous regression"
        )
    t_prev = (previous.t_b + previous.t_e) / 2.0
    t_cur = (current.t_b + current.t_e) / 2.0
    mean_prev = previous.base + previous.slope * t_prev
    mean_cur = current.base + current.slope * t_cur
    slope = (mean_cur - mean_prev) / (t_cur - t_prev)
    base = mean_prev - slope * t_prev
    return ISBColumns(previous.t_b, current.t_e, base, slope)


def calibrate_threshold(
    slopes: Sequence[float] | Iterable[float], target_rate: float
) -> float:
    """Threshold making about ``target_rate`` of the given cells exceptional.

    ``slopes`` are the (signed) slopes of a representative cell population —
    the benchmarks use the intermediate-cuboid cells of a full
    materialization.  ``target_rate`` is a fraction in (0, 1]; the returned
    threshold makes ``|slope| >= threshold`` hold for roughly the requested
    fraction (exactly, up to ties, for the calibration population).

    The threshold is placed strictly *between* two distinct population
    values (the midpoint below the selected quantile sample) rather than on
    a sample itself, so that the float-level noise of different aggregation
    orders cannot flip a boundary cell's verdict between algorithms.
    """
    abs_slopes = sorted(abs(float(s)) for s in slopes)
    if not abs_slopes:
        raise CubingError("cannot calibrate a threshold on zero cells")
    if not 0.0 < target_rate <= 1.0:
        raise CubingError(
            f"target_rate must be in (0, 1], got {target_rate}"
        )
    if target_rate == 1.0:
        return 0.0
    # The "lower" quantile: the sample at floor((n-1) * q) of the sorted
    # population — the same element numpy's method="lower" selects, so the
    # scalar and numpy builds calibrate to bit-identical thresholds.
    position = (len(abs_slopes) - 1) * (1.0 - target_rate)
    pivot = abs_slopes[math.floor(position)]
    below = [s for s in abs_slopes if s < pivot]
    if not below:
        return pivot / 2.0 if pivot > 0 else 0.0
    return (pivot + max(below)) / 2.0
