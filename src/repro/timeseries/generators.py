"""Synthetic time-series generators used by examples, tests and benchmarks.

All generators are deterministic given a :class:`numpy.random.Generator` (or
an integer seed) and return :class:`~repro.timeseries.series.TimeSeries`
objects.  They model the stream shapes the paper's motivating applications
talk about: steady trends with noise (power usage drift), daily seasonality,
random walks (financial series) and change-points (the "dramatic changes of
situations" the exception framework is meant to flag).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EmptySeriesError
from repro.timeseries.series import TimeSeries

__all__ = [
    "rng_of",
    "trend_series",
    "seasonal_series",
    "random_walk_series",
    "changepoint_series",
    "bundle_of_trends",
]


def rng_of(seed: int | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _require_positive_length(n: int) -> None:
    if n <= 0:
        raise EmptySeriesError(f"series length must be positive, got {n}")


def trend_series(
    n: int,
    base: float,
    slope: float,
    noise: float = 0.0,
    t_b: int = 0,
    seed: int | np.random.Generator = 0,
) -> TimeSeries:
    """Linear trend ``base + slope*t`` plus Gaussian noise of std ``noise``."""
    _require_positive_length(n)
    rng = rng_of(seed)
    t = np.arange(t_b, t_b + n, dtype=float)
    z = base + slope * t
    if noise > 0:
        z = z + rng.normal(0.0, noise, size=n)
    return TimeSeries(t_b, tuple(z.tolist()))


def seasonal_series(
    n: int,
    base: float,
    amplitude: float,
    period: int,
    slope: float = 0.0,
    noise: float = 0.0,
    t_b: int = 0,
    seed: int | np.random.Generator = 0,
) -> TimeSeries:
    """Sinusoidal seasonality on top of an optional trend."""
    _require_positive_length(n)
    if period <= 0:
        raise EmptySeriesError(f"period must be positive, got {period}")
    rng = rng_of(seed)
    t = np.arange(t_b, t_b + n, dtype=float)
    z = base + slope * t + amplitude * np.sin(2.0 * math.pi * t / period)
    if noise > 0:
        z = z + rng.normal(0.0, noise, size=n)
    return TimeSeries(t_b, tuple(z.tolist()))


def random_walk_series(
    n: int,
    start: float = 0.0,
    step_std: float = 1.0,
    drift: float = 0.0,
    t_b: int = 0,
    seed: int | np.random.Generator = 0,
) -> TimeSeries:
    """Gaussian random walk with optional drift."""
    _require_positive_length(n)
    rng = rng_of(seed)
    steps = rng.normal(drift, step_std, size=n - 1) if n > 1 else np.array([])
    z = start + np.concatenate([[0.0], np.cumsum(steps)])
    return TimeSeries(t_b, tuple(z.tolist()))


def changepoint_series(
    n: int,
    base: float,
    slope_before: float,
    slope_after: float,
    change_at: int,
    noise: float = 0.0,
    t_b: int = 0,
    seed: int | np.random.Generator = 0,
) -> TimeSeries:
    """Piecewise-linear series whose slope changes at tick ``change_at``.

    The series is continuous at the change point.  This is the canonical
    "unusual change of trend" the o-layer analyst is watching for.
    """
    _require_positive_length(n)
    if not t_b <= change_at <= t_b + n - 1:
        raise EmptySeriesError(
            f"change_at={change_at} outside series interval"
        )
    rng = rng_of(seed)
    t = np.arange(t_b, t_b + n, dtype=float)
    before = base + slope_before * (t - t_b)
    level_at_change = base + slope_before * (change_at - t_b)
    after = level_at_change + slope_after * (t - change_at)
    z = np.where(t < change_at, before, after)
    if noise > 0:
        z = z + rng.normal(0.0, noise, size=n)
    return TimeSeries(t_b, tuple(z.tolist()))


def bundle_of_trends(
    count: int,
    n: int,
    base_range: tuple[float, float] = (0.0, 1.0),
    slope_range: tuple[float, float] = (-0.05, 0.05),
    noise: float = 0.05,
    t_b: int = 0,
    seed: int | np.random.Generator = 0,
) -> list[TimeSeries]:
    """A bundle of independent noisy trends (one per m-layer stream).

    Bases and slopes are drawn uniformly from the given ranges.  Used to
    fabricate "100,000 merged m-layer data streams" style inputs.
    """
    if count <= 0:
        raise EmptySeriesError(f"bundle count must be positive, got {count}")
    rng = rng_of(seed)
    bases = rng.uniform(*base_range, size=count)
    slopes = rng.uniform(*slope_range, size=count)
    return [
        trend_series(n, float(b), float(s), noise=noise, t_b=t_b, seed=rng)
        for b, s in zip(bases, slopes)
    ]
