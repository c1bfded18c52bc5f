"""Tests for the synthetic series generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import EmptySeriesError
from repro.timeseries.generators import (
    bundle_of_trends,
    changepoint_series,
    random_walk_series,
    rng_of,
    seasonal_series,
    trend_series,
)


class TestRngOf:
    def test_int_seed(self):
        assert isinstance(rng_of(3), np.random.Generator)

    def test_pass_through(self):
        rng = np.random.default_rng(0)
        assert rng_of(rng) is rng


class TestTrendSeries:
    def test_noiseless_exact(self):
        s = trend_series(10, base=2.0, slope=0.5, noise=0.0)
        fit = s.fit()
        assert math.isclose(fit.base, 2.0, abs_tol=1e-9)
        assert math.isclose(fit.slope, 0.5, abs_tol=1e-9)

    def test_seeded_determinism(self):
        a = trend_series(20, 1.0, 0.1, noise=0.3, seed=9)
        b = trend_series(20, 1.0, 0.1, noise=0.3, seed=9)
        assert a.values == b.values

    def test_noise_recovers_slope_approximately(self):
        s = trend_series(2000, 0.0, 0.25, noise=1.0, seed=1)
        assert abs(s.fit().slope - 0.25) < 0.01

    def test_rejects_nonpositive_length(self):
        with pytest.raises(EmptySeriesError):
            trend_series(0, 0.0, 0.0)


class TestSeasonalSeries:
    def test_period_mean_matches_base(self):
        s = seasonal_series(100, base=5.0, amplitude=2.0, period=10)
        assert abs(s.mean - 5.0) < 1e-6

    def test_trend_plus_season_slope(self):
        s = seasonal_series(200, base=0.0, amplitude=1.0, period=20, slope=0.1)
        assert abs(s.fit().slope - 0.1) < 0.01

    def test_rejects_bad_period(self):
        with pytest.raises(EmptySeriesError):
            seasonal_series(10, 0.0, 1.0, period=0)


class TestRandomWalk:
    def test_starts_at_start(self):
        s = random_walk_series(10, start=4.0, seed=2)
        assert s.values[0] == 4.0

    def test_single_point(self):
        s = random_walk_series(1, start=1.5)
        assert s.values == (1.5,)

    def test_drift_dominates_long_run(self):
        s = random_walk_series(5000, step_std=0.1, drift=0.05, seed=3)
        assert s.values[-1] > 100


class TestChangepoint:
    def test_continuous_at_change(self):
        s = changepoint_series(
            20, base=1.0, slope_before=0.0, slope_after=1.0, change_at=10
        )
        assert math.isclose(s.at(9), 1.0, abs_tol=1e-9)
        assert math.isclose(s.at(10), 1.0, abs_tol=1e-9)
        assert math.isclose(s.at(11), 2.0, abs_tol=1e-9)

    def test_halves_have_expected_slopes(self):
        s = changepoint_series(
            40, base=0.0, slope_before=0.1, slope_after=-0.3, change_at=20
        )
        before = s.slice(0, 19).fit()
        after = s.slice(20, 39).fit()
        assert math.isclose(before.slope, 0.1, abs_tol=1e-9)
        assert math.isclose(after.slope, -0.3, abs_tol=1e-9)

    def test_change_at_bounds_checked(self):
        with pytest.raises(EmptySeriesError):
            changepoint_series(10, 0.0, 0.0, 1.0, change_at=50)


class TestBundle:
    def test_count_and_length(self):
        bundle = bundle_of_trends(7, 12, seed=4)
        assert len(bundle) == 7
        assert all(len(s) == 12 for s in bundle)

    def test_deterministic(self):
        a = bundle_of_trends(3, 8, seed=5)
        b = bundle_of_trends(3, 8, seed=5)
        assert [s.values for s in a] == [s.values for s in b]

    def test_rejects_zero_count(self):
        with pytest.raises(EmptySeriesError):
            bundle_of_trends(0, 5)
