"""Tests for the LSE linear fit substrate (Lemma 3.1, Lemma 3.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import DegenerateFitError, EmptySeriesError, IntervalError
from repro.regression.linear import (
    RunningRegression,
    fit_series,
    interval_length,
    interval_mean_t,
    sum_of_series,
    svs,
)


class TestIntervalHelpers:
    def test_interval_length_single_tick(self):
        assert interval_length(5, 5) == 1

    def test_interval_length_span(self):
        assert interval_length(0, 9) == 10

    def test_interval_length_rejects_empty(self):
        with pytest.raises(IntervalError):
            interval_length(3, 2)

    def test_interval_mean_is_midpoint(self):
        assert interval_mean_t(0, 9) == 4.5
        assert interval_mean_t(10, 19) == 14.5

    def test_mean_rejects_empty(self):
        with pytest.raises(IntervalError):
            interval_mean_t(1, 0)


class TestSVS:
    """Lemma 3.2: sum of (t - mean)^2 = (n^3 - n) / 12, start-independent."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 100])
    def test_closed_form_matches_direct_sum(self, n):
        direct = sum((t - (n - 1) / 2) ** 2 for t in range(n))
        assert math.isclose(svs(0, n - 1), direct, rel_tol=1e-12)

    @pytest.mark.parametrize("start", [-50, 0, 7, 1000])
    def test_start_independence(self, start):
        assert svs(start, start + 9) == svs(0, 9)

    def test_single_point_is_zero(self):
        assert svs(4, 4) == 0.0


class TestFitSeries:
    def test_perfect_line_recovered_exactly(self):
        values = [2.0 + 0.5 * t for t in range(20)]
        fit = fit_series(values)
        assert math.isclose(fit.base, 2.0, abs_tol=1e-12)
        assert math.isclose(fit.slope, 0.5, abs_tol=1e-12)
        assert math.isclose(fit.rss, 0.0, abs_tol=1e-9)

    def test_perfect_line_with_offset_start(self):
        values = [1.0 - 0.25 * t for t in range(100, 120)]
        fit = fit_series(values, t_b=100)
        assert math.isclose(fit.base, 1.0, abs_tol=1e-10)
        assert math.isclose(fit.slope, -0.25, abs_tol=1e-12)

    def test_matches_numpy_polyfit(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, size=50)
        fit = fit_series(values, t_b=17)
        t = np.arange(17, 67)
        slope_np, base_np = np.polyfit(t, values, 1)
        assert math.isclose(fit.slope, slope_np, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(fit.base, base_np, rel_tol=1e-9, abs_tol=1e-12)

    def test_example2_series_fit(self, example2_series):
        """Fig 1: the Example 2 series has a mild upward trend."""
        fit = example2_series.fit()
        assert fit.t_b == 0 and fit.t_e == 9
        # Cross-checked against numpy.polyfit on the printed values.
        t = np.arange(10.0)
        z = np.array(example2_series.values)
        slope_np, base_np = np.polyfit(t, z, 1)
        assert math.isclose(fit.slope, slope_np, rel_tol=1e-9)
        assert math.isclose(fit.base, base_np, rel_tol=1e-9)
        assert fit.slope > 0

    def test_single_point_flat(self):
        fit = fit_series([3.5], t_b=8)
        assert fit.base == 3.5
        assert fit.slope == 0.0
        assert fit.t_b == fit.t_e == 8

    def test_empty_raises(self):
        with pytest.raises(EmptySeriesError):
            fit_series([])

    def test_mean_and_total_recovered(self):
        values = [1.0, 4.0, 2.0, 7.0]
        fit = fit_series(values)
        assert math.isclose(fit.mean, sum(values) / 4, rel_tol=1e-12)
        assert math.isclose(fit.total, sum(values), rel_tol=1e-12)

    def test_rss_nonnegative_and_matches_residuals(self):
        values = [0.0, 2.0, 1.0, 3.0, 2.5]
        fit = fit_series(values)
        direct = sum(
            (v - fit.predict(t)) ** 2 for t, v in enumerate(values)
        )
        assert math.isclose(fit.rss, direct, rel_tol=1e-10)
        assert fit.rss >= 0

    def test_predict_line_evaluation(self):
        fit = fit_series([0.0, 1.0, 2.0])
        assert math.isclose(fit.predict(10), 10.0, abs_tol=1e-10)


class TestSumOfSeries:
    def test_pointwise_sum(self):
        assert sum_of_series([[1, 2], [3, 4]]) == [4.0, 6.0]

    def test_single_series_identity(self):
        assert sum_of_series([[1.5, 2.5]]) == [1.5, 2.5]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(IntervalError):
            sum_of_series([[1, 2], [3]])

    def test_rejects_empty_collection(self):
        with pytest.raises(EmptySeriesError):
            sum_of_series([])


class TestRunningRegression:
    def test_matches_batch_fit(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5, 2, size=30)
        rr = RunningRegression()
        rr.extend(10, values)
        batch = fit_series(values, t_b=10)
        inc = rr.fit()
        assert math.isclose(inc.base, batch.base, rel_tol=1e-9)
        assert math.isclose(inc.slope, batch.slope, rel_tol=1e-9)
        assert math.isclose(inc.rss, batch.rss, rel_tol=1e-6, abs_tol=1e-9)

    def test_out_of_order_insertion_is_order_free(self):
        rr1 = RunningRegression()
        rr2 = RunningRegression()
        points = [(0, 1.0), (1, 2.0), (2, 0.5), (3, 3.0)]
        for t, z in points:
            rr1.add(t, z)
        for t, z in reversed(points):
            rr2.add(t, z)
        f1, f2 = rr1.fit(), rr2.fit()
        assert math.isclose(f1.base, f2.base, rel_tol=1e-12)
        assert math.isclose(f1.slope, f2.slope, rel_tol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySeriesError):
            RunningRegression().fit()

    def test_gap_raises_degenerate(self):
        rr = RunningRegression()
        rr.add(0, 1.0)
        rr.add(2, 2.0)  # tick 1 missing
        with pytest.raises(DegenerateFitError):
            rr.fit()

    def test_single_observation(self):
        rr = RunningRegression()
        rr.add(4, 2.5)
        fit = rr.fit()
        assert fit.base == 2.5 and fit.slope == 0.0

    def test_reset_clears_state(self):
        rr = RunningRegression()
        rr.add(0, 1.0)
        rr.reset()
        assert rr.is_empty
        with pytest.raises(EmptySeriesError):
            rr.fit()

    def test_len_and_bounds(self):
        rr = RunningRegression()
        rr.extend(5, [1.0, 2.0, 3.0])
        assert len(rr) == 3
        assert rr.t_min == 5 and rr.t_max == 7
        assert math.isclose(rr.mean, 2.0)

    def test_bounds_raise_when_empty(self):
        rr = RunningRegression()
        with pytest.raises(EmptySeriesError):
            _ = rr.t_min
        with pytest.raises(EmptySeriesError):
            _ = rr.mean


class TestFitWindow:
    def test_full_window_matches_fit(self):
        rr = RunningRegression()
        rr.extend(0, [1.0, 2.0, 3.0, 4.0])
        exact = rr.fit()
        window = rr.fit_window(0, 3)
        assert math.isclose(window.base, exact.base, rel_tol=1e-12)
        assert math.isclose(window.slope, exact.slope, rel_tol=1e-12)

    def test_empty_window_is_flat_zero(self):
        fit = RunningRegression().fit_window(10, 19)
        assert fit.base == 0.0 and fit.slope == 0.0
        assert fit.t_b == 10 and fit.t_e == 19

    def test_partial_readings_fit_over_recorded_points(self):
        rr = RunningRegression()
        rr.add(2, 1.0)
        rr.add(4, 3.0)  # slope 1 through the two points
        fit = rr.fit_window(0, 5)
        assert math.isclose(fit.slope, 1.0, rel_tol=1e-12)
        assert fit.t_b == 0 and fit.t_e == 5

    def test_single_reading_is_flat(self):
        rr = RunningRegression()
        rr.add(3, 7.0)
        fit = rr.fit_window(0, 5)
        assert fit.base == 7.0 and fit.slope == 0.0

    def test_rejects_points_outside_window(self):
        rr = RunningRegression()
        rr.add(9, 1.0)
        with pytest.raises(IntervalError):
            rr.fit_window(0, 5)

    def test_rejects_empty_window(self):
        with pytest.raises(IntervalError):
            RunningRegression().fit_window(5, 4)
