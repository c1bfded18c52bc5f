"""Irregular time ticks (Section 6.2's general stream case)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.regression.basis import linear_design
from repro.regression.multiple import SufficientStats, fit_multiple


class TestIrregularTicks:
    def test_fit_matches_polyfit_on_irregular_grid(self):
        rng = np.random.default_rng(8)
        ticks = np.sort(rng.choice(np.arange(1000), size=40, replace=False))
        values = 2.0 + 0.03 * ticks + rng.normal(0, 0.5, size=40)
        stats = SufficientStats.of_points(zip(ticks, values))
        fit = stats.fit()
        slope_np, base_np = np.polyfit(ticks.astype(float), values, 1)
        assert math.isclose(fit.theta[1], slope_np, rel_tol=1e-9)
        assert math.isclose(fit.theta[0], base_np, rel_tol=1e-9)

    def test_distributed_merge_of_irregular_batches(self):
        """Two sensors with interleaved, gappy timestamps merge exactly."""
        rng = np.random.default_rng(9)
        all_points = [
            (float(t), 1.0 + 0.05 * t + float(rng.normal(0, 0.2)))
            for t in sorted(rng.choice(np.arange(500), 60, replace=False))
        ]
        a = SufficientStats.of_points(all_points[::2])
        b = SufficientStats.of_points(all_points[1::2])
        merged = a.merge_time(b).fit()
        direct = fit_multiple(
            [((t,), z) for t, z in all_points], linear_design()
        )
        for got, want in zip(merged.theta, direct.theta):
            assert math.isclose(got, want, rel_tol=1e-9)
        assert merged.rss is not None and direct.rss is not None
        assert math.isclose(merged.rss, direct.rss, rel_tol=1e-6)

    def test_no_interval_tracked(self):
        stats = SufficientStats.of_points([(3.0, 1.0), (100.0, 2.0)])
        assert stats.t_b is None and stats.t_e is None

    def test_to_isb_refused_without_interval(self):
        from repro.errors import AggregationError

        stats = SufficientStats.of_points([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(AggregationError):
            stats.to_isb()

    def test_duplicate_ticks_allowed(self):
        """Several readings at one instant are legitimate observations."""
        stats = SufficientStats.of_points(
            [(0.0, 1.0), (0.0, 3.0), (1.0, 2.0), (1.0, 4.0)]
        )
        fit = stats.fit()
        # OLS through per-tick means (2.0 at t=0, 3.0 at t=1).
        assert math.isclose(fit.theta[1], 1.0, rel_tol=1e-9)
        assert math.isclose(fit.theta[0], 2.0, rel_tol=1e-9)
