"""Tests for the Section 6.2 generalization: sufficient statistics / MLR."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import (
    AggregationError,
    DegenerateFitError,
    EmptySeriesError,
    IntervalError,
)
from repro.regression.basis import (
    exponential_design,
    linear_design,
    logarithmic_design,
    polynomial_design,
    spatio_temporal_design,
)
from repro.regression.isb import isb_of_series
from repro.regression.multiple import SufficientStats, fit_multiple


class TestLinearDesignEquivalence:
    """The sufficient statistics subsume the ISB for the linear design."""

    def test_fit_matches_isb(self):
        values = [0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56]
        stats = SufficientStats.of_series(values)
        isb = stats.to_isb()
        direct = isb_of_series(values)
        assert isb.interval == direct.interval
        assert math.isclose(isb.base, direct.base, rel_tol=1e-9)
        assert math.isclose(isb.slope, direct.slope, rel_tol=1e-9)

    def test_time_merge_matches_theorem33(self):
        rng = np.random.default_rng(1)
        left = rng.normal(0, 1, size=8).tolist()
        right = rng.normal(0, 1, size=12).tolist()
        merged = SufficientStats.of_series(left, 0).merge_time(
            SufficientStats.of_series(right, 8)
        )
        direct = isb_of_series(left + right)
        got = merged.to_isb()
        assert math.isclose(got.base, direct.base, rel_tol=1e-9)
        assert math.isclose(got.slope, direct.slope, rel_tol=1e-9)

    def test_standard_merge_matches_theorem32(self):
        rng = np.random.default_rng(2)
        s1 = rng.normal(0, 1, size=10).tolist()
        s2 = rng.normal(0, 1, size=10).tolist()
        merged = SufficientStats.of_series(s1).merge_standard(
            SufficientStats.of_series(s2)
        )
        direct = isb_of_series([a + b for a, b in zip(s1, s2)])
        got = merged.to_isb()
        assert math.isclose(got.base, direct.base, rel_tol=1e-9)
        assert math.isclose(got.slope, direct.slope, rel_tol=1e-9)


class TestGoodnessOfFitTracking:
    def test_rss_exact_for_time_merge(self):
        rng = np.random.default_rng(3)
        left = rng.normal(0, 1, size=9).tolist()
        right = rng.normal(0, 1, size=7).tolist()
        merged = SufficientStats.of_series(left, 0).merge_time(
            SufficientStats.of_series(right, 9)
        )
        fit = merged.fit()
        from repro.regression.linear import fit_series

        assert fit.rss is not None
        assert math.isclose(
            fit.rss, fit_series(left + right).rss, rel_tol=1e-6, abs_tol=1e-9
        )
        assert fit.r2 is not None and 0.0 <= fit.r2 <= 1.0

    def test_rss_flagged_invalid_after_standard_merge(self):
        s1 = SufficientStats.of_series([1.0, 2.0, 3.0])
        s2 = SufficientStats.of_series([2.0, 1.0, 2.0])
        merged = s1.merge_standard(s2)
        assert not merged.ztz_valid
        fit = merged.fit()
        assert fit.rss is None and fit.r2 is None

    def test_invalid_flag_propagates_through_time_merge(self):
        a = SufficientStats.of_series([1.0, 2.0], 0).merge_standard(
            SufficientStats.of_series([0.5, 0.5], 0)
        )
        b = SufficientStats.of_series([3.0, 4.0], 2)
        merged = a.merge_time(b)
        assert not merged.ztz_valid

    def test_perfect_fit_r2_is_one(self):
        stats = SufficientStats.of_series([1.0 + 0.5 * t for t in range(10)])
        fit = stats.fit()
        assert fit.r2 is not None and math.isclose(fit.r2, 1.0, abs_tol=1e-9)


class TestDesigns:
    def test_polynomial_recovers_coefficients(self):
        rng = np.random.default_rng(4)
        coeffs = (2.0, -0.3, 0.05)
        stats = SufficientStats(polynomial_design(2))
        for t in range(30):
            z = coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
            stats.add((float(t),), z)
        fit = stats.fit()
        for got, want in zip(fit.theta, coeffs):
            assert math.isclose(got, want, rel_tol=1e-7, abs_tol=1e-9)

    def test_logarithmic_recovers_coefficients(self):
        stats = SufficientStats(logarithmic_design())
        for t in range(1, 50):
            stats.add((float(t),), 3.0 + 1.5 * math.log(t + 1.0))
        fit = stats.fit()
        assert math.isclose(fit.theta[0], 3.0, rel_tol=1e-8)
        assert math.isclose(fit.theta[1], 1.5, rel_tol=1e-8)

    def test_exponential_recovers_coefficients(self):
        stats = SufficientStats(exponential_design(0.1))
        for t in range(20):
            stats.add((float(t),), 1.0 + 0.5 * math.exp(0.1 * t))
        fit = stats.fit()
        assert math.isclose(fit.theta[0], 1.0, rel_tol=1e-7)
        assert math.isclose(fit.theta[1], 0.5, rel_tol=1e-7)

    def test_spatio_temporal_recovers_coefficients(self):
        rng = np.random.default_rng(6)
        theta = (1.0, 0.2, -0.5, 0.3, 0.05)
        design = spatio_temporal_design()
        rows = []
        for _ in range(200):
            x = tuple(rng.uniform(0, 10, size=4))
            z = theta[0] + sum(c * v for c, v in zip(theta[1:], x))
            rows.append((x, z))
        fit = fit_multiple(rows, design)
        for got, want in zip(fit.theta, theta):
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-8)

    def test_time_merge_for_polynomial_design(self):
        """The general theory: disjoint-observation merge stays exact for
        non-linear bases too."""
        rng = np.random.default_rng(7)
        design = polynomial_design(2)
        all_rows = [
            ((float(t),), float(rng.normal(0, 1))) for t in range(24)
        ]
        a = SufficientStats(design)
        b = SufficientStats(design)
        for row in all_rows[:10]:
            a.add(*row)
        for row in all_rows[10:]:
            b.add(*row)
        merged = a.merge_time(b).fit()
        direct = fit_multiple(all_rows, design)
        for got, want in zip(merged.theta, direct.theta):
            assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-10)


class TestMergePreconditions:
    def test_design_mismatch_rejected(self):
        a = SufficientStats(linear_design())
        b = SufficientStats(polynomial_design(2))
        with pytest.raises(AggregationError):
            a.merge_time(b)

    def test_standard_merge_requires_same_n(self):
        a = SufficientStats.of_series([1.0, 2.0, 3.0])
        b = SufficientStats.of_series([1.0, 2.0])
        with pytest.raises(AggregationError):
            a.merge_standard(b)

    def test_standard_merge_requires_same_interval(self):
        a = SufficientStats.of_series([1.0, 2.0], t_b=0)
        b = SufficientStats.of_series([1.0, 2.0], t_b=5)
        with pytest.raises(AggregationError):
            a.merge_standard(b)

    def test_time_merge_requires_adjacency(self):
        a = SufficientStats.of_series([1.0, 2.0], t_b=0)
        b = SufficientStats.of_series([1.0, 2.0], t_b=5)
        with pytest.raises(IntervalError):
            a.merge_time(b)

    def test_merge_does_not_mutate_inputs(self):
        a = SufficientStats.of_series([1.0, 2.0], t_b=0)
        b = SufficientStats.of_series([3.0, 4.0], t_b=2)
        n_before = a.n
        a.merge_time(b)
        assert a.n == n_before and a.t_e == 1


class TestFitEdgeCases:
    def test_empty_fit_raises(self):
        with pytest.raises(EmptySeriesError):
            SufficientStats().fit()

    def test_singular_fit_raises(self):
        stats = SufficientStats(polynomial_design(3))
        stats.add((1.0,), 2.0)  # one point cannot fit four parameters
        with pytest.raises(DegenerateFitError):
            stats.fit()

    def test_to_isb_rejects_nonlinear_design(self):
        stats = SufficientStats(polynomial_design(2))
        stats.add((0.0,), 1.0)
        with pytest.raises(AggregationError):
            stats.to_isb()

    def test_stored_numbers_counts(self):
        assert SufficientStats(linear_design()).stored_numbers == 3 + 2 + 2 + 2
        assert SufficientStats(polynomial_design(2)).stored_numbers == 6 + 3 + 2 + 2


def test_predict_features_rejects_wrong_arity():
    """A wrong-length feature vector must raise, never silently truncate."""
    from repro.errors import AggregationError
    from repro.regression.multiple import fit_multiple, linear_design

    fit = fit_multiple(
        [((float(t),), 1.0 + 0.5 * t) for t in range(6)], linear_design()
    )
    assert fit.predict_features([1.0, 3.0]) == pytest.approx(2.5)
    with pytest.raises(AggregationError, match="entries for"):
        fit.predict_features([3.0])
