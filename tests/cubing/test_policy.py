"""Tests for exception policies and threshold calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cubing.policy import (
    GlobalSlopeThreshold,
    PerCuboidSlopeThreshold,
    PerDimensionLevelThreshold,
    calibrate_threshold,
    two_point_columns,
    two_point_isb,
)
from repro.errors import CubingError
from repro.regression.isb import ISB
from repro.regression.kernels import ISBColumns


class TestGlobalThreshold:
    def test_absolute_slope_judged(self):
        pol = GlobalSlopeThreshold(0.5)
        assert pol.is_exception(ISB(0, 9, 0.0, 0.6), (1, 1))
        assert pol.is_exception(ISB(0, 9, 0.0, -0.6), (1, 1))
        assert not pol.is_exception(ISB(0, 9, 0.0, 0.4), (1, 1))

    def test_boundary_inclusive(self):
        """The paper: exceptional if slope >= threshold."""
        pol = GlobalSlopeThreshold(0.5)
        assert pol.is_exception(ISB(0, 9, 0.0, 0.5), (1,))

    def test_zero_threshold_flags_everything(self):
        pol = GlobalSlopeThreshold(0.0)
        assert pol.is_exception(ISB(0, 9, 0.0, 0.0), (1,))

    def test_negative_threshold_rejected(self):
        with pytest.raises(CubingError):
            GlobalSlopeThreshold(-1.0)


class TestPerCuboidThreshold:
    def test_override_applies(self):
        pol = PerCuboidSlopeThreshold(0.5, {(1, 1): 0.1})
        isb = ISB(0, 9, 0.0, 0.2)
        assert pol.is_exception(isb, (1, 1))
        assert not pol.is_exception(isb, (2, 2))

    def test_negative_values_rejected(self):
        with pytest.raises(CubingError):
            PerCuboidSlopeThreshold(0.5, {(1, 1): -0.1})

    def test_threshold_for_default(self):
        pol = PerCuboidSlopeThreshold(0.3)
        assert pol.threshold_for((5, 5)) == 0.3


class TestPerDimensionLevelThreshold:
    def test_max_combine_default(self):
        pol = PerDimensionLevelThreshold(
            0.1, {(0, 1): 0.5, (1, 2): 0.2}
        )
        assert pol.threshold_for((1, 2)) == 0.5  # max(0.5, 0.2)
        assert pol.threshold_for((2, 2)) == 0.2  # max(default 0.1, 0.2)

    def test_min_combine(self):
        pol = PerDimensionLevelThreshold(
            0.4, {(0, 1): 0.5}, combine=min
        )
        assert pol.threshold_for((1, 1)) == 0.4  # min(0.5, default 0.4)


class TestTwoPointISB:
    def test_slope_through_window_means(self):
        prev = ISB(0, 3, 1.0, 0.0)  # mean 1.0 at t=1.5
        cur = ISB(4, 7, 3.0, 0.0)  # mean 3.0 at t=5.5
        change = two_point_isb(prev, cur)
        assert change.interval == (0, 7)
        assert math.isclose(change.slope, 0.5)  # (3-1)/(5.5-1.5)
        assert math.isclose(change.predict(1.5), 1.0)
        assert math.isclose(change.predict(5.5), 3.0)

    def test_requires_adjacency(self):
        with pytest.raises(CubingError):
            two_point_isb(ISB(0, 3, 1, 0), ISB(5, 8, 1, 0))

    def test_flat_windows_zero_change(self):
        prev = ISB(0, 3, 2.0, 0.0)
        cur = ISB(4, 7, 2.0, 0.0)
        assert two_point_isb(prev, cur).slope == 0.0


class TestTwoPointColumns:
    def test_every_row_is_two_point_isb_to_the_bit(self):
        rng = np.random.default_rng(3)
        for (pb, pe), (cb, ce) in [((0, 3), (4, 7)), ((10, 10), (11, 40))]:
            n = 200
            prev = ISBColumns.over(pb, pe, rng.normal(0, 1e3, n), rng.normal(0, 7, n))
            cur = ISBColumns.over(cb, ce, rng.normal(0, 1e3, n), rng.normal(0, 7, n))
            got = two_point_columns(prev, cur).to_isbs()
            assert got == [
                two_point_isb(p, c) for p, c in zip(prev.to_isbs(), cur.to_isbs())
            ]

    def test_requires_adjacency(self):
        one = np.ones(1)
        with pytest.raises(CubingError, match="not adjacent"):
            two_point_columns(
                ISBColumns.over(0, 3, one, one), ISBColumns.over(5, 8, one, one)
            )


class TestCalibration:
    def test_rate_hits_target_on_population(self):
        rng = np.random.default_rng(0)
        slopes = rng.laplace(0, 0.1, size=10_000)
        for rate in (0.001, 0.01, 0.1, 0.5):
            tau = calibrate_threshold(slopes, rate)
            achieved = float(np.mean(np.abs(slopes) >= tau))
            assert abs(achieved - rate) < 0.01

    def test_full_rate_is_zero_threshold(self):
        assert calibrate_threshold([0.1, 0.2], 1.0) == 0.0

    def test_empty_population_rejected(self):
        with pytest.raises(CubingError):
            calibrate_threshold([], 0.1)

    def test_bad_rate_rejected(self):
        with pytest.raises(CubingError):
            calibrate_threshold([0.1], 0.0)
        with pytest.raises(CubingError):
            calibrate_threshold([0.1], 1.5)

    def test_signs_ignored(self):
        tau_pos = calibrate_threshold([0.1, 0.2, 0.3, 0.4], 0.5)
        tau_mix = calibrate_threshold([-0.1, 0.2, -0.3, 0.4], 0.5)
        assert tau_pos == tau_mix
