"""Tests for the inverse aggregation operations (subtract / split)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.regression.aggregation import (
    merge_standard,
    merge_time_pair,
    split_time,
    subtract_standard,
)
from repro.regression.isb import ISB, isb_of_series

values_st = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


class TestSubtractStandard:
    def test_removes_one_child_exactly(self):
        rng = np.random.default_rng(0)
        s1 = rng.normal(0, 1, size=12).tolist()
        s2 = rng.normal(0, 1, size=12).tolist()
        both = merge_standard([isb_of_series(s1), isb_of_series(s2)])
        remaining = subtract_standard(both, isb_of_series(s1))
        direct = isb_of_series(s2)
        assert math.isclose(remaining.base, direct.base, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(remaining.slope, direct.slope, rel_tol=1e-9, abs_tol=1e-12)

    def test_interval_mismatch_rejected(self):
        with pytest.raises(AggregationError):
            subtract_standard(ISB(0, 9, 1, 1), ISB(0, 8, 1, 1))

    def test_merge_subtract_round_trip(self):
        a = ISB(0, 9, 1.5, 0.2)
        b = ISB(0, 9, -0.5, 0.05)
        merged = merge_standard([a, b])
        assert subtract_standard(merged, b) == a


class TestSplitTime:
    def test_recovers_suffix_exactly(self):
        rng = np.random.default_rng(1)
        left_raw = rng.normal(2, 0.5, size=7).tolist()
        right_raw = rng.normal(1, 0.5, size=9).tolist()
        left = isb_of_series(left_raw, t_b=0)
        right = isb_of_series(right_raw, t_b=7)
        parent = merge_time_pair(left, right)
        recovered = split_time(parent, left)
        assert recovered.interval == right.interval
        assert math.isclose(recovered.base, right.base, rel_tol=1e-8, abs_tol=1e-10)
        assert math.isclose(recovered.slope, right.slope, rel_tol=1e-8, abs_tol=1e-10)

    def test_single_tick_suffix(self):
        left = isb_of_series([1.0, 2.0, 3.0], t_b=0)
        right = isb_of_series([5.0], t_b=3)
        parent = merge_time_pair(left, right)
        recovered = split_time(parent, left)
        assert recovered.interval == (3, 3)
        assert math.isclose(recovered.base, 5.0, rel_tol=1e-9)
        assert recovered.slope == 0.0

    def test_non_prefix_rejected(self):
        parent = ISB(0, 9, 1.0, 0.1)
        with pytest.raises(AggregationError):
            split_time(parent, ISB(1, 4, 1.0, 0.1))  # wrong start
        with pytest.raises(AggregationError):
            split_time(parent, ISB(0, 9, 1.0, 0.1))  # not proper

    @given(
        values=st.lists(values_st, min_size=2, max_size=40),
        cut=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_inverts_merge_for_any_partition(self, values, cut):
        k = cut.draw(st.integers(min_value=1, max_value=len(values) - 1))
        left = isb_of_series(values[:k], t_b=0)
        right = isb_of_series(values[k:], t_b=k)
        parent = merge_time_pair(left, right)
        recovered = split_time(parent, left)
        scale = max(1.0, abs(right.base), abs(right.slope))
        assert abs(recovered.base - right.base) <= 1e-6 * scale
        assert abs(recovered.slope - right.slope) <= 1e-6 * scale


class TestSlidingWindow:
    def test_matches_direct_merge_at_every_step(self):
        from repro.regression.aggregation import merge_time
        from repro.stream.sliding import SlidingWindowRegression

        rng = np.random.default_rng(3)
        quarters = [
            isb_of_series(rng.normal(1, 0.3, size=4).tolist(), t_b=4 * i)
            for i in range(20)
        ]
        window = SlidingWindowRegression(window_segments=5)
        held: list[ISB] = []
        for quarter in quarters:
            window.push(quarter)
            held.append(quarter)
            held = held[-5:]
            direct = merge_time(held)
            got = window.window
            assert got.interval == direct.interval
            assert math.isclose(got.base, direct.base, rel_tol=1e-7, abs_tol=1e-9)
            assert math.isclose(got.slope, direct.slope, rel_tol=1e-7, abs_tol=1e-9)

    def test_fill_state(self):
        from repro.stream.sliding import SlidingWindowRegression

        window = SlidingWindowRegression(3)
        assert len(window) == 0
        with pytest.raises(Exception):
            _ = window.window
        for i in range(3):
            window.push(ISB(i, i, float(i), 0.0))
        assert window.is_full
        assert window.span == (0, 2)
        window.push(ISB(3, 3, 3.0, 0.0))
        assert window.span == (1, 3)

    def test_gap_rejected(self):
        from repro.errors import TiltFrameError
        from repro.stream.sliding import SlidingWindowRegression

        window = SlidingWindowRegression(3)
        window.push(ISB(0, 1, 1.0, 0.0))
        with pytest.raises(TiltFrameError):
            window.push(ISB(3, 4, 1.0, 0.0))

    def test_bad_window_size(self):
        from repro.errors import TiltFrameError
        from repro.stream.sliding import SlidingWindowRegression

        with pytest.raises(TiltFrameError):
            SlidingWindowRegression(0)

    def test_long_run_numerical_stability(self):
        """Thousands of O(1) advances stay within float tolerance of the
        direct merge (error does not accumulate unboundedly)."""
        from repro.regression.aggregation import merge_time
        from repro.stream.sliding import SlidingWindowRegression

        rng = np.random.default_rng(4)
        window = SlidingWindowRegression(8)
        held: list[ISB] = []
        for i in range(2000):
            seg = isb_of_series(
                rng.normal(5, 1, size=3).tolist(), t_b=3 * i
            )
            window.push(seg)
            held.append(seg)
        direct = merge_time(held[-8:])
        got = window.window
        assert math.isclose(got.base, direct.base, rel_tol=1e-6, abs_tol=1e-8)
        assert math.isclose(got.slope, direct.slope, rel_tol=1e-6, abs_tol=1e-8)
