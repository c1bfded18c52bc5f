"""Tests for Theorems 3.2 / 3.3 — including the paper's golden captions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.regression.aggregation import (
    merge_standard,
    merge_time,
    merge_time_pair,
    weighted_merge_standard,
)
from repro.regression.isb import ISB, isb_of_series
from repro.regression.linear import fit_series, sum_of_series


class TestTheorem32StandardDimension:
    def test_two_children_bases_and_slopes_add(self):
        a = ISB(0, 19, 0.5, 0.03)
        b = ISB(0, 19, 0.3, 0.05)
        merged = merge_standard([a, b])
        assert merged.interval == (0, 19)
        assert math.isclose(merged.base, 0.8)
        assert math.isclose(merged.slope, 0.08)

    def test_matches_direct_fit_of_summed_series(self):
        rng = np.random.default_rng(21)
        series = [rng.normal(0, 1, size=25).tolist() for _ in range(4)]
        isbs = [isb_of_series(s, t_b=5) for s in series]
        merged = merge_standard(isbs)
        direct = fit_series(sum_of_series(series), t_b=5)
        assert math.isclose(merged.base, direct.base, rel_tol=1e-9)
        assert math.isclose(merged.slope, direct.slope, rel_tol=1e-9)

    def test_figure2_caption_values(self):
        """Fig 2: the paper's printed ISBs satisfy Theorem 3.2."""
        z1 = ISB(0, 19, 0.540995, 0.0318379)
        z2 = ISB(0, 19, 0.294875, 0.0493375)
        z = merge_standard([z1, z2])
        assert math.isclose(z.base, 0.83587, abs_tol=5e-6)
        assert math.isclose(z.slope, 0.0811754, abs_tol=5e-7)

    def test_single_child_identity(self):
        isb = ISB(2, 9, 1.0, -0.5)
        assert merge_standard([isb]) == isb

    def test_many_children_associativity(self):
        children = [ISB(0, 9, i * 0.1, i * 0.01) for i in range(1, 8)]
        left = merge_standard(children)
        right = merge_standard(
            [merge_standard(children[:3]), merge_standard(children[3:])]
        )
        assert math.isclose(left.base, right.base, rel_tol=1e-12)
        assert math.isclose(left.slope, right.slope, rel_tol=1e-12)

    def test_rejects_interval_mismatch(self):
        with pytest.raises(AggregationError):
            merge_standard([ISB(0, 9, 0, 0), ISB(0, 8, 0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(AggregationError):
            merge_standard([])

    def test_weighted_merge_matches_scaled_sum(self):
        s1 = [1.0, 2.0, 1.5, 2.5]
        s2 = [0.5, 0.25, 1.0, 0.75]
        w = [0.3, 0.7]
        direct = fit_series([w[0] * a + w[1] * b for a, b in zip(s1, s2)])
        merged = weighted_merge_standard(
            [isb_of_series(s1), isb_of_series(s2)], w
        )
        assert math.isclose(merged.base, direct.base, rel_tol=1e-12)
        assert math.isclose(merged.slope, direct.slope, rel_tol=1e-12)

    def test_weighted_rejects_length_mismatch(self):
        with pytest.raises(AggregationError):
            weighted_merge_standard([ISB(0, 3, 0, 0)], [0.5, 0.5])


class TestTheorem33TimeDimension:
    def test_figure3_caption_values(self):
        """Fig 3: the paper's printed ISBs satisfy Theorem 3.3."""
        first = ISB(0, 9, 0.582995, 0.0240189)
        second = ISB(10, 19, 0.459046, 0.047474)
        merged = merge_time_pair(first, second)
        assert merged.interval == (0, 19)
        assert math.isclose(merged.base, 0.509033, abs_tol=5e-6)
        assert math.isclose(merged.slope, 0.0431806, abs_tol=5e-7)

    def test_matches_direct_fit_of_concatenation(self):
        rng = np.random.default_rng(9)
        left = rng.normal(1, 0.4, size=10).tolist()
        right = rng.normal(2, 0.4, size=10).tolist()
        merged = merge_time(
            [isb_of_series(left, t_b=0), isb_of_series(right, t_b=10)]
        )
        direct = fit_series(left + right, t_b=0)
        assert math.isclose(merged.base, direct.base, rel_tol=1e-9)
        assert math.isclose(merged.slope, direct.slope, rel_tol=1e-9)

    def test_unequal_piece_lengths(self):
        rng = np.random.default_rng(10)
        pieces = [3, 7, 2, 8]
        series: list[list[float]] = []
        isbs = []
        t = 0
        for n in pieces:
            s = rng.normal(0, 1, size=n).tolist()
            series.append(s)
            isbs.append(isb_of_series(s, t_b=t))
            t += n
        merged = merge_time(isbs)
        flat = [v for s in series for v in s]
        direct = fit_series(flat)
        assert merged.interval == (0, len(flat) - 1)
        assert math.isclose(merged.base, direct.base, rel_tol=1e-9)
        assert math.isclose(merged.slope, direct.slope, rel_tol=1e-9)

    def test_order_insensitive_input(self):
        a = isb_of_series([1.0, 2.0], t_b=0)
        b = isb_of_series([3.0, 1.0], t_b=2)
        c = isb_of_series([0.5, 0.7], t_b=4)
        assert merge_time([c, a, b]) == merge_time([a, b, c])

    def test_single_child_identity(self):
        isb = ISB(5, 9, 1.0, 0.1)
        assert merge_time([isb]) == isb

    def test_single_tick_pieces(self):
        """Degenerate children (1-tick, slope 0) still merge exactly."""
        values = [2.0, 5.0, 3.0, 8.0]
        isbs = [isb_of_series([v], t_b=i) for i, v in enumerate(values)]
        merged = merge_time(isbs)
        direct = fit_series(values)
        assert math.isclose(merged.base, direct.base, rel_tol=1e-9)
        assert math.isclose(merged.slope, direct.slope, rel_tol=1e-9)

    def test_rejects_gap(self):
        with pytest.raises(AggregationError):
            merge_time([ISB(0, 4, 0, 0), ISB(6, 9, 0, 0)])

    def test_rejects_overlap(self):
        with pytest.raises(AggregationError):
            merge_time([ISB(0, 4, 0, 0), ISB(4, 9, 0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(AggregationError):
            merge_time([])

    def test_associativity_via_hierarchy(self):
        """Merging quarters->hours->day equals merging quarters->day."""
        rng = np.random.default_rng(30)
        quarters = [
            isb_of_series(rng.normal(0, 1, size=4).tolist(), t_b=4 * i)
            for i in range(8)
        ]
        hours = [
            merge_time(quarters[i : i + 4]) for i in range(0, 8, 4)
        ]
        via_hours = merge_time(hours)
        direct = merge_time(quarters)
        assert math.isclose(via_hours.base, direct.base, rel_tol=1e-9)
        assert math.isclose(via_hours.slope, direct.slope, rel_tol=1e-9)


class TestMixedAggregation:
    def test_standard_then_time_equals_time_then_standard(self):
        """The two aggregation orders commute (the cube is well defined)."""
        rng = np.random.default_rng(14)
        # Two cells, two adjacent time intervals each.
        a1 = rng.normal(0, 1, size=6).tolist()
        a2 = rng.normal(0, 1, size=6).tolist()
        b1 = rng.normal(0, 1, size=6).tolist()
        b2 = rng.normal(0, 1, size=6).tolist()
        # standard-first: sum cells per interval, then concat.
        std_first = merge_time(
            [
                merge_standard(
                    [isb_of_series(a1, 0), isb_of_series(b1, 0)]
                ),
                merge_standard(
                    [isb_of_series(a2, 6), isb_of_series(b2, 6)]
                ),
            ]
        )
        # time-first: concat per cell, then sum.
        time_first = merge_standard(
            [
                merge_time([isb_of_series(a1, 0), isb_of_series(a2, 6)]),
                merge_time([isb_of_series(b1, 0), isb_of_series(b2, 6)]),
            ]
        )
        assert math.isclose(std_first.base, time_first.base, rel_tol=1e-9)
        assert math.isclose(std_first.slope, time_first.slope, rel_tol=1e-9)
        # and both equal the direct fit of the summed concatenation.
        direct = fit_series(
            [x + y for x, y in zip(a1 + a2, b1 + b2)]
        )
        assert math.isclose(std_first.base, direct.base, rel_tol=1e-9)
        assert math.isclose(std_first.slope, direct.slope, rel_tol=1e-9)
