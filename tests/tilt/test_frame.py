"""Tests for the generic tilt time frame."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import TiltFrameError
from repro.regression.isb import ISB, isb_of_series
from repro.regression.linear import fit_series
from repro.tilt.frame import TiltLevelSpec, TiltTimeFrame


def two_level_frame(cap_fine: int = 4, cap_coarse: int = 3) -> TiltTimeFrame:
    """quarter(1 tick) x cap_fine, hour(4 ticks) x cap_coarse."""
    return TiltTimeFrame(
        [
            TiltLevelSpec("quarter", 1, cap_fine),
            TiltLevelSpec("hour", 4, cap_coarse),
        ]
    )


def feed(frame: TiltTimeFrame, values: list[float]) -> None:
    """Insert one 1-tick ISB per value (finest unit = 1 tick)."""
    for i, v in enumerate(values):
        frame.insert(ISB(i, i, v, 0.0))


class TestSpecValidation:
    def test_needs_levels(self):
        with pytest.raises(TiltFrameError):
            TiltTimeFrame([])

    def test_unit_must_grow(self):
        with pytest.raises(TiltFrameError):
            TiltTimeFrame(
                [TiltLevelSpec("a", 4, 4), TiltLevelSpec("b", 4, 4)]
            )

    def test_unit_must_divide(self):
        with pytest.raises(TiltFrameError):
            TiltTimeFrame(
                [TiltLevelSpec("a", 2, 4), TiltLevelSpec("b", 5, 4)]
            )

    def test_capacity_must_cover_promotion_ratio(self):
        with pytest.raises(TiltFrameError):
            TiltTimeFrame(
                [TiltLevelSpec("a", 1, 3), TiltLevelSpec("b", 4, 2)]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(TiltFrameError):
            TiltTimeFrame(
                [TiltLevelSpec("a", 1, 4), TiltLevelSpec("a", 4, 2)]
            )

    def test_bad_level_spec(self):
        with pytest.raises(TiltFrameError):
            TiltLevelSpec("x", 0, 1)
        with pytest.raises(TiltFrameError):
            TiltLevelSpec("x", 1, 0)


class TestInsertion:
    def test_contiguity_enforced(self):
        frame = two_level_frame()
        frame.insert(ISB(0, 0, 1.0, 0.0))
        with pytest.raises(TiltFrameError):
            frame.insert(ISB(2, 2, 1.0, 0.0))  # skipped tick 1

    def test_wrong_span_rejected(self):
        frame = two_level_frame()
        with pytest.raises(TiltFrameError):
            frame.insert(ISB(0, 1, 1.0, 0.0))  # finest unit is 1 tick

    def test_now_advances(self):
        frame = two_level_frame()
        feed(frame, [1.0, 2.0, 3.0])
        assert frame.now == 3

    def test_fine_level_capacity_evicts(self):
        frame = two_level_frame(cap_fine=4)
        feed(frame, [float(i) for i in range(6)])
        slots = frame.slots("quarter")
        assert len(slots) == 4
        assert slots[0].t_b == 2  # two oldest evicted


class TestPromotion:
    def test_promotion_at_unit_boundary(self):
        frame = two_level_frame()
        feed(frame, [1.0, 2.0, 3.0, 4.0])
        hours = frame.slots("hour")
        assert len(hours) == 1
        assert hours[0].interval == (0, 3)
        direct = fit_series([1.0, 2.0, 3.0, 4.0])
        assert math.isclose(hours[0].base, direct.base, rel_tol=1e-9)
        assert math.isclose(hours[0].slope, direct.slope, rel_tol=1e-9)

    def test_no_promotion_mid_unit(self):
        frame = two_level_frame()
        feed(frame, [1.0, 2.0, 3.0])
        assert frame.slots("hour") == ()

    def test_cascade_promotion(self):
        frame = TiltTimeFrame(
            [
                TiltLevelSpec("q", 1, 2),
                TiltLevelSpec("h", 2, 2),
                TiltLevelSpec("d", 4, 2),
            ]
        )
        feed(frame, [float(i) for i in range(4)])
        assert len(frame.slots("d")) == 1
        assert frame.slots("d")[0].interval == (0, 3)

    def test_promoted_equals_direct_fit(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, size=16).tolist()
        frame = two_level_frame(cap_fine=4, cap_coarse=4)
        feed(frame, values)
        hours = frame.slots("hour")
        assert len(hours) == 4
        for i, hour in enumerate(hours):
            piece = values[4 * i : 4 * i + 4]
            direct = fit_series(piece, t_b=4 * i)
            assert math.isclose(hour.base, direct.base, rel_tol=1e-9)
            assert math.isclose(hour.slope, direct.slope, rel_tol=1e-9)

    def test_coarsest_eviction_counted(self):
        frame = TiltTimeFrame(
            [TiltLevelSpec("q", 1, 2), TiltLevelSpec("h", 2, 2)]
        )
        feed(frame, [float(i) for i in range(10)])
        # hours formed at ticks 2,4,6,8,10 -> 5 promotions, capacity 2.
        assert frame.evicted_slots == 3

    def test_retained_total_bounded_by_capacity(self):
        frame = two_level_frame()
        feed(frame, [float(i) for i in range(50)])
        assert frame.total_retained <= frame.total_capacity


class TestQueries:
    def test_query_exact_fine_window(self):
        frame = two_level_frame()
        values = [2.0, 4.0, 3.0, 5.0]
        feed(frame, values)
        got = frame.query(1, 3)
        direct = isb_of_series(values[1:], t_b=1)
        assert math.isclose(got.base, direct.base, rel_tol=1e-9)
        assert math.isclose(got.slope, direct.slope, rel_tol=1e-9)

    def test_query_spanning_hour_and_quarters(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, size=6).tolist()
        frame = two_level_frame()
        feed(frame, values)
        # [0,3] is the promoted hour; [4,5] are fine quarters.
        got = frame.query(0, 5)
        direct = isb_of_series(values)
        assert math.isclose(got.base, direct.base, rel_tol=1e-9)
        assert math.isclose(got.slope, direct.slope, rel_tol=1e-9)

    def test_query_prefers_finest_slots(self):
        frame = two_level_frame()
        feed(frame, [1.0, 2.0, 3.0, 4.0])
        got = frame.query(3, 3)
        assert got.interval == (3, 3)

    def test_query_unaligned_raises(self):
        frame = two_level_frame(cap_fine=4)
        feed(frame, [float(i) for i in range(8)])
        # tick 1 is inside the promoted hour [0,3]; quarters 0..3 evicted.
        with pytest.raises(TiltFrameError):
            frame.query(1, 5)

    def test_query_beyond_history_raises(self):
        frame = two_level_frame()
        feed(frame, [1.0])
        with pytest.raises(TiltFrameError):
            frame.query(0, 5)

    def test_query_empty_window_raises(self):
        frame = two_level_frame()
        with pytest.raises(TiltFrameError):
            frame.query(3, 2)

    def test_last_window(self):
        frame = two_level_frame()
        values = [1.0, 5.0, 2.0, 7.0]
        feed(frame, values)
        got = frame.last_window("quarter", 2)
        direct = isb_of_series(values[2:], t_b=2)
        assert math.isclose(got.base, direct.base, rel_tol=1e-9)

    def test_last_window_count_checked(self):
        frame = two_level_frame()
        feed(frame, [1.0, 2.0])
        with pytest.raises(TiltFrameError):
            frame.last_window("quarter", 5)
        with pytest.raises(TiltFrameError):
            frame.last_window("quarter", 0)

    def test_span_telescopes(self):
        frame = two_level_frame(cap_fine=4, cap_coarse=3)
        feed(frame, [float(i) for i in range(8)])
        span = frame.span()
        assert span is not None
        assert span[0] == 0  # oldest hour slot reaches back to 0
        assert span[1] == 7

    def test_span_empty(self):
        assert two_level_frame().span() is None

    def test_level_lookup_by_name_and_index(self):
        frame = two_level_frame()
        assert frame.level_index("hour") == 1
        assert frame.level_index(0) == 0
        with pytest.raises(TiltFrameError):
            frame.level_index("day")
        with pytest.raises(TiltFrameError):
            frame.level_index(5)

    def test_all_slots_iteration(self):
        frame = two_level_frame()
        feed(frame, [float(i) for i in range(5)])
        slots = list(frame.all_slots())
        names = {name for name, _ in slots}
        assert names == {"quarter", "hour"}


class TestOracleEquivalence:
    def test_any_retained_window_matches_raw_fit(self):
        """Whatever window the frame can serve, it serves exactly."""
        rng = np.random.default_rng(7)
        values = rng.normal(5, 2, size=40).tolist()
        frame = TiltTimeFrame(
            [
                TiltLevelSpec("q", 1, 4),
                TiltLevelSpec("h", 4, 6),
                TiltLevelSpec("d", 24, 2),
            ]
        )
        feed(frame, values)
        # Collect all slot boundaries and try every aligned window.
        slots = [isb for _, isb in frame.all_slots()]
        for s in slots:
            got = frame.query(s.t_b, frame.now - 1)
            direct = isb_of_series(values[s.t_b :], t_b=s.t_b)
            assert math.isclose(got.base, direct.base, rel_tol=1e-8)
            assert math.isclose(got.slope, direct.slope, rel_tol=1e-8)
