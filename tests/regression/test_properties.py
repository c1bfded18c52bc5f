"""Property-based tests (hypothesis) for the regression aggregation theorems.

These are the load-bearing invariants of the whole system: for *any* raw
series, aggregating compressed ISBs must equal fitting the raw data.  If
these hold, the cube's exactness (Theorem 3.1a) follows for free.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regression.aggregation import merge_standard, merge_time
from repro.regression.isb import ISB, isb_of_series
from repro.regression.linear import fit_series, svs, sum_of_series
from repro.regression.multiple import SufficientStats

# Bounded, finite floats keep the comparisons numerically meaningful.
values_st = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)


def _isb_close(a: ISB, b: ISB, tol: float = 1e-6) -> bool:
    scale = max(1.0, abs(a.base), abs(a.slope))
    return (
        a.interval == b.interval
        and abs(a.base - b.base) <= tol * scale
        and abs(a.slope - b.slope) <= tol * scale
    )


@given(
    series=st.lists(
        st.lists(values_st, min_size=2, max_size=30),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    t_b=st.integers(min_value=-100, max_value=100),
)
@settings(max_examples=150, deadline=None)
def test_theorem_32_matches_raw_fit(series, t_b):
    """merge_standard(ISBs) == fit(sum of raw series), always."""
    isbs = [isb_of_series(s, t_b=t_b) for s in series]
    merged = merge_standard(isbs)
    direct = ISB.from_fit(fit_series(sum_of_series(series), t_b=t_b))
    assert _isb_close(merged, direct)


@given(
    pieces=st.lists(
        st.lists(values_st, min_size=1, max_size=20), min_size=1, max_size=6
    ),
    t_b=st.integers(min_value=-100, max_value=100),
)
@settings(max_examples=150, deadline=None)
def test_theorem_33_matches_raw_fit(pieces, t_b):
    """merge_time(ISBs of a partition) == fit(concatenation), always."""
    total = sum(len(p) for p in pieces)
    if total < 2:
        return  # a 1-tick aggregate is the trivial single-child case
    isbs = []
    t = t_b
    for piece in pieces:
        isbs.append(isb_of_series(piece, t_b=t))
        t += len(piece)
    merged = merge_time(isbs)
    flat = [v for p in pieces for v in p]
    direct = ISB.from_fit(fit_series(flat, t_b=t_b))
    assert _isb_close(merged, direct)


@given(
    values=st.lists(values_st, min_size=2, max_size=40),
    cut=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_time_merge_invariant_under_partition_choice(values, cut):
    """Every 2-way split of a series merges to the same ISB."""
    k = cut.draw(st.integers(min_value=1, max_value=len(values) - 1))
    left = isb_of_series(values[:k], t_b=0)
    right = isb_of_series(values[k:], t_b=k)
    merged = merge_time([left, right])
    direct = isb_of_series(values, t_b=0)
    assert _isb_close(merged, direct)


@given(
    series=st.lists(
        st.lists(values_st, min_size=2, max_size=15),
        min_size=2,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
)
@settings(max_examples=80, deadline=None)
def test_standard_merge_commutative_and_associative(series):
    isbs = [isb_of_series(s) for s in series]
    forward = merge_standard(isbs)
    backward = merge_standard(list(reversed(isbs)))
    nested = merge_standard([isbs[0], merge_standard(isbs[1:])])
    assert _isb_close(forward, backward)
    assert _isb_close(forward, nested)


@given(
    values=st.lists(values_st, min_size=1, max_size=50),
    t_b=st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_isb_mean_total_exact(values, t_b):
    """ISB.mean / ISB.total recover the raw mean / sum exactly."""
    isb = isb_of_series(values, t_b=t_b)
    raw_mean = math.fsum(values) / len(values)
    scale = max(1.0, abs(raw_mean))
    assert abs(isb.mean - raw_mean) <= 1e-6 * scale
    assert abs(isb.total - math.fsum(values)) <= 1e-6 * scale * len(values)


@given(
    values=st.lists(values_st, min_size=1, max_size=30),
    t_b=st.integers(min_value=-100, max_value=100),
    delta=st.integers(min_value=-500, max_value=500),
)
@settings(max_examples=80, deadline=None)
def test_isb_shift_commutes_with_fit(values, t_b, delta):
    shifted_fit = isb_of_series(values, t_b=t_b + delta)
    fit_then_shift = isb_of_series(values, t_b=t_b).shifted(delta)
    assert _isb_close(shifted_fit, fit_then_shift, tol=1e-5)


@given(
    values=st.lists(values_st, min_size=2, max_size=30),
    t_b=st.integers(min_value=-50, max_value=50),
)
@settings(max_examples=80, deadline=None)
def test_intval_round_trip(values, t_b):
    isb = isb_of_series(values, t_b=t_b)
    assert _isb_close(isb.to_intval().to_isb(), isb)


@given(n=st.integers(min_value=1, max_value=10_000), start=st.integers(-10_000, 10_000))
@settings(max_examples=200, deadline=None)
def test_lemma_32_closed_form(n, start):
    """SVS = (n^3 - n) / 12 for every interval length and start."""
    assert svs(start, start + n - 1) == (n**3 - n) / 12.0


@given(
    values=st.lists(values_st, min_size=2, max_size=25),
    cut=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_sufficient_stats_agree_with_isb_after_time_merge(values, cut):
    """The general (Section 6.2) representation stays consistent with ISB."""
    k = cut.draw(st.integers(min_value=1, max_value=len(values) - 1))
    left = SufficientStats.of_series(values[:k], 0)
    right = SufficientStats.of_series(values[k:], k)
    merged_isb = left.merge_time(right).to_isb()
    direct = isb_of_series(values)
    assert _isb_close(merged_isb, direct, tol=1e-5)
