"""Regression substrate: LSE fits, ISB representation, aggregation theorems.

This subpackage is the mathematical foundation of the library (paper
Section 3 plus the Section 6.2 multiple-regression generalization):

* :mod:`repro.regression.linear` — closed-form LSE fits (Lemma 3.1) and the
  O(1)-memory :class:`~repro.regression.linear.RunningRegression` accumulator.
* :mod:`repro.regression.isb` — the 4-number ISB representation and its
  IntVal twin (Section 3.2, Theorem 3.1).
* :mod:`repro.regression.aggregation` — Theorem 3.2 (standard dimensions)
  and Theorem 3.3 (time dimension) lossless aggregation (the scalar
  reference implementation).
* :mod:`repro.regression.kernels` — columnar (struct-of-arrays) twins of the
  aggregation theorems plus grouped-reduce kernels; the numpy path the hot
  loops run on, property-pinned against the scalar reference.
* :mod:`repro.regression.basis` / :mod:`repro.regression.multiple` — the
  generalized theory: mergeable sufficient statistics for multiple linear
  regression with arbitrary (possibly non-linear) basis functions.
"""

from repro.regression.aggregation import (
    merge_standard,
    merge_time,
    merge_time_pair,
    split_time,
    subtract_standard,
    weighted_merge_standard,
)
from repro.regression.basis import (
    Design,
    exponential_design,
    linear_design,
    logarithmic_design,
    polynomial_design,
    spatio_temporal_design,
)
from repro.regression.isb import ISB, IntVal, isb_of_series
from repro.regression.kernels import (
    ISBColumns,
    group_fit,
    merge_groups,
    merge_standard_cols,
    merge_time_cols,
    merge_time_grid,
    segment_merge,
)
from repro.regression.linear import (
    LinearFit,
    RunningRegression,
    fit_series,
    interval_length,
    interval_mean_t,
    svs,
)
from repro.regression.multiple import MultipleFit, SufficientStats, fit_multiple

__all__ = [
    "ISB",
    "IntVal",
    "isb_of_series",
    "LinearFit",
    "RunningRegression",
    "fit_series",
    "interval_length",
    "interval_mean_t",
    "svs",
    "ISBColumns",
    "group_fit",
    "merge_groups",
    "merge_standard_cols",
    "merge_time_cols",
    "merge_time_grid",
    "segment_merge",
    "merge_standard",
    "merge_time",
    "merge_time_pair",
    "weighted_merge_standard",
    "subtract_standard",
    "split_time",
    "Design",
    "linear_design",
    "polynomial_design",
    "logarithmic_design",
    "exponential_design",
    "spatio_temporal_design",
    "SufficientStats",
    "MultipleFit",
    "fit_multiple",
]
