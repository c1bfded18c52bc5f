"""Mergeable sufficient statistics for multiple linear regression (Sec. 6.2).

The paper's general theory (sketched in Section 6.2 and developed in the
authors' full version) extends the compressed-representation idea beyond the
4-number ISB: for any linear-in-parameters model ``z = theta . x`` the OLS
estimate is determined by the sufficient statistics

    n,  XtX = X^T X,  Xtz = X^T z   (and optionally  ztz = z^T z)

and these statistics are *mergeable*:

* **time-dimension aggregation** (concatenating disjoint observation sets):
  every statistic simply adds — including ``ztz``, so goodness-of-fit (RSS,
  R^2) remains exact.
* **standard-dimension aggregation** (point-wise sum of series observed at
  the same regressor points): ``Xtz`` adds while ``XtX`` and ``n`` stay the
  same, because the design matrix is shared.  ``ztz`` is *not* recoverable
  (the cross terms ``2 z_i . z_j`` are lost), so after a standard-dimension
  merge the statistics carry an explicit ``ztz_valid = False`` flag and
  refuse to report RSS/R^2 rather than report a silently wrong number.

For the pure-time linear design this subsumes the ISB (at the cost of more
stored numbers); :meth:`SufficientStats.to_isb` converts when applicable, and
the test-suite pins the equivalence against Theorems 3.2/3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import (
    AggregationError,
    DegenerateFitError,
    EmptySeriesError,
    IntervalError,
)
from repro.regression.basis import Design, linear_design
from repro.regression.isb import ISB

__all__ = ["SufficientStats", "MultipleFit", "fit_multiple"]


@dataclass(frozen=True)
class MultipleFit:
    """An OLS fit ``z_hat = theta . x`` with optional goodness-of-fit.

    ``rss``/``r2`` are ``None`` when the statistics that produced the fit had
    lost exact ``z^T z`` tracking (see module docstring).
    """

    design_name: str
    theta: tuple[float, ...]
    n: int
    rss: float | None
    r2: float | None

    def predict_features(self, x: Sequence[float]) -> float:
        """Predict from an explicit feature vector."""
        features = [float(v) for v in x]
        if len(features) != len(self.theta):
            raise AggregationError(
                f"feature vector has {len(features)} entries for "
                f"{len(self.theta)} fitted parameters"
            )
        return float(sum(w * v for w, v in zip(self.theta, features)))


class SufficientStats:
    """Accumulating, mergeable sufficient statistics for one cube cell.

    Instances are mutable accumulators; merge operations return new objects
    and never mutate their inputs.  Time-interval tracking (``t_b``/``t_e``)
    is maintained for pure time-series usage so the statistics can stand in
    wherever an ISB is expected.
    """

    __slots__ = ("design", "n", "xtx", "xtz", "ztz", "ztz_valid", "t_b", "t_e")

    def __init__(self, design: Design | None = None) -> None:
        self.design = design if design is not None else linear_design()
        k = self.design.k
        self.n = 0
        self.xtx = np.zeros((k, k), dtype=float)
        self.xtz = np.zeros(k, dtype=float)
        self.ztz = 0.0
        self.ztz_valid = True
        self.t_b: int | None = None
        self.t_e: int | None = None

    # ------------------------------------------------------------------
    # Construction / accumulation
    # ------------------------------------------------------------------
    def add(self, regressors: Sequence[float], z: float) -> None:
        """Record one observation with raw regressor vector ``regressors``."""
        x = np.asarray(self.design.row(regressors), dtype=float)
        self.xtx += np.outer(x, x)
        self.xtz += x * z
        self.ztz += z * z
        self.n += 1

    def add_time_point(self, t: int, z: float) -> None:
        """Record a pure time-series observation at integer tick ``t``."""
        self.add((float(t),), z)
        if self.t_b is None or t < self.t_b:
            self.t_b = t
        if self.t_e is None or t > self.t_e:
            self.t_e = t

    @classmethod
    def of_series(
        cls,
        values: Sequence[float],
        t_b: int = 0,
        design: Design | None = None,
    ) -> "SufficientStats":
        """Statistics of a time series starting at tick ``t_b``."""
        stats = cls(design)
        for i, z in enumerate(values):
            stats.add_time_point(t_b + i, float(z))
        return stats

    @classmethod
    def of_points(
        cls,
        points: Iterable[tuple[float, float]],
        design: Design | None = None,
    ) -> "SufficientStats":
        """Statistics of **irregularly ticked** observations ``(t, z)``.

        Section 6.2's general case covers streams whose readings do not
        arrive on a regular grid.  No interval is tracked, so time merges
        are unconstrained — the caller is responsible for the observation
        sets being disjoint, which is what makes the merge meaningful.
        """
        stats = cls(design)
        for t, z in points:
            stats.add((float(t),), float(z))
        return stats

    def copy(self) -> "SufficientStats":
        """Deep copy (the merge operations use this internally)."""
        out = SufficientStats(self.design)
        out.n = self.n
        out.xtx = self.xtx.copy()
        out.xtz = self.xtz.copy()
        out.ztz = self.ztz
        out.ztz_valid = self.ztz_valid
        out.t_b = self.t_b
        out.t_e = self.t_e
        return out

    # ------------------------------------------------------------------
    # Mergers (the cube aggregation operations)
    # ------------------------------------------------------------------
    def _check_design(self, other: "SufficientStats") -> None:
        if self.design.name != other.design.name or self.design.k != other.design.k:
            raise AggregationError(
                "cannot merge sufficient statistics with different designs: "
                f"{self.design.name!r} vs {other.design.name!r}"
            )

    def merge_time(self, other: "SufficientStats") -> "SufficientStats":
        """Aggregate over the time dimension: disjoint observations add.

        For pure time-series stats the intervals must be adjacent
        (``self`` directly before ``other``), mirroring Theorem 3.3's
        precondition.  Statistics without interval tracking merge freely.
        """
        self._check_design(other)
        if self.t_e is not None and other.t_b is not None:
            if self.t_e + 1 != other.t_b:
                raise IntervalError(
                    "time merge requires adjacent intervals; got "
                    f"[..,{self.t_e}] then [{other.t_b},..]"
                )
        out = self.copy()
        out.n += other.n
        out.xtx = out.xtx + other.xtx
        out.xtz = out.xtz + other.xtz
        out.ztz += other.ztz
        out.ztz_valid = self.ztz_valid and other.ztz_valid
        if other.t_b is not None:
            out.t_b = self.t_b if self.t_b is not None else other.t_b
            out.t_e = other.t_e
        return out

    def merge_standard(self, other: "SufficientStats") -> "SufficientStats":
        """Aggregate over a standard dimension: point-wise series sum.

        Requires both operands to describe the *same* design points (same
        ``n`` and ``XtX``); then ``Xtz`` adds, and exact ``ztz`` tracking is
        lost (flagged, not fabricated).
        """
        self._check_design(other)
        if self.n != other.n:
            raise AggregationError(
                "standard-dimension merge requires identical design points; "
                f"got n={self.n} and n={other.n}"
            )
        if (self.t_b, self.t_e) != (other.t_b, other.t_e):
            raise AggregationError(
                "standard-dimension merge requires identical intervals; got "
                f"[{self.t_b},{self.t_e}] and [{other.t_b},{other.t_e}]"
            )
        if not np.allclose(self.xtx, other.xtx, rtol=1e-9, atol=1e-12):
            raise AggregationError(
                "standard-dimension merge requires identical design matrices"
            )
        out = self.copy()
        out.xtz = out.xtz + other.xtz
        out.ztz_valid = False
        return out

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self) -> MultipleFit:
        """Solve the normal equations and return the OLS fit.

        Raises
        ------
        EmptySeriesError
            If no observations were recorded.
        DegenerateFitError
            If the normal equations are singular (too few / collinear
            observations for the design's ``k``).
        """
        if self.n == 0:
            raise EmptySeriesError("no observations recorded")
        try:
            theta = np.linalg.solve(self.xtx, self.xtz)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFitError(
                f"normal equations singular for design {self.design.name!r} "
                f"with n={self.n}"
            ) from exc
        rss: float | None = None
        r2: float | None = None
        if self.ztz_valid:
            rss = float(self.ztz - float(self.xtz @ theta))
            rss = max(rss, 0.0)
            # Total sum of squares about the mean needs sum(z) = Xtz[0] when
            # the design's first feature is the intercept.
            if self.design.row((0.0,) * _arity(self.design))[0] == 1.0:
                sum_z = float(self.xtz[0])
                tss = float(self.ztz - sum_z * sum_z / self.n)
                r2 = 1.0 - rss / tss if tss > 0 else (1.0 if rss == 0 else 0.0)
        return MultipleFit(
            design_name=self.design.name,
            theta=tuple(float(v) for v in theta),
            n=self.n,
            rss=rss,
            r2=r2,
        )

    def to_isb(self) -> ISB:
        """Convert to an ISB (pure-time linear design with tracked interval).

        Raises :class:`AggregationError` if the design is not the 2-parameter
        linear-in-time design or no interval was tracked.
        """
        if self.design.name != "linear" or self.design.k != 2:
            raise AggregationError(
                f"cannot express design {self.design.name!r} as an ISB"
            )
        if self.t_b is None or self.t_e is None:
            raise AggregationError("no time interval tracked")
        fit = self.fit()
        return ISB(self.t_b, self.t_e, fit.theta[0], fit.theta[1])

    @property
    def stored_numbers(self) -> int:
        """How many scalars this representation stores.

        Exploited by the measure-size ablation bench: the ISB stores 4
        numbers; these statistics store ``k(k+1)/2`` (symmetric ``XtX``)
        + ``k`` (``Xtz``) + 2 (``n``, ``ztz``) + 2 interval ticks.
        """
        k = self.design.k
        return k * (k + 1) // 2 + k + 2 + 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SufficientStats(design={self.design.name!r}, n={self.n}, "
            f"interval=[{self.t_b},{self.t_e}], ztz_valid={self.ztz_valid})"
        )


def _arity(design: Design) -> int:
    """Number of raw regressors a design consumes (probed, cached per call)."""
    for arity in (1, 2, 3, 4, 5, 6):
        try:
            design.row((0.0,) * arity)
        except (IndexError, TypeError):
            continue
        return arity
    raise AggregationError(
        f"could not determine regressor arity of design {design.name!r}"
    )


def fit_multiple(
    rows: Iterable[tuple[Sequence[float], float]],
    design: Design | None = None,
) -> MultipleFit:
    """One-shot OLS over ``(regressors, z)`` rows with the given design."""
    stats = SufficientStats(design)
    for regressors, z in rows:
        stats.add(regressors, float(z))
    return stats.fit()
