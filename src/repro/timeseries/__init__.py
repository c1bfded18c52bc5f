"""Time-series substrate: typed series and folding."""

from repro.timeseries.folding import FoldAggregate, fold_isbs, fold_series
from repro.timeseries.series import TimeSeries

__all__ = [
    "TimeSeries",
    "fold_series",
    "fold_isbs",
    "FoldAggregate",
]
