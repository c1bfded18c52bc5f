"""Figure 8: processing time and memory vs exception percentage.

Paper setting: D3L3C10T100K, exception rate swept 0.1% .. 100%.
Expected shape (paper Section 5):

* m/o-cubing time is nearly flat in the exception rate (it computes every
  cell regardless), only "slightly higher at high exception rate".
* popular-path time is low at low rates and grows with the rate, because
  drilling touches more cuboids and "it does not explore sharing processing
  as nicely as m/o-cubing" — the curves cross.
* m/o-cubing memory grows strongly with the rate (it retains every
  exception cell); popular-path memory is "more stable at low exception
  rate since it takes more space to store the cells along the popular path
  even when the exception rate is very low".

Each benchmark's ``extra_info`` carries the memory-model M-bytes and the
retained-exception count for the corresponding panel (b) series.

Both algorithms aggregate through the columnar kernels
(``repro.regression.kernels``).
m/o-cubing's whole lattice walk is columnar — integer key codes, one packed
grouped Theorem 3.2 kernel call per cuboid, objects only for retained cells
— while popular-path still bulk-loads and aggregates an object H-tree and
is columnar only in its drills.  Wall time therefore no longer sets the two
*algorithms* against each other (m/o-cubing is faster at every rate); the
cross-algorithm claims are checked on ``cells_computed``.  Run through
``benchmarks/report.py --json PATH`` for machine-readable ``BENCH_*.json``
output.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import current_scale
from repro.cubing.mo_cubing import mo_cubing
from repro.cubing.popular_path import popular_path_cubing

_RATES = current_scale().fig8_rates


def _attach(benchmark, result):
    benchmark.extra_info["megabytes"] = round(result.stats.megabytes, 4)
    benchmark.extra_info["retained_exceptions"] = (
        result.total_retained_exceptions
    )
    benchmark.extra_info["cells_computed"] = result.stats.cells_computed


@pytest.mark.parametrize("rate", _RATES)
def bench_figure8_mo_cubing(benchmark, fig8_dataset, fig8_policies, rate):
    policy = fig8_policies[rate]
    result = benchmark.pedantic(
        mo_cubing,
        args=(fig8_dataset.layers, fig8_dataset.cells, policy),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    _attach(benchmark, result)
    assert len(result.o_layer) > 0


@pytest.mark.parametrize("rate", _RATES)
def bench_figure8_popular_path(benchmark, fig8_dataset, fig8_policies, rate):
    policy = fig8_policies[rate]
    result = benchmark.pedantic(
        popular_path_cubing,
        args=(fig8_dataset.layers, fig8_dataset.cells, policy),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    _attach(benchmark, result)
    assert len(result.o_layer) > 0
