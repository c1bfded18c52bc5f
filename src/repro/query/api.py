"""The execution context of the query engine.

:class:`RegressionCubeView` holds what :func:`repro.query.exec.execute`
runs a :class:`~repro.query.spec.QuerySpec` against: one cubing result with
its layers, schema and lattice, plus — when that result came off a live
stream — the engine or cube whose two most recent windows the
``change_exceptions`` op compares.  It has no per-operation methods; every
query is ``execute(view, Q.<op>(...))``.  The exception-guided drilling
workflow of Section 4.2/4.3 lives in :mod:`repro.query.drill`.
"""

from __future__ import annotations

from typing import Any

from repro.cubing.result import CubeResult

__all__ = ["RegressionCubeView"]


class RegressionCubeView:
    """What a query spec is executed against.

    ``changes`` is the window-over-window change source: a
    :class:`~repro.stream.engine.StreamCubeEngine` or
    :class:`~repro.service.sharding.ShardedStreamCube` (anything with
    ``change_exceptions(quarters_apart)`` and
    ``o_layer_change_exceptions(quarters_apart)``).  A view over a one-shot
    cubing result has none, and ``change_exceptions`` raises there.
    """

    def __init__(self, result: CubeResult, changes: Any = None) -> None:
        self.result = result
        self.layers = result.layers
        self.schema = result.layers.schema
        self.lattice = result.layers.lattice
        self.changes = changes
