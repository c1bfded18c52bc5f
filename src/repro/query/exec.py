"""The single query execution engine: ``execute(view, spec) -> QueryResult``.

Every surface — Python callers, the cached
:class:`~repro.service.router.QueryRouter`, the HTTP service and the
subscription dispatcher — funnels through :func:`execute`: the spec is
resolved against the view's schema, dispatched to the one implementation of
its operation, and the answer is wrapped in a typed :class:`QueryResult`
envelope that knows its wire encoding.  :func:`execute_batch` runs many
specs against one view and reports per-spec results *and* errors, so one bad
plan never sinks a batch.

The ``view`` is the execution context (:class:`RegressionCubeView` or
anything with its five attributes): operations read the cubing ``result`` —
except ``change_exceptions``, which compares two stream windows through
``view.changes`` and never touches the result.  Cuboid scans run on columns
(:func:`_cuboid_columns`): a *complete* materialized cuboid when the cubing
result has one (m/o layers, popular-path cuboids, full materialization),
else an exact Theorem 3.2 roll-up of the m-layer's columns.  Their filters
are code masks, so a scan answers a read-only
:class:`~repro.cube.cuboid.ColumnCells` and boxes no cell; ``top_slopes``
boxes its ``k`` rows and nothing else.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.cube.cell import roll_up_values
from repro.cube.cuboid import ColumnCells, CuboidColumns
from repro.cubing.result import CubeResult
from repro.errors import QueryError, ReproError
from repro.io import cells_to_json, cells_to_payload, isb_to_dict
from repro.query.spec import BatchQuery, QuerySpec, spec_from_dict
from repro.regression.isb import ISB

__all__ = [
    "RegressionCubeView",
    "QueryResult",
    "BatchItem",
    "execute",
    "execute_batch",
    "wire_encodes",
]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


# ----------------------------------------------------------------------
# The execution context
# ----------------------------------------------------------------------
class RegressionCubeView:
    """What a query spec is executed against: one cubing result with its
    layers, schema and lattice.

    ``changes`` is the window-over-window change source: a
    :class:`~repro.service.sharding.ShardedStreamCube` (anything with
    ``change_exceptions(quarters_apart)`` and
    ``o_layer_change_exceptions(quarters_apart)``).  A view over a one-shot
    cubing result has none, and ``change_exceptions`` raises there.  The
    view has no per-operation methods; every query is
    ``execute(view, Q.<op>(...))``.
    """

    def __init__(self, result: CubeResult, changes: Any = None) -> None:
        self.result = result
        self.layers = result.layers
        self.schema = result.layers.schema
        self.lattice = result.layers.lattice
        self.changes = changes


# ----------------------------------------------------------------------
# Result envelopes
# ----------------------------------------------------------------------
_encodes_mu = threading.Lock()
_encodes = 0


def wire_encodes() -> int:
    """How many :attr:`QueryResult.wire` encodings this process has run."""
    return _encodes


@dataclass(frozen=True)
class QueryResult:
    """A typed result envelope: the resolved spec plus its answer.

    ``value`` is the operation's native Python answer (an :class:`ISB`, a
    cell mapping, a per-cuboid mapping of those, a ranked list, a roll-up
    triple, or a float); the cell mappings of the cuboid scans are
    read-only column-backed :class:`~repro.cube.cuboid.ColumnCells`
    (``dict(value)`` gives a boxed copy).  :meth:`to_dict` is the canonical
    wire encoding the HTTP layer returns, and :attr:`wire` is that dict as
    JSON bytes, encoded at most once per result object.
    """

    spec: QuerySpec
    value: Any

    @property
    def op(self) -> str:
        return self.spec.op

    def to_dict(self) -> dict[str, Any]:
        return {"op": self.op, **_RESULT_ENCODERS[self.op](self.value)}

    @functools.cached_property
    def wire(self) -> bytes:
        """``json.dumps(self.to_dict())`` as UTF-8, memoized on the object.

        A cached router line and every subscriber of its spec share one
        result object, so a cache hit or a push writes these bytes instead
        of encoding the answer again.  Cell bodies are rendered by
        :func:`~repro.io.cells_to_json`, straight from the columns of a
        column-backed answer; the rest goes through :meth:`to_dict`.
        """
        global _encodes
        body = _WIRE_BODIES.get(self.op)
        text = (
            json.dumps(self.to_dict())
            if body is None
            else '{"op": "%s", %s}' % (self.op, body(self.value))
        )
        data = text.encode("utf-8")
        with _encodes_mu:
            _encodes += 1
        return data


@dataclass(frozen=True)
class BatchItem:
    """One entry of a batch response: a result, or a per-spec error."""

    spec: QuerySpec | None
    result: QueryResult | None = None
    error: str | None = None
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> dict[str, Any]:
        if self.result is not None:
            return {"ok": True, **self.result.to_dict()}
        return {"ok": False, "error": self.error, "type": self.error_type}

    @property
    def wire(self) -> bytes:
        """:meth:`to_dict` as JSON bytes; a result reuses its own
        :attr:`QueryResult.wire` with ``"ok": true`` put in front."""
        if self.result is not None:
            return b'{"ok": true, ' + self.result.wire[1:]
        return json.dumps(self.to_dict()).encode("utf-8")


# ----------------------------------------------------------------------
# Operation implementations
# ----------------------------------------------------------------------
def _cuboid_columns(view: RegressionCubeView, coord: Coord) -> CuboidColumns:
    """The columns of one whole cuboid, from the cheapest exact source.

    A *complete* materialized cuboid (m/o layer, popular-path cuboid, full
    materialization) is served as it is; partial cuboids (retained exception
    cells only) and absent ones are rolled up from the m-layer's columns,
    which is exact by Theorem 3.2.
    """
    cuboid = view.result.complete_cuboid(coord)
    if cuboid is not None:
        return cuboid.columns
    return view.result.m_layer.columns.roll_up(coord)


def _selected(columns: CuboidColumns, mask) -> ColumnCells:
    return ColumnCells(columns.take(np.flatnonzero(mask)))


def _cell(view: RegressionCubeView, spec: QuerySpec) -> ISB:
    c = view.lattice.require(spec.coord)
    vals = tuple(spec.values)
    cuboid = view.result.cuboids.get(c)
    if cuboid is not None:
        isb = cuboid.get(vals)
        if isb is not None:
            return isb
    isb = view.result.m_layer.roll_up_cell(c, vals)
    if isb is None:
        raise QueryError(f"cell {vals} at {c} has no supporting data")
    return isb


def _slice(view: RegressionCubeView, spec: QuerySpec) -> ColumnCells:
    c = view.lattice.require(spec.coord)
    fixed = {
        view.schema.dim_index(name): value for name, value in (spec.fixed or ())
    }
    columns = _cuboid_columns(view, c)
    return _selected(columns, columns.mask(c, fixed))


def _roll_up(view: RegressionCubeView, spec: QuerySpec) -> tuple[Coord, Values, ISB]:
    c = view.lattice.require(spec.coord)
    d = view.schema.dim_index(spec.dim)
    if c[d] - 1 < view.layers.o_coord[d]:
        raise QueryError(
            f"dimension {spec.dim!r} is already at the o-layer level in {c}"
        )
    parent_coord = c[:d] + (c[d] - 1,) + c[d + 1 :]
    parent_values = roll_up_values(
        view.schema, tuple(spec.values), c, parent_coord
    )
    parent = _cell(view, spec._with(coord=parent_coord, values=parent_values))
    return parent_coord, parent_values, parent


def _drill_down(view: RegressionCubeView, spec: QuerySpec) -> ColumnCells:
    c = view.lattice.require(spec.coord)
    d = view.schema.dim_index(spec.dim)
    if c[d] + 1 > view.layers.m_coord[d]:
        raise QueryError(
            f"dimension {spec.dim!r} is already at the m-layer level in {c}"
        )
    child_coord = c[:d] + (c[d] + 1,) + c[d + 1 :]
    columns = _cuboid_columns(view, child_coord)
    return _selected(columns, columns.mask(c, dict(enumerate(spec.values))))


def _siblings(view: RegressionCubeView, spec: QuerySpec) -> ColumnCells:
    c = view.lattice.require(spec.coord)
    vals = tuple(spec.values)
    d = view.schema.dim_index(spec.dim)
    level = c[d]
    if level == 0:
        raise QueryError(
            f"dimension {spec.dim!r} is '*' in cuboid {c}; a '*' value has "
            "no siblings"
        )
    # Equal in every other dimension, under the same parent in ``d`` —
    # and not the cell itself.
    parent = view.schema.dimensions[d].hierarchy.parent(vals[d], level)
    parent_coord = c[:d] + (level - 1,) + c[d + 1 :]
    others = {i: v for i, v in enumerate(vals) if i != d}
    columns = _cuboid_columns(view, c)
    return _selected(
        columns,
        columns.mask(parent_coord, {**others, d: parent})
        & ~columns.mask(c, {d: vals[d]}),
    )


def _sibling_deviation(view: RegressionCubeView, spec: QuerySpec) -> float:
    cell_isb = _cell(view, spec)
    brothers = _siblings(view, spec)
    if not brothers:
        raise QueryError(
            f"cell {tuple(spec.values)} has no siblings along {spec.dim!r}"
        )
    mean_slope = sum(brothers.columns.isbs.slope.tolist()) / len(brothers)
    return cell_isb.slope - mean_slope


def _top_slopes(
    view: RegressionCubeView, spec: QuerySpec
) -> list[tuple[Values, ISB]]:
    c = view.lattice.require(spec.coord)
    columns = _cuboid_columns(view, c)
    # Stable, so equal |slope| keep row order — what ``sorted`` gives.
    order = np.argsort(-np.abs(columns.isbs.slope), kind="stable")
    top = columns.take(order[: spec.k])
    return list(zip(top.keys(), top.isbs.to_isbs()))


def _observation_deck(view: RegressionCubeView, spec: QuerySpec) -> ColumnCells:
    return view.result.o_layer.cells


def _watch_list(view: RegressionCubeView, spec: QuerySpec) -> ColumnCells:
    return view.result.o_layer_exceptions()


def _exceptions(
    view: RegressionCubeView, spec: QuerySpec
) -> dict[Coord, Mapping[Values, ISB]]:
    out = dict(view.result.retained_exceptions)
    out[view.layers.o_coord] = view.result.o_layer_exceptions()
    return out


def _change_exceptions(
    view: RegressionCubeView, spec: QuerySpec
) -> dict[Values, ISB]:
    if view.changes is None:
        raise QueryError(
            "change_exceptions compares two stream windows; this view has "
            "no stream engine or cube behind it"
        )
    if spec.layer == "m":
        return view.changes.change_exceptions(spec.quarters_apart)
    return view.changes.o_layer_change_exceptions(spec.quarters_apart)


_IMPLS: dict[str, Callable[[RegressionCubeView, QuerySpec], Any]] = {
    "cell": _cell,
    "slice": _slice,
    "roll_up": _roll_up,
    "drill_down": _drill_down,
    "siblings": _siblings,
    "sibling_deviation": _sibling_deviation,
    "top_slopes": _top_slopes,
    "observation_deck": _observation_deck,
    "watch_list": _watch_list,
    "exceptions": _exceptions,
    "change_exceptions": _change_exceptions,
}


# ----------------------------------------------------------------------
# Result encoders (wire form per operation)
# ----------------------------------------------------------------------
def _encode_isb(value: ISB) -> dict[str, Any]:
    return {"isb": isb_to_dict(value)}


def _encode_cells(value: Mapping[Values, ISB]) -> dict[str, Any]:
    return {"cells": cells_to_payload(value)}


def _encode_cuboids(value: Mapping[Coord, Mapping[Values, ISB]]) -> dict[str, Any]:
    return {
        "cuboids": [
            {"coord": list(coord), "cells": cells_to_payload(cells)}
            for coord, cells in value.items()
        ]
    }


def _encode_roll_up(value: tuple[Coord, Values, ISB]) -> dict[str, Any]:
    coord, values, isb = value
    return {"coord": list(coord), "values": list(values), "isb": isb_to_dict(isb)}


def _encode_ranked(value: list[tuple[Values, ISB]]) -> dict[str, Any]:
    return {
        "cells": [
            {"values": list(values), "isb": isb_to_dict(isb)}
            for values, isb in value
        ]
    }


def _encode_deviation(value: float) -> dict[str, Any]:
    return {"deviation": value}


def _cells_json(value: Mapping[Values, ISB]) -> str:
    return '"cells": ' + cells_to_json(value)


def _cuboids_json(value: Mapping[Coord, Mapping[Values, ISB]]) -> str:
    return '"cuboids": [%s]' % ", ".join(
        '{"coord": %s, "cells": %s}'
        % (json.dumps(list(coord)), cells_to_json(cells))
        for coord, cells in value.items()
    )


_RESULT_ENCODERS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "cell": _encode_isb,
    "slice": _encode_cells,
    "roll_up": _encode_roll_up,
    "drill_down": _encode_cells,
    "siblings": _encode_cells,
    "sibling_deviation": _encode_deviation,
    "top_slopes": _encode_ranked,
    "observation_deck": _encode_cells,
    "watch_list": _encode_cells,
    "exceptions": _encode_cuboids,
    "change_exceptions": _encode_cells,
}

#: The ops whose :attr:`QueryResult.wire` body (after ``"op"``) is rendered
#: from the cell mappings rather than through :meth:`QueryResult.to_dict`.
_WIRE_BODIES: dict[str, Callable[[Any], str]] = {
    "slice": _cells_json,
    "drill_down": _cells_json,
    "siblings": _cells_json,
    "observation_deck": _cells_json,
    "watch_list": _cells_json,
    "exceptions": _cuboids_json,
    "change_exceptions": _cells_json,
}


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def execute(
    view: RegressionCubeView,
    spec: QuerySpec | Mapping[str, Any],
    *,
    pre_resolved: bool = False,
) -> QueryResult:
    """Run one spec against a view; the sole dispatch point of the library.

    Accepts a :class:`~repro.query.spec.QuerySpec` or its wire ``dict``
    form.  The spec is resolved (names to indices, schema validation) before
    dispatch, so every surface gets identical validation and identical
    errors.  Callers that already resolved the spec against this view's
    schema (the router does, to build its cache key) pass
    ``pre_resolved=True`` to skip the second resolution.
    """
    if isinstance(spec, BatchQuery):
        raise QueryError("a BatchQuery must go through execute_batch")
    if isinstance(spec, Mapping):
        spec = spec_from_dict(spec)
    resolved = spec if pre_resolved else spec.resolve(view.schema)
    impl = _IMPLS.get(resolved.op)
    if impl is None:  # pragma: no cover - registry and impls move together
        raise QueryError(f"no executor registered for op {resolved.op!r}")
    return QueryResult(resolved, impl(view, resolved))


def run_batch(
    entries: Iterable[QuerySpec | Mapping[str, Any]],
    executor: Callable[[QuerySpec], QueryResult],
) -> list[BatchItem]:
    """Decode and run batch entries, collecting per-entry outcomes.

    The shared loop behind :func:`execute_batch` and the router's cached
    batch path: each entry (a spec or its wire form) yields one
    :class:`BatchItem` in order; a domain error in one entry is recorded on
    that item and the rest of the batch still runs.
    """
    items: list[BatchItem] = []
    for entry in entries:
        spec = entry if isinstance(entry, QuerySpec) else None
        try:
            if spec is None:
                spec = spec_from_dict(entry)
            items.append(BatchItem(spec=spec, result=executor(spec)))
        except ReproError as exc:
            items.append(
                BatchItem(
                    spec=spec, error=str(exc), error_type=type(exc).__name__
                )
            )
    return items


def execute_batch(
    view: RegressionCubeView,
    batch: BatchQuery | Iterable[QuerySpec | Mapping[str, Any]],
) -> list[BatchItem]:
    """Run many specs against one view, collecting per-spec outcomes."""
    entries = batch.specs if isinstance(batch, BatchQuery) else tuple(batch)
    return run_batch(entries, lambda spec: execute(view, spec))
