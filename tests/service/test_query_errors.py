"""Query error paths: one spec, one validation, one error envelope.

Because every surface funnels through ``execute``, a bad plan must fail
identically through the Python API and the HTTP endpoint: same exception
type, same message, mapped to a 400 ``{"error", "type"}`` envelope on the
wire.  Covers the satellite checklist: invalid coord, bad dimension name,
roll-up past the o-layer, drill past the m-layer, siblings at ``*``.
"""

from __future__ import annotations

import pytest

from repro.cube.hierarchy import ALL, FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.cubing.policy import GlobalSlopeThreshold
from repro.errors import QueryError, ReproError, SchemaError, StreamError
from repro.query import Q, execute
from repro.query.spec import spec_from_dict
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord


@pytest.fixture
def service():
    """A loaded service whose o-layer has a '*' dimension (for siblings)."""
    schema = CubeSchema(
        [
            Dimension("a", FanoutHierarchy("a", 2, 2)),
            Dimension("b", FanoutHierarchy("b", 2, 2)),
        ]
    )
    layers = CriticalLayers(schema, (2, 2), (0, 1))
    cube = ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=2, ticks_per_quarter=4
    )
    records = [
        StreamRecord((i, j), t, float(i + j) + 0.1 * t)
        for t in range(8)
        for i in range(4)
        for j in range(4)
    ]
    cube.ingest_batch(records)
    cube.advance_to(8)
    yield StreamCubeService(cube, QueryRouter(cube, window_quarters=2))
    cube.close()


ERROR_SPECS = [
    # (case id, spec) — every satellite error path.
    ("coord-out-of-schema", Q.cell((9, 9), (0, 0))),
    ("coord-outside-lattice", Q.cell((2, 0), (0, ALL))),
    ("bad-dimension-name", Q.drill_down((1, 1), (0, 0), "nope")),
    ("bad-cell-values", Q.cell((2, 2), (99, 0))),
    ("roll-up-past-o-layer", Q.roll_up((0, 1), (ALL, 0), "a")),
    ("drill-past-m-layer", Q.drill_down((2, 2), (0, 0), "a")),
    ("siblings-at-star", Q.siblings((0, 1), (ALL, 0), "a")),
    ("missing-required-field", Q.cell()),
    ("missing-dim", Q.roll_up((1, 1), (0, 0))),
    # Only two quarters are sealed: no pair of 2-quarter windows yet.
    ("change-needs-two-windows", Q.change_exceptions(quarters_apart=2)),
]

CONSTRUCTION_ERRORS = [
    # (case id, builder call, wire payload) — invalid before any execution.
    (
        "bad-k",
        lambda: Q.top_slopes((1, 1), k=0),
        {"op": "top_slopes", "coord": [1, 1], "k": 0},
    ),
    (
        "exceptions-window-not-an-int",
        lambda: Q.exceptions(window="x"),
        {"op": "exceptions", "window": "x"},
    ),
    (
        "exceptions-window-zero",
        lambda: Q.exceptions(window=0),
        {"op": "exceptions", "window": 0},
    ),
    (
        "change-bad-layer",
        lambda: Q.change_exceptions(layer="x"),
        {"op": "change_exceptions", "layer": "x"},
    ),
    (
        "change-quarters-apart-not-an-int",
        lambda: Q.change_exceptions(quarters_apart="soon"),
        {"op": "change_exceptions", "quarters_apart": "soon"},
    ),
    (
        "change-quarters-apart-zero",
        lambda: Q.change_exceptions(quarters_apart=0),
        {"op": "change_exceptions", "quarters_apart": 0},
    ),
]


class TestSameEnvelopeOnBothSurfaces:
    @pytest.mark.parametrize(
        "case,spec", ERROR_SPECS, ids=[case for case, _ in ERROR_SPECS]
    )
    def test_python_and_http_raise_identically(self, service, case, spec):
        view = service.router.view()
        with pytest.raises(ReproError) as excinfo:
            execute(view, spec)
        exc = excinfo.value

        status, body = service.handle("POST", "/query", spec.to_dict())
        assert status == 400, case
        assert body["type"] == type(exc).__name__, case
        assert body["error"] == str(exc), case

    @pytest.mark.parametrize(
        "case,spec", ERROR_SPECS, ids=[case for case, _ in ERROR_SPECS]
    )
    def test_batch_entry_carries_the_same_envelope(self, service, case, spec):
        view = service.router.view()
        with pytest.raises(ReproError) as excinfo:
            execute(view, spec)
        exc = excinfo.value

        status, body = service.handle(
            "POST", "/query", {"queries": [{"op": "watch_list"}, spec.to_dict()]}
        )
        assert status == 200  # batches report per-spec errors, not 400s
        good, bad = body["results"]
        assert good["ok"] is True
        assert bad["ok"] is False
        assert bad["type"] == type(exc).__name__, case
        assert bad["error"] == str(exc), case

    @pytest.mark.parametrize(
        "case,build,payload",
        CONSTRUCTION_ERRORS,
        ids=[case for case, _, _ in CONSTRUCTION_ERRORS],
    )
    def test_construction_errors_match_decode_errors(
        self, service, case, build, payload
    ):
        """Specs invalid at construction fail the same on the wire, alone
        or as a batch entry."""
        with pytest.raises(QueryError) as excinfo:
            build()
        with pytest.raises(QueryError) as wire_excinfo:
            spec_from_dict(payload)
        assert str(wire_excinfo.value) == str(excinfo.value)

        status, body = service.handle("POST", "/query", payload)
        assert status == 400
        assert body == {"error": str(excinfo.value), "type": "QueryError"}

        status, body = service.handle("POST", "/query", {"queries": [payload]})
        assert status == 200
        assert body["results"] == [
            {"ok": False, "error": str(excinfo.value), "type": "QueryError"}
        ]

    def test_the_point_alias_is_an_unknown_op(self, service):
        status, body = service.handle("POST", "/query", {"op": "point"})
        assert status == 400
        assert body["type"] == "QueryError"
        assert body["error"].startswith("unknown query op 'point'")


class TestExpectedTypes:
    """Pin the exception classes so envelopes stay stable for clients."""

    def test_types(self, service):
        view = service.router.view()
        expectations = {
            "coord-out-of-schema": SchemaError,
            "coord-outside-lattice": SchemaError,
            "bad-dimension-name": SchemaError,
            "roll-up-past-o-layer": QueryError,
            "drill-past-m-layer": QueryError,
            "siblings-at-star": QueryError,
            "missing-required-field": QueryError,
            "missing-dim": QueryError,
            "change-needs-two-windows": StreamError,
        }
        by_case = dict(ERROR_SPECS)
        for case, exc_type in expectations.items():
            with pytest.raises(exc_type):
                execute(view, by_case[case])
