"""The e2e ledger's span hooks resolve against the real ``repro`` package.

``benchmarks/e2e/replay.py`` wraps each layer's entry points *by name*
(``cls.__dict__[attr]`` for methods, ``getattr(module, attr)`` for
functions).  A renamed or moved hook would otherwise surface as a
``KeyError`` forty minutes into a benchmark run; here it is a tier-1
failure naming the missing attribute, in under a second.  The same goes
for what the harness calls directly on the service's router, cube and
subscription registry, for the ``serve`` flags each workload passes, and
for the contract the traced pass rests on: ``handle`` answers every read
route with a dict that ``json.dumps`` takes, whatever the socket shell
writes instead.
Hooks that only the harness keeps alive are listed in :data:`HARNESS_ONLY`,
checked to have no caller in ``src/``.  Reads ``benchmarks/e2e``, edits
nothing there.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import add_serve_arguments, build_service
from repro.cubing.policy import GlobalSlopeThreshold
from repro.query import exec as query_exec
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import SubscriptionRegistry
from repro.stream.generator import DatasetSpec

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def test_every_span_hook_resolves_and_uninstalls():
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    import replay
    from tracer import Tracer

    methods = {
        name: QueryRouter.__dict__[name]
        for name in ("execute", "exceptions", "change_exceptions")
    }
    execute = query_exec.execute
    tracer = Tracer()
    try:
        replay.install_spans(tracer)
        for name, original in methods.items():
            assert QueryRouter.__dict__[name] is not original, name
        assert query_exec.execute is not execute
    finally:
        tracer.uninstall()
    for name, original in methods.items():
        assert QueryRouter.__dict__[name] is original, name
    assert query_exec.execute is execute


#: Names the tracer wraps that nothing in ``src/`` calls: they are kept
#: only so the frozen harness resolves.  Each is listed once, here, so the
#: change that retires the tracer's hook table deletes them from this list
#: together with their definitions.  A dotted ``Class.method`` name is a
#: method; see :data:`RECEIVERS` for how its callers are told apart.
HARNESS_ONLY = [
    ("repro.service.merge", "merge_cube"),
    ("repro.regression.kernels", "merge_groups"),
    ("repro.regression.kernels", "merge_standard_cols"),
    ("repro.regression.kernels", "merge_time_cols"),
    ("repro.tilt.frame", "bulk_insert"),
    ("repro.cluster.backends", "InprocBackend.call"),
    ("repro.cluster.backends", "InprocBackend.submit"),
    ("repro.stream.engine", "StreamCubeEngine.change_exceptions_between"),
]

#: A harness-only method is called only through a receiver whose source
#: text names its owner (``self._backend.submit``, ``backend.submit``,
#: ``shard_engine.change_exceptions_between``), so a same-named method of
#: another object (a thread pool's ``submit``) is not a caller.
RECEIVERS = {"InprocBackend": "backend", "StreamCubeEngine": "engine"}


def resolve(module: str, name: str) -> tuple[object, str]:
    """The object holding a harness-only name, and the attribute."""
    owner: object = importlib.import_module(module)
    *classes, attr = name.split(".")
    for part in classes:
        owner = getattr(owner, part)
    return owner, attr


def current(owner: object, attr: str) -> object:
    """What the tracer rebinds: a class's own ``__dict__`` entry (how
    ``replay`` looks methods up) or a module attribute."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def harness_only_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` for every call of a harness-only name in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = getattr(func, "id", getattr(func, "attr", None))
        for _, name in HARNESS_ONLY:
            *classes, attr = name.split(".")
            if callee != attr:
                continue
            if classes:
                hint = RECEIVERS[classes[-1]]
                if not isinstance(func, ast.Attribute) or (
                    hint not in ast.unparse(func.value).lower()
                ):
                    continue
            found.append((node.lineno, name))
    return found


def test_every_harness_only_name_is_a_hook():
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    import replay
    from tracer import Tracer

    targets = [resolve(module, name) for module, name in HARNESS_ONLY]
    originals = [current(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    try:
        replay.install_spans(tracer)
        for (owner, attr), original in zip(targets, originals):
            assert current(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert current(owner, attr) is original, attr


def test_no_src_module_calls_a_harness_only_name():
    src = Path(repro.__file__).parent
    calls = [
        f"{path.relative_to(src)}:{line} calls {name}"
        for path in sorted(src.rglob("*.py"))
        for line, name in harness_only_calls(ast.parse(path.read_text()))
    ]
    assert not calls, "a harness-only name has a caller; drop it from HARNESS_ONLY"


def test_the_caller_check_tells_a_backend_submit_from_a_pool_submit():
    tree = ast.parse(
        "self._backend.submit(0, 'apply_segments')\n"
        "backend.submit(1, 'snapshot')\n"
        "self._pool.submit(handler, request)\n"
        "merge_cube(cube, parts)\n"
        "engine.change_exceptions_between(0, 4, 7)\n"
    )
    assert harness_only_calls(tree) == [
        (1, "InprocBackend.submit"),
        (2, "InprocBackend.submit"),
        (4, "merge_cube"),
        (5, "StreamCubeEngine.change_exceptions_between"),
    ]


@pytest.mark.parametrize(
    "owner, name",
    [
        (StreamCubeService, "handle"),
        (query_exec.QueryResult, "to_dict"),
        (QueryRouter, "execute_versioned"),
    ],
)
def test_the_traced_pass_entry_points_resolve(owner, name):
    """The traced replay drives ``handle`` and times ``to_dict`` and
    ``execute_versioned`` by name (``cls.__dict__[attr]``)."""
    assert callable(owner.__dict__[name])


def test_handle_bodies_are_json_dicts_on_the_read_routes():
    """``replay.request`` does ``json.dumps(handle(...)[1])``: the reply
    objects the socket shell writes as bytes must reach it as dicts."""
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    cube = ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=2, ticks_per_quarter=4
    )
    service = StreamCubeService(cube, QueryRouter(cube, window_quarters=2))
    try:
        sub = service.handle("POST", "/subscribe", {"watch": True})[1]
        rows = [
            {"values": [v, v], "t": t, "z": float(v * t)}
            for t in range(3 * 4)
            for v in range(9)
        ]
        assert service.handle("POST", "/ingest", {"records": rows})[0] == 200
        assert service.subscriptions.flush(10.0)
        for method, path, payload in (
            ("POST", "/query", {"op": "observation_deck"}),
            ("POST", "/query", {"queries": [{"op": "watch_list"}]}),
            ("GET", f"/updates?subscription={sub['subscription']}", None),
        ):
            status, body = service.handle(method, path, payload)
            assert status == 200 and type(body) is dict, path
            assert json.loads(json.dumps(body)) == body, path
        assert body["updates"], "no pushed update to render"
    finally:
        service.close()


@pytest.mark.parametrize(
    "attr, owner",
    [
        ("router", QueryRouter),
        ("cube", ShardedStreamCube),
        ("subscriptions", SubscriptionRegistry),
    ],
)
def test_everything_the_harness_calls_on_the_service_exists(attr, owner):
    called = {
        name
        for path in E2E.glob("*.py")
        for name in re.findall(rf"\.{attr}\.(\w+)", path.read_text())
    }
    assert called, f"the harness no longer touches service.{attr}?"
    missing = sorted(name for name in called if not hasattr(owner, name))
    assert not missing, f"{owner.__name__} lost {missing}; benchmarks/e2e calls them"


def _workloads():
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    from workloads import WORKLOADS

    return WORKLOADS


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_every_workload_serve_flags_parse_and_build(name, tmp_path):
    """The flags each workload starts ``python -m repro serve`` with parse
    with the real parser, and the service they describe builds."""
    flags = _workloads()[name].serve_flags(
        str(tmp_path / "snap"), str(tmp_path / "cold")
    )
    build_service(serve_parser().parse_args(flags)).close()


def serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    return parser


def test_hidden_storage_backend_flag_accepts_only_the_file_store():
    """``durable_deep`` still passes ``--storage-backend file``; any other
    store name is an argparse error, not a silently ignored value."""
    assert serve_parser().parse_args(["--storage-backend", "file"])
    with pytest.raises(SystemExit):
        serve_parser().parse_args(["--storage-backend", "shoebox"])


def test_hidden_storage_backend_flag_is_not_in_help():
    assert "--storage-backend" not in serve_parser().format_help()
    assert "--storage-dir" in serve_parser().format_help()
