"""The per-layer pass: a count-bound in-process replay, untraced then traced.

The replay pushes a fixed prefix of the workload's own schedule — the same
generated bodies, the same queries at the same schedule positions —
through ``StreamCubeService.handle`` on one driver thread.  Because it is
bound by *count* (``Workload.replay_quarters`` quarters), not by time, both
commits of a comparison do equal work and every counter repeats exactly.

It runs twice: once plain (its wall time is the tracing-off reference, and
its final state is what the oracle audits), once with :mod:`tracer` spans
wrapped around each layer's entry points.  The service is the one
``python -m repro serve`` builds from the workload's flags
(``repro.__main__.build_service``), except that every thread pool built with
it gets one worker: the shard fan-out is serialized so that a layer's self
time is time it was busy, not time two shard threads spent waiting for the
interpreter lock.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.__main__ import build_service
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.wal import QuarterWAL
from repro.verify.oracle import assert_result_equal

from audit import Audit
from live import set_up
from metrics import PER_LAYER
from tracer import Span, Tracer, self_times
from workloads import Stream, Workload, build_stream

__all__ = ["install_spans", "run_replay_pass", "replay_script"]

_SMALL_QUERY = {"op": "top_slopes", "coord": [1, 1, 1], "k": 5}
_TRANSPORT_SAMPLES = 30

Step = tuple[str, Any]
#: ``serve`` flags a workload may leave out, with the CLI's defaults.
_SERVE_DEFAULTS = {
    "restore": None, "snapshot_dir": None, "snapshot_every_quarters": 0,
    "storage_dir": None, "storage_backend": "file", "hot_quarters": None,
}
_STRING_FLAGS = ("snapshot_dir", "storage_dir", "storage_backend", "restore")


# ----------------------------------------------------------------------
# Span installation: (metric, owner, attribute[, count])
# ----------------------------------------------------------------------
def _rows_in(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _cells_in(args: tuple, kwargs: dict, result: Any) -> int:
    return sum(len(part) for part in args[0])


def install_spans(tracer: Tracer) -> dict[str, int]:
    """Wrap every layer's entry points; the metric a span feeds is the part
    of its name before the colon.  Returns the running total of retained
    exception cells over all cubing runs (a span carries one count, and
    ``run_cubing``'s is its cells computed)."""
    from repro import io as repro_io
    from repro.cluster.backends import InprocBackend, ShardBackend
    from repro.cluster.worker import ShardHost
    from repro.htree.tree import HTree
    from repro.query import exec as query_exec
    from repro.query import spec as query_spec
    from repro.regression import kernels
    from repro.service import merge
    from repro.storage.files import FileColdStore
    from repro.storage.pages import ColdPage
    from repro.stream import engine as engine_mod
    from repro.stream.engine import StreamCubeEngine
    from repro.tilt import frame as tilt_frame

    totals = {"exceptions_out": 0}

    def cubing_out(args: tuple, kwargs: dict, result: Any) -> int:
        totals["exceptions_out"] += result.total_retained_exceptions
        return result.stats.cells_computed

    methods: list[tuple[str, type, tuple[str, ...]]] = [
        ("http.handle_self_ms", StreamCubeService, ("handle",)),
        ("router.execute_self_ms", QueryRouter,
         ("execute", "execute_versioned", "execute_batch", "view", "exceptions",
          "change_exceptions")),
        ("query.plan_ms", query_spec.QuerySpec, ("resolve", "cache_key")),
        ("query.encode_ms", query_exec.QueryResult, ("to_dict",)),
        ("sharding.ingest_self_ms", ShardedStreamCube, ("ingest_batch", "advance_to")),
        ("sharding.refresh_self_ms", ShardedStreamCube, ("refresh",)),
        ("sharding.window_fanout_ms", ShardedStreamCube,
         ("m_cells", "window_isbs", "change_exceptions", "o_layer_change_exceptions")),
        ("sharding.snapshot_ms", ShardedStreamCube, ("snapshot", "compact_storage")),
        ("sharding.restore_ms", ShardedStreamCube, ("restore",)),
        ("backend.dispatch_self_ms", InprocBackend, ("call", "submit", "map", "broadcast_partial")),
        ("backend.dispatch_self_ms", ShardBackend, ("broadcast",)),
        ("engine.apply_ms", StreamCubeEngine, ("apply_segments", "ingest_many", "ingest")),
        # Sealing has no public entry point of its own on the apply path
        # (apply_segments seals inline), so this one seam is private.
        ("engine.seal_ms", StreamCubeEngine, ("_seal_through", "advance_to")),
        ("engine.window_ms", StreamCubeEngine,
         ("window_isbs", "change_exceptions_between", "storage_stats")),
        ("engine.snapshot_ms", StreamCubeEngine, ("snapshot", "compact_storage")),
        ("engine.snapshot_ms", ShardHost, ("snapshot_to_file",)),
        ("engine.load_ms", StreamCubeEngine, ("load_state", "restore")),
        ("tilt.plan_ms", tilt_frame.TiltTimeFrame, ("window_plan", "slots_at")),
        ("htree.build_ms", HTree, ("insert_many", "aggregate_interior")),
        ("wal.append_ms", QuarterWAL, ("append_batch", "append_advance")),
        ("wal.truncate_ms", QuarterWAL, ("truncate_through",)),
        ("storage.put_ms", FileColdStore, ("put_segment",)),
        ("storage.get_ms", FileColdStore, ("get_segment",)),
        ("storage.page_encode_ms", ColdPage, ("encode",)),
        ("storage.page_decode_ms", ColdPage, ("decode",)),
    ]
    for metric, cls, attrs in methods:
        for attr in attrs:
            tracer.wrap_method(cls, attr, f"{metric}:{attr}")
    tracer.wrap_method(
        QuarterWAL, "replay", "wal.replay_ms:replay", lambda args, kwargs, entries: entries
    )
    functions: list[tuple[str, Any, str, Callable | None]] = [
        ("query.plan_ms", query_spec, "spec_from_dict", None),
        ("query.exec_ms", query_exec, "execute", None),
        ("merge.merge_ms", merge, "disjoint_union", _cells_in),
        ("merge.merge_ms", merge, "merge_cube", None),
        ("kernels.group_fit_ms", kernels, "group_fit", _rows_in),
        ("kernels.merge_ms", kernels, "segment_merge", None),
        ("kernels.merge_ms", kernels, "merge_time_grid", None),
        ("kernels.merge_ms", kernels, "merge_groups", None),
        ("kernels.merge_ms", kernels, "merge_standard_cols", None),
        ("kernels.merge_ms", kernels, "merge_time_cols", None),
        ("tilt.insert_ms", tilt_frame, "bulk_insert", None),
        ("cubing.run_ms", engine_mod, "run_cubing", cubing_out),
        ("io.state_encode_ms", repro_io, "engine_state_to_dict", None),
        ("io.state_decode_ms", repro_io, "engine_state_from_dict", None),
    ]
    for metric, module, attr, count in functions:
        tracer.wrap_function(module, attr, f"{metric}:{attr}", count)
    tracer.propagate_through_executors()
    return totals


# ----------------------------------------------------------------------
# The replay itself
# ----------------------------------------------------------------------
def replay_script(workload: Workload, stream: Stream) -> Iterator[Step]:
    """The load schedule's first ``replay_quarters`` quarters as steps.

    Mirrors :mod:`loadgen`: a pull slot after every batch on the dashboard
    (every 5th a miss), a fresh pull after each seal where the workload has
    one, ``flush`` where it pushes, a snapshot on the durable cadence —
    except in the last five quarters, so the closing restore has a real
    WAL tail to replay.
    """
    q = stream.ticks_per_quarter
    first_quarter = stream.first_load_tick // q
    last_quarter = first_quarter + workload.replay_quarters
    previous = stream.prefill_ticks[-1]
    slot = misses = 0
    for tick in stream.load_ticks():
        if tick // q > last_quarter:
            return
        yield ("ingest", tick)
        sealed = stream.seals(tick, previous)
        previous = tick
        if sealed:
            quarter = tick // q
            if workload.subscriptions:
                yield ("flush", None)
            if "fresh" in workload.load_ops:
                yield ("query", workload.hit_query)
            every = workload.snapshot_every
            if every and quarter % every == 0 and quarter <= last_quarter - 5:
                yield ("snapshot", None)
        if "hit" in workload.load_ops:
            if slot % 5 == 4:
                yield ("query", workload.miss_query(misses))
                misses += 1
            else:
                yield ("query", workload.hit_query)
            slot += 1


@contextmanager
def _one_worker_pools() -> Iterator[None]:
    """Every ``ThreadPoolExecutor`` created inside gets one worker."""
    original = ThreadPoolExecutor.__init__

    def init(pool: ThreadPoolExecutor, max_workers: int | None = None, *args: Any, **kwargs: Any):
        original(pool, 1, *args, **kwargs)

    ThreadPoolExecutor.__init__ = init  # type: ignore[method-assign]
    try:
        yield
    finally:
        ThreadPoolExecutor.__init__ = original  # type: ignore[method-assign]


def _serve_namespace(flags: list[str]) -> argparse.Namespace:
    """``--flag value`` pairs as the namespace ``serve``'s parser hands to
    ``build_service`` (``--request-threads`` belongs to the HTTP shell)."""
    values: dict[str, Any] = dict(_SERVE_DEFAULTS)
    for flag, value in zip(flags[0::2], flags[1::2]):
        key = flag.removeprefix("--").replace("-", "_")
        values[key] = value if key in _STRING_FLAGS else float(value) if "." in value else int(value)
    return argparse.Namespace(**values)


class _Replay:
    """One in-process service plus the driver loop over it."""

    def __init__(self, workload: Workload, stream: Stream, workdir: Path, tracer: Tracer | None):
        self.workload = workload
        self.stream = stream
        self.tracer = tracer
        self.snap_dir = workdir / "D"
        self.cold_dir = workdir / "S"
        for path in (self.snap_dir, self.cold_dir):
            shutil.rmtree(path, ignore_errors=True)
        self.acked_ticks: list[int] = []
        self.query_bytes: list[int] = []
        self.wal_bytes = 0
        self.flush_s = 0.0
        self.service = self._build()

    def _build(self, restore: bool = False) -> StreamCubeService:
        """What ``python -m repro serve [--restore D]`` builds for this
        workload's flags, with the shard fan-out serialized."""
        flags = self.workload.serve_flags(str(self.snap_dir), str(self.cold_dir))
        if restore:
            flags += ["--restore", str(self.snap_dir)]
        with _one_worker_pools():
            return build_service(_serve_namespace(flags))

    def _wal_size(self) -> int:
        path = self.snap_dir / "wal.jsonl"
        return path.stat().st_size if path.exists() else 0

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def request(self, method: str, path: str, body: bytes | None) -> bytes:
        """decode -> ``handle`` -> encode, as the HTTP shell does."""
        with self._span("http.json_ms:loads"):
            payload = json.loads(body) if body is not None else None
        status, response = self.service.handle(method, path, payload)
        with self._span("http.json_ms:dumps"):
            data = json.dumps(response).encode("utf-8")
        if status != 200:
            raise RuntimeError(f"replay {method} {path} -> {status}: {data[:200]!r}")
        return data

    def prefill(self) -> None:
        stream = self.stream
        self.request("POST", "/ingest", stream.census_body)
        for tick in stream.prefill_ticks:
            self.request("POST", "/ingest", stream.body(tick))
        for payload in self.workload.subscriptions:
            self.request("POST", "/subscribe", json.dumps(payload).encode())
        self.request("POST", "/query", json.dumps(self.workload.hit_query).encode())
        self.service.subscriptions.flush()

    def run(self) -> float:
        """Run the script; returns its wall time in seconds."""
        stream, tracer = self.stream, self.tracer
        wal_mark = self._wal_size()
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        for number, (kind, arg) in enumerate(replay_script(self.workload, stream), start=1):
            if tracer is not None:
                tracer.request = number
            if kind == "ingest":
                self.request("POST", "/ingest", stream.body(arg))
                self.acked_ticks.append(arg)
            elif kind == "query":
                self.query_bytes.append(
                    len(self.request("POST", "/query", json.dumps(arg).encode()))
                )
            elif kind == "flush":
                t0 = time.perf_counter()
                with self._span("subs.dispatch_ms:flush"):
                    if not self.service.subscriptions.flush():
                        raise RuntimeError("subscription dispatcher did not go idle")
                self.flush_s += time.perf_counter() - t0
            else:  # snapshot: the WAL is truncated, so bank its growth first
                self.wal_bytes += self._wal_size() - wal_mark
                self.request("POST", "/admin/snapshot", b"{}")
                wal_mark = self._wal_size()
        wall = time.perf_counter() - started
        self.wal_bytes += self._wal_size() - wal_mark
        return wall

    def facts(self) -> dict[str, Any]:
        """Counters read from the service's own stats blocks (the same ones
        ``GET /stats`` serves), taken before :meth:`restore` closes it."""
        service = self.service
        return {
            "router": service.router.stats(),
            "subs": service.subscriptions.stats(),
            "storage": service.cube.storage_stats() or {},
            "cells": service.cube.tracked_cells,
            "snapshot_bytes": sum(p.stat().st_size for p in self.snap_dir.glob("*.json"))
            if self.workload.durable else 0,
        }

    def restore(self) -> None:
        """``serve --restore`` in-process: load the last snapshot, reattach
        the cold store, replay the WAL tail, write the new baseline
        snapshot (traced when a tracer is on)."""
        expected = self.service.cube.records_ingested
        self.service.close()
        self.service = self._build(restore=True)
        restored = self.service.cube.records_ingested
        if restored != expected:
            raise RuntimeError(f"restore lost records: {restored} != {expected}")

    def timed_queries(self, spec: dict[str, Any]) -> float:
        """In-process p50 (ms) of decode + handle + encode for one spec."""
        body = json.dumps(spec).encode()
        return _median_ms(lambda: self.request("POST", "/query", body))


def _median_ms(call: Callable[[], Any]) -> float:
    """p50 (ms) of ``_TRANSPORT_SAMPLES`` back-to-back calls after one warm-up."""
    call()
    samples = []
    for _ in range(_TRANSPORT_SAMPLES):
        t0 = time.perf_counter()
        call()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def _live_transport(workload: Workload, stream: Stream, workdir: Path) -> dict[str, float]:
    """Client-observed p50 (ms) of the hit pull and of a small cached pull
    against a real server in this workload's prefilled state."""
    server, conn, _, _ = set_up(workload, stream, workdir, "transport")

    def pull(body: bytes) -> None:  # the client reads the answer but does not decode it
        status, _ = conn.request("POST", "/query", body)
        if status != 200:
            raise RuntimeError(f"transport probe query -> {status}")

    try:
        return {
            key: _median_ms(lambda body=json.dumps(spec).encode(): pull(body))
            for key, spec in (("hit", workload.hit_query), ("small", _SMALL_QUERY))
        }
    finally:
        server.stop()


def _layer_metrics(
    spans: list[Span],
    replay: _Replay,
    facts: dict[str, Any],
    exceptions_out: int,
    plain_wall: float,
    traced_wall: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """Fold spans and counters into the per-layer table (values in the
    units :data:`metrics.PER_LAYER` declares) plus calls per span name."""
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    handle_inclusive = under_handle = 0.0
    refresh_inclusive: list[float] = []
    for span in spans:
        metric = span.name.split(":", 1)[0]
        self_ms[metric] = self_ms.get(metric, 0.0) + selfs[span.id] * 1000.0
        calls[span.name] = calls.get(span.name, 0) + 1
        counts[metric] = counts.get(metric, 0) + span.count
        if span.name == "sharding.refresh_self_ms:refresh":
            refresh_inclusive.append(span.duration * 1000.0)
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        if root.name == "http.handle_self_ms:handle":
            under_handle += selfs[span.id] * 1000.0
            if span is root:
                handle_inclusive += span.duration * 1000.0

    router, subs, storage = facts["router"], facts["subs"], facts["storage"]
    lookups = router["cache_hits"] + router["cache_misses"]
    records = len(replay.acked_ticks) * replay.workload.batch_records
    values: dict[str, float] = {
        m.name: self_ms.get(m.name, 0.0) for m in PER_LAYER if m.unit == "ms"
    }
    values.update(
        {
            "http.handle_total_ms": handle_inclusive,
            "http.resp_bytes_per_query": (
                statistics.fmean(replay.query_bytes) if replay.query_bytes else 0.0
            ),
            "router.hit_ratio": router["cache_hits"] / lookups if lookups else 0.0,
            "router.refreshes": router["refreshes"],
            "router.specs_executed": router["specs_executed"],
            "router.single_flight_joins": router["single_flight_joins"],
            "sharding.refresh_ms": sum(refresh_inclusive),
            "sharding.refresh_per_call_ms": (
                statistics.median(refresh_inclusive) if refresh_inclusive else 0.0
            ),
            "merge.cells_in": counts.get("merge.merge_ms", 0),
            "backend.calls": sum(
                n for name, n in calls.items() if name.startswith("backend.dispatch_self_ms:")
            ),
            "engine.records": records,
            "engine.quarters_sealed": calls.get("sharding.ingest_self_ms:ingest_batch", 0)
            // replay.workload.ticks_per_quarter,
            "engine.cells": facts["cells"],
            "kernels.rows": counts.get("kernels.group_fit_ms", 0),
            "cubing.cells_out": counts.get("cubing.run_ms", 0),
            "cubing.exceptions_out": exceptions_out,
            "subs.dispatch_ms": replay.flush_s * 1000.0,
            "subs.dispatch_rounds": subs["dispatch_rounds"],
            "subs.updates_enqueued": subs["updates_enqueued"],
            "subs.updates_dropped": subs["updates_dropped"],
            "subs.coalesced_share": (
                1.0 - subs["dispatch_rounds"] / subs["seals_signaled"]
                if subs["seals_signaled"] else 0.0
            ),
            "wal.bytes_per_record": replay.wal_bytes / records if replay.wal_bytes else 0.0,
            "storage.pages_spilled": storage.get("pages_spilled", 0),
            "storage.cold_faults": storage.get("cold_faults", 0),
            "storage.bytes_on_disk": storage.get("bytes_on_disk", 0),
            "io.snapshot_bytes_per_cell": facts["snapshot_bytes"] / facts["cells"],
            "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
            "trace.coverage_share": under_handle / handle_inclusive if handle_inclusive else 0.0,
        }
    )
    return values, calls


def _audit_final_state(replay: _Replay) -> tuple[int, list[str]]:
    """Oracle check of the plain replay's end state; ``(checks, problems)``.

    The three open-loop workloads compare the whole cube result
    (``assert_result_equal``: m-layer, o-layer, exception flags, retained
    exceptions); ``ingest_firehose`` compares its 64 sampled m-cells.
    """
    workload = replay.workload
    sampled = workload.tick_s is None
    audit = Audit(workload, replay.stream, replay.acked_ticks, sampled=sampled)
    if sampled:
        audit.final_state(
            lambda payload: json.loads(
                replay.request("POST", "/query", json.dumps(payload).encode())
            )
        )
        return audit.checks, audit.mismatches
    try:
        assert_result_equal(
            replay.service.router.result(workload.window), audit.oracle, workload.window, audit.tol
        )
    except AssertionError as exc:
        return 1, [f"replay cube result: {exc}"]
    return 1, []


def run_replay_pass(
    workload: Workload, seed: int, workdir: Path, trace_out: Path | None = None
) -> dict[str, Any]:
    """The whole per-layer pass for one workload: plain replay (+ oracle
    audit, + in-process transport reference), traced replay, live transport
    probe.  Returns per-layer values, span call counts, and the verdict."""
    workdir.mkdir(parents=True, exist_ok=True)
    stream = build_stream(workload, seed)

    plain = _Replay(workload, stream, workdir / "plain", None)
    try:
        plain.prefill()
        plain_wall = plain.run()
        checks, problems = _audit_final_state(plain)
        inproc = {
            "hit": plain.timed_queries(workload.hit_query),
            "small": plain.timed_queries(_SMALL_QUERY),
        }
    finally:
        plain.service.close()
    # Start the traced replay from the heap the plain one started from: how
    # often the collector runs a full pass depends on how much already lives.
    plain_ticks = plain.acked_ticks
    del plain
    gc.collect()

    tracer = Tracer()
    exceptions = install_spans(tracer)
    try:
        traced = _Replay(workload, stream, workdir / "traced", tracer)
        try:
            traced.prefill()
            traced_wall = traced.run()
            tracer.active = False
            facts = traced.facts()
            if workload.durable:
                tracer.active = True
                tracer.request += 1
                traced.restore()
        finally:
            tracer.active = False
            traced.service.close()
    finally:
        tracer.uninstall()
    values, calls = _layer_metrics(
        tracer.spans, traced, facts, exceptions["exceptions_out"], plain_wall, traced_wall
    )
    if traced.acked_ticks != plain_ticks:
        problems.append("traced and plain replays acknowledged different ticks")

    wire = _live_transport(workload, stream, workdir / "transport")
    values["http.transport_ms"] = wire["hit"] - inproc["hit"]
    values["http.transport_small_ms"] = wire["small"] - inproc["small"]

    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
        tracer.dump_jsonl(trace_out / f"spans-{workload.name}.jsonl")
    return {
        "workload": workload.name,
        "seed": seed,
        "values": values,
        "span_calls": dict(sorted(calls.items())),
        "spans": len(tracer.spans),
        "replay_wall_s": {"plain": plain_wall, "traced": traced_wall},
        "transport_ms": {"wire": wire, "in_process": inproc},
        "wal_entries_replayed": sum(
            span.count for span in tracer.spans if span.name == "wal.replay_ms:replay"
        ),
        "checks": checks + 1,
        "problems": problems,
    }
