"""Tier-1 tests of the e2e ledger's own machinery.

These check the instrument, not the program: the percentile rule, the
open-loop accounting, the span arithmetic, the generators and the contract
file.  One short live smoke proves the pieces fit together; its numbers are
not comparable with a full run's and are not asserted on.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import run as ledger  # also puts src/ on sys.path when run outside tier-1
from live import run_live
from loadgen import LoadPhase, summarize
from metrics import END_TO_END, PER_LAYER, driver_end_to_end
from server import Connection
from tracer import Span, Tracer, self_times
from workloads import WORKLOADS, Workload, build_stream

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Percentile with support
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, tail", [(9, None), (39, None), (40, 75.0), (100, 90.0), (1000, 99.0), (10000, 99.9)]
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    summary = summarize([float(i) for i in range(n)])
    assert summary["n"] == n
    assert summary["p50"] == pytest.approx((n - 1) / 2)
    assert (summary["tail"] and summary["tail"]["p"]) == tail


def test_summarize_of_nothing_is_null():
    assert summarize([]) is None


# ----------------------------------------------------------------------
# Open-loop accounting: a stall is charged to every request due during it
# ----------------------------------------------------------------------
_STALL_S = 0.3
_STALLED_REQUEST = 4


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen += 1
        time.sleep(self.server.delay(self.server.seen))
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

    def log_message(self, *args):
        pass


def _run_against_stub(delay, tick_s, seconds):
    """One open-loop ingest sender against a stub that sleeps ``delay(n)``
    seconds before answering its ``n``-th request."""
    stub = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    stub.seen, stub.delay = 0, delay
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    workload = Workload(
        name="stub", why="", pool_cells=8, batch_records=2,
        ticks_per_quarter=10_000, tick_s=tick_s, reader="idle",
    )
    port = stub.server_address[1]
    conns = [Connection(port, timeout=5.0), Connection(port, timeout=5.0)]
    try:
        phase = LoadPhase(workload, build_stream(workload, 0), *conns, seconds=seconds)
        phase.run()
    finally:
        for conn in conns:
            conn.close()
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    return phase


def test_requests_due_during_a_stall_carry_the_wait():
    phase = _run_against_stub(
        lambda n: _STALL_S if n == _STALLED_REQUEST else 0.0, tick_s=0.05, seconds=1.0
    )
    assert not phase.errors
    samples = phase.samples
    assert len(samples) == 20 and all(s.ok for s in samples)
    stalled = samples[_STALLED_REQUEST - 1]
    assert stalled.latency_ms >= _STALL_S * 1000.0
    queued = [s for s in samples if stalled.sent < s.due < stalled.done]
    assert len(queued) >= 4
    for s in queued:
        # Timed from its due time, so it carries what was left of the stall
        # even though, once finally sent, the server answered at once.
        assert s.latency_ms >= (stalled.done - s.due) * 1000.0
        assert s.sent >= stalled.done > s.due
        assert (s.done - s.sent) < (s.done - s.due)
    # The sender caught up: the schedule never slowed down for the server.
    assert samples[-1].sent - samples[-1].due < 0.05


def test_a_server_that_cannot_keep_up_is_a_backlog_not_a_failure():
    # 8 batches due in 0.4 s against a server that needs 0.1 s for each.
    phase = _run_against_stub(lambda n: 0.1, tick_s=0.05, seconds=0.4)
    assert not phase.errors and phase.unsent == 0
    samples = phase.samples
    assert len(samples) == 8 and all(s.ok for s in samples)
    assert samples[-1].sent > phase.t_end > samples[-1].due  # drained past the window
    assert samples[-1].latency_ms >= 400.0  # and the wait is in the latency


# ----------------------------------------------------------------------
# Spans: self time and rebinding of from-imported names
# ----------------------------------------------------------------------
def _span(span_id, parent, start, end):
    span = Span(span_id, f"s{span_id}", parent, request=1)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps span 2: [3, 4] must not count twice
        _span(4, 1, 8.0, 12.0),  # runs past its parent: clipped at 10
        _span(5, 2, 2.0, 3.0),  # a grandchild only reduces its own parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (3.0 + 2.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


@pytest.fixture
def fake_modules():
    origin = types.ModuleType("e2e_fake_origin")
    exec("def work(x):\n    return x + 1\n", origin.__dict__)
    importer = types.ModuleType("e2e_fake_importer")
    importer.work = origin.work  # what `from e2e_fake_origin import work` does
    exec("def caller(x):\n    return work(x)\n", importer.__dict__)
    sys.modules.update({origin.__name__: origin, importer.__name__: importer})
    yield origin, importer
    del sys.modules[origin.__name__], sys.modules[importer.__name__]


def test_wrap_function_rebinds_every_importer_and_uninstall_restores(fake_modules):
    origin, importer = fake_modules
    original = origin.work
    tracer = Tracer()
    assert tracer.wrap_function(origin, "work", "layer_ms:work") == 2
    assert importer.work is origin.work is not original
    assert importer.caller(1) == 2 and not tracer.spans  # inactive: no spans
    tracer.active = True
    assert importer.caller(1) == 2
    assert [s.name for s in tracer.spans] == ["layer_ms:work"]
    tracer.uninstall()
    assert importer.work is origin.work is original


def test_wrapped_methods_nest_and_carry_counts():
    class Layer:
        def outer(self):
            time.sleep(0.002)
            return self.inner([1, 2, 3])

        def inner(self, rows):
            time.sleep(0.002)
            return len(rows)

    tracer = Tracer()
    tracer.wrap_method(Layer, "outer", "a_ms:outer")
    tracer.wrap_method(Layer, "inner", "b_ms:inner", count=lambda args, kwargs, out: out)
    tracer.active, tracer.request = True, 7
    try:
        assert Layer().outer() == 3
    finally:
        tracer.uninstall()
    outer, inner = tracer.spans
    assert (inner.parent, inner.count, inner.request) == (outer.id, 3, 7)
    selfs = self_times(tracer.spans)
    assert selfs[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert "outer" in Layer.__dict__ and not hasattr(Layer.outer, "__wrapped__")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_streams_repeat_per_seed_and_differ_across_seeds():
    dash, push = WORKLOADS["dashboard_seal"], WORKLOADS["push_fanout"]
    first = build_stream(dash, 3)
    assert first.payload_hash() == build_stream(dash, 3).payload_hash()
    assert first.payload_hash() != build_stream(dash, 4).payload_hash()
    # The pull and push workloads must see byte-identical ingest streams.
    assert first.payload_hash() == build_stream(push, 3).payload_hash()
    tick = first.first_load_tick
    assert json.loads(first.body(tick))["records"][0]["t"] == tick
    assert len(first.records(tick)) == dash.batch_records
    assert len({r.values for r in first.census_records()}) == dash.pool_cells


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract_and_mirrors_the_tables():
    doc = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"][1].startswith(doc["paths"][0] + "/")
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in doc[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"}
        assert 0 < len(row["why"]) <= 200 and "\n" not in row["why"]
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in driver_end_to_end()
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    # ISSUE 11: a metric that does not repeat within 15% is demoted, not
    # loosened; the metrics the driver lists may carry its contract's 25%.
    driver = {m.name for m in driver_end_to_end()}
    assert all(
        m.bound is None or m.bound <= (0.25 if m.name in driver else 0.15) for m in END_TO_END
    )
    assert all(0 < row["bound"] for row in doc["end_to_end"])
    setup = next(row for row in doc["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in doc["end_to_end"])


def test_every_layer_metric_points_at_a_metric_on_a_workload_that_has_it():
    end_to_end = {m.name: m for m in END_TO_END}
    for metric in PER_LAYER:
        for target, workload in metric.moves:
            assert workload in end_to_end[target].workloads, (metric.name, target, workload)
    for metric in END_TO_END:
        assert set(metric.workloads) <= set(WORKLOADS), metric.name


# ----------------------------------------------------------------------
# Live smoke
# ----------------------------------------------------------------------
def test_quick_live_smoke_reports_the_metrics_its_load_contains(tmp_path):
    name = "dashboard_seal"
    result = run_live(
        WORKLOADS[name], seed=5, seconds=ledger.QUICK_SECONDS, workdir=tmp_path, setups=1
    )
    assert result["problems"] == [] and result["failed"] == 0
    assert result["attempted"] > 0 and result["counts"]["seals"] >= 2
    for metric in END_TO_END:
        summary = result["metrics"][metric.name]
        if name not in metric.workloads:
            assert summary is None, metric.name
        elif metric.name != "failed_share":
            assert summary["p50"] > 0, metric.name
    line = json.loads(ledger._driver_line(result, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
