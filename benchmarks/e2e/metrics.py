"""Every metric the ledger reports, by name: unit, direction, bound, meaning.

An end-to-end metric exists on the workloads whose own load contains the
operation (``EndToEnd.workloads``) and is ``null`` on the others.
``--check-agreement`` and the committed baseline cover every (metric,
workload) pair that exists.  ``BENCHMARK.json`` at the repo root is the
driver-facing copy of the part of this table that *every* workload reports
(its contract wants each listed metric from each workload);
``test_e2e_harness.py`` keeps the two equal.  The table exists so that which
end-to-end number each layer metric should move is written down *before*
any measurement (choosing-metrics guide, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["END_TO_END", "PER_LAYER", "EndToEnd", "PerLayer", "driver_end_to_end"]

_FIRE, _DASH, _PUSH, _DEEP = "ingest_firehose", "dashboard_seal", "push_fanout", "durable_deep"
_ALL = (_FIRE, _DASH, _PUSH, _DEEP)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the other run's value by which the metric may get worse;
    #: ``None`` marks a detail that is reported but never compared (a metric
    #: whose measured spread does not fit its bound is demoted).
    bound: float | None
    definition: str
    #: The workloads whose own load contains the operation.
    workloads: tuple[str, ...] = _ALL


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: tuple[tuple[str, str], ...] = ()
    #: A ``ms`` metric is a total over the replay unless it is per call.
    per_call: bool = False


# Bounds are ISSUE 11's, loosened to at most 15% where the measured spread
# over ten seeds (README, "Spread") asked for it.  The millisecond-scale
# medians spread 12-25% from run to run on the sandbox this was built on
# (its speed drifts by that much over tens of seconds), so they are details.
# The three 25% rows are the driver's: its contract wants a spread under a
# third of the bound, gives set-up the largest, and caps a bound at 25%.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "spawn -> /readyz 200 -> prefill sealed -> subscriptions -> warm query; median of 3 set-ups"),
    EndToEnd("ingest_rec_per_s", "records/s", "higher", 0.15,
             "records acked after the first batch / (last ack - first send): capacity on ingest_firehose, the offered rate elsewhere unless a backlog forms"),
    EndToEnd("ingest_ack_p50_ms", "ms", "lower", None,
             "/ingest batches of the load window that do not cross a quarter boundary, from due time"),
    EndToEnd("ingest_ack_p90_ms", "ms", "lower", None,
             "same population, p90: the acks that waited on a refresh's read cut"),
    EndToEnd("seal_ack_p50_ms", "ms", "lower", None,
             "/ingest batches of the load window that cross a quarter boundary (seal, demotion, listeners)"),
    EndToEnd("query_hit_p50_ms", "ms", "lower", None,
             "repeated spec between seals", (_DASH,)),
    EndToEnd("query_miss_p50_ms", "ms", "lower", None,
             "never-repeated spec answered from a warm view", (_DASH,)),
    EndToEnd("query_fresh_p50_ms", "ms", "lower", 0.15,
             "first pull after a seal, timed from that seal's ack (pays the view refresh)",
             (_DASH, _DEEP)),
    EndToEnd("push_lag_p50_ms", "ms", "lower", 0.15,
             "due time of the sealing batch -> long-poll client holds the update for that quarter",
             (_PUSH,)),
    EndToEnd("result_lag_p50_ms", "ms", "lower", 0.25,
             "due time of a sealing batch -> the first consequence of that seal the workload's client waits for: the pushed update (push_fanout), the fresh pull's answer (dashboard_seal, durable_deep), the seal's own ack (ingest_firehose)"),
    EndToEnd("snapshot_p50_ms", "ms", "lower", 0.15,
             "POST /admin/snapshot", (_DEEP,)),
    EndToEnd("recovery_s", "s", "lower", 0.15,
             "SIGKILL -> serve --restore -> first /query body byte-equal to the pre-kill body; median of 3",
             (_DEEP,)),
    EndToEnd("cpu_us_per_record", "us", "lower", 0.25,
             "server CPU time (user + system) over the load window / records acked in it: what the whole mix costs per record, reads and snapshots included"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "server VmHWM at the end of the load window"),
    EndToEnd("disk_bytes_per_cell", "bytes", "lower", 0.02,
             "(snapshot + WAL + cold store bytes) / tracked cells after the first crash", (_DEEP,)),
    EndToEnd("failed_share", "ratio", "lower", 0.0,
             "(non-200 + timeouts + oracle mismatches) / attempted; must be 0 (every scheduled batch is sent, so none is left undelivered)"),
)


def driver_end_to_end() -> tuple[EndToEnd, ...]:
    """The rows ``BENCHMARK.json`` lists: compared, never 0, and reported by
    every workload (``failed_share`` travels as ``failed`` / ``attempted``)."""
    return tuple(
        m for m in END_TO_END if m.bound and set(m.workloads) == set(_ALL)
    )


def _ms(name: str, layer: str, *moves: tuple[str, str], per_call: bool = False) -> PerLayer:
    return PerLayer(name, "ms", "lower", layer, moves, per_call)


def _count(name: str, layer: str, better: str = "lower", unit: str = "count") -> PerLayer:
    return PerLayer(name, unit, better, layer)


PER_LAYER: tuple[PerLayer, ...] = (
    # service.http ------------------------------------------------------
    _ms("http.handle_total_ms", "service.http"),
    _ms("http.handle_self_ms", "service.http",
        ("ingest_rec_per_s", _FIRE), ("query_hit_p50_ms", _DASH)),
    _ms("http.json_ms", "service.http",
        ("ingest_rec_per_s", _FIRE), ("query_hit_p50_ms", _DASH)),
    _count("http.resp_bytes_per_query", "service.http", unit="bytes"),
    _ms("http.transport_ms", "service.http",
        ("query_hit_p50_ms", _DASH), ("query_fresh_p50_ms", _DASH), ("query_fresh_p50_ms", _DEEP),
        per_call=True),
    _ms("http.transport_small_ms", "service.http",
        ("ingest_ack_p50_ms", _FIRE), ("ingest_rec_per_s", _FIRE), per_call=True),
    # service.router ----------------------------------------------------
    _ms("router.execute_self_ms", "service.router",
        ("query_hit_p50_ms", _DASH), ("query_miss_p50_ms", _DASH)),
    _count("router.hit_ratio", "service.router", "higher", "ratio"),
    _count("router.refreshes", "service.router"),
    _count("router.specs_executed", "service.router"),
    _count("router.single_flight_joins", "service.router"),
    # query -------------------------------------------------------------
    _ms("query.plan_ms", "query", ("query_hit_p50_ms", _DASH)),
    _ms("query.exec_ms", "query", ("query_miss_p50_ms", _DASH)),
    _ms("query.encode_ms", "query", ("query_hit_p50_ms", _DASH)),
    # service.sharding --------------------------------------------------
    _ms("sharding.ingest_self_ms", "service.sharding", ("ingest_rec_per_s", _FIRE)),
    _ms("sharding.refresh_ms", "service.sharding",
        ("query_fresh_p50_ms", _DASH), ("push_lag_p50_ms", _PUSH)),
    _ms("sharding.refresh_per_call_ms", "service.sharding", ("query_fresh_p50_ms", _DASH),
        per_call=True),
    _ms("sharding.refresh_self_ms", "service.sharding"),
    _ms("sharding.window_fanout_ms", "service.sharding", ("query_fresh_p50_ms", _DASH)),
    _ms("sharding.snapshot_ms", "service.sharding", ("snapshot_p50_ms", _DEEP)),
    _ms("sharding.restore_ms", "service.sharding", ("recovery_s", _DEEP)),
    # service.merge -----------------------------------------------------
    _ms("merge.merge_ms", "service.merge", ("query_fresh_p50_ms", _DASH)),
    _count("merge.cells_in", "service.merge"),
    # cluster.backends --------------------------------------------------
    _ms("backend.dispatch_self_ms", "cluster.backends", ("ingest_ack_p50_ms", _FIRE)),
    _count("backend.calls", "cluster.backends"),
    # stream.engine -----------------------------------------------------
    _ms("engine.apply_ms", "stream.engine", ("ingest_rec_per_s", _FIRE)),
    _ms("engine.seal_ms", "stream.engine", ("seal_ack_p50_ms", _FIRE)),
    _ms("engine.window_ms", "stream.engine", ("query_fresh_p50_ms", _DASH)),
    _ms("engine.snapshot_ms", "stream.engine", ("snapshot_p50_ms", _DEEP)),
    _ms("engine.load_ms", "stream.engine", ("recovery_s", _DEEP)),
    _count("engine.records", "stream.engine", "higher"),
    _count("engine.quarters_sealed", "stream.engine", "higher"),
    _count("engine.cells", "stream.engine", "higher"),
    # regression.kernels ------------------------------------------------
    _ms("kernels.group_fit_ms", "regression.kernels", ("seal_ack_p50_ms", _FIRE)),
    _ms("kernels.merge_ms", "regression.kernels", ("query_fresh_p50_ms", _DASH)),
    _count("kernels.rows", "regression.kernels"),
    # tilt.frame --------------------------------------------------------
    _ms("tilt.insert_ms", "tilt.frame", ("seal_ack_p50_ms", _FIRE)),
    _ms("tilt.plan_ms", "tilt.frame", ("query_fresh_p50_ms", _DEEP)),
    # cubing + htree ----------------------------------------------------
    _ms("cubing.run_ms", "cubing",
        ("query_fresh_p50_ms", _DASH), ("push_lag_p50_ms", _PUSH)),
    _ms("htree.build_ms", "htree",
        ("query_fresh_p50_ms", _DASH), ("push_lag_p50_ms", _PUSH)),
    _count("cubing.cells_out", "cubing"),
    _count("cubing.exceptions_out", "cubing"),
    # service.subscriptions ---------------------------------------------
    _ms("subs.dispatch_ms", "service.subscriptions",
        ("push_lag_p50_ms", _PUSH), ("seal_ack_p50_ms", _PUSH)),
    _count("subs.dispatch_rounds", "service.subscriptions"),
    _count("subs.updates_enqueued", "service.subscriptions", "higher"),
    _count("subs.updates_dropped", "service.subscriptions"),
    _count("subs.coalesced_share", "service.subscriptions", "lower", "ratio"),
    # stream.wal --------------------------------------------------------
    _ms("wal.append_ms", "stream.wal", ("ingest_ack_p50_ms", _DEEP)),
    _count("wal.bytes_per_record", "stream.wal", unit="bytes"),
    _ms("wal.truncate_ms", "stream.wal", ("snapshot_p50_ms", _DEEP)),
    _ms("wal.replay_ms", "stream.wal", ("recovery_s", _DEEP)),
    # storage -----------------------------------------------------------
    _ms("storage.put_ms", "storage", ("seal_ack_p50_ms", _DEEP)),
    _ms("storage.get_ms", "storage", ("query_fresh_p50_ms", _DEEP)),
    _ms("storage.page_encode_ms", "storage", ("seal_ack_p50_ms", _DEEP)),
    _ms("storage.page_decode_ms", "storage", ("query_fresh_p50_ms", _DEEP)),
    _count("storage.pages_spilled", "storage"),
    _count("storage.cold_faults", "storage"),
    _count("storage.bytes_on_disk", "storage", unit="bytes"),
    # io ----------------------------------------------------------------
    _ms("io.state_encode_ms", "io", ("snapshot_p50_ms", _DEEP)),
    _ms("io.state_decode_ms", "io", ("recovery_s", _DEEP)),
    _count("io.snapshot_bytes_per_cell", "io", unit="bytes"),
    # tracer (instrument health) ----------------------------------------
    _count("trace.overhead_share", "tracer", "lower", "ratio"),
    _count("trace.coverage_share", "tracer", "higher", "ratio"),
)
