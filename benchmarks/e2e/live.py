"""The end-to-end pass: a real ``serve`` subprocess under socket load.

One call to :func:`run_live` is one workload, tracing off:

1. *set-up*, ``SETUPS`` times (timed; ``setup_s`` is the median): spawn,
   ``/readyz``, prefill (census + sealed quarters), subscriptions, one warm
   query.  All but the last server are stopped at once;
2. *load* against the last one: the workload's two senders for the whole
   window (see :mod:`loadgen`).  One server lifetime, because what makes a
   millisecond-scale latency differ between runs on this kind of machine is
   *when* it was measured, not which process served it (5 s stretches of
   one process differ as much as 5 s processes do), so the window is
   better spent measuring than setting up;
3. ``durable_deep`` only, ``RECOVERIES`` times: a WAL tail, ``SIGKILL``,
   ``serve --restore``;
4. *audit*: the acknowledged stream rebuilt into the oracle and compared.

Steps 1–3 are timed into metrics, each by its own clock; the audit runs
after them.  A metric whose operation the workload's load does not contain
is ``null``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

from audit import Audit
from loadgen import LoadPhase, Sample, percentile, summarize
from server import Connection, Server
from workloads import Stream, Workload, build_stream

__all__ = ["RECOVERIES", "SETUPS", "run_live", "set_up"]

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
SETUPS = 3
RECOVERIES = 3
#: Quarters streamed between the last snapshot and each SIGKILL, so every
#: recovery replays a real WAL tail.
_UNSNAPSHOTTED_QUARTERS = 6
_ACK_KINDS = ("ingest_ack", "seal_ack")
_PULL_KINDS = ("hit", "miss", "fresh")


def _spawn(workload: Workload, workdir: Path, tag: str, restore: bool = False) -> Server:
    snap, cold = workdir / "D", workdir / "S"
    flags = workload.serve_flags(str(snap), str(cold))
    if restore:
        flags += ["--restore", str(snap)]
    return Server(flags, SRC_DIR, workdir / f"server-{tag}.log")


def set_up(
    workload: Workload, stream: Stream, workdir: Path, tag: str
) -> tuple[Server, Connection, list[str], float]:
    """Spawn → ready → prefill sealed → subscriptions → warm query.

    Returns the server, the connection used, the subscription ids and the
    seconds it all took.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    for name in ("D", "S"):
        shutil.rmtree(workdir / name, ignore_errors=True)
    server = _spawn(workload, workdir, tag)
    try:
        conn = server.wait_ready()
        for body in (stream.census_body, *map(stream.body, stream.prefill_ticks)):
            status, data = conn.request("POST", "/ingest", body)
            if status != 200:
                raise RuntimeError(f"prefill batch rejected: {status} {data[:200]!r}")
        sub_ids = [
            conn.json("POST", "/subscribe", payload)["subscription"]
            for payload in workload.subscriptions
        ]
        conn.json("POST", "/query", workload.hit_query)
        return server, conn, sub_ids, time.perf_counter() - server.spawned_at
    except BaseException:
        server.stop()
        raise


def _disk_bytes(workdir: Path) -> int:
    return sum(
        path.stat().st_size
        for name in ("D", "S")
        for path in (workdir / name).rglob("*")
        if path.is_file()
    )


def _recover(
    workload: Workload, workdir: Path, phase: LoadPhase, server: Server, tag: str
) -> tuple[Server, float, bool]:
    """Stream a WAL tail, note the answer, ``SIGKILL``, restore, compare.

    Returns the restored server, ``SIGKILL`` → first ``/query`` body in
    seconds, and whether that body was byte-equal to the pre-kill one.
    """
    for _ in range(_UNSNAPSHOTTED_QUARTERS):
        phase.seal_one_more()
    query = json.dumps(workload.hit_query).encode()
    before = phase.ingest_conn.request("POST", "/query", query)
    killed_at = time.perf_counter()
    server.kill()
    restored = _spawn(workload, workdir, tag, restore=True)
    try:
        conn = restored.wait_ready()
        after = conn.request("POST", "/query", query)
        elapsed = time.perf_counter() - killed_at
        phase.ingest_conn = conn
        return restored, elapsed, before[0] == 200 and after == before
    except BaseException:
        restored.stop()
        raise


def _classify(phase: LoadPhase) -> dict[str, list[float]]:
    """Latency populations of the load window by kind; pulls that were on
    the wire while a sealing batch was are re-tagged ``straddle``."""
    seals = [(e.sent, e.done) for e in phase.seal_events]
    groups: dict[str, list[float]] = {}
    for s in phase.samples:
        if not s.ok or s.tail:
            continue
        kind = s.kind
        if kind in _PULL_KINDS and any(s.sent < done and sent < s.done for sent, done in seals):
            kind = "straddle"
        groups.setdefault(kind, []).append(s.latency_ms)
    return groups


def _push_lags(phase: LoadPhase) -> list[float]:
    """Due time of the sealing batch → client holds the update whose
    ``quarter`` that batch sealed."""
    due = {e.quarter: e.due for e in phase.seal_events}
    return [
        (received - due[update["quarter"]]) * 1000.0
        for received, update in phase.updates
        if update["quarter"] in due
    ]


def _result_lags(workload: Workload, phase: LoadPhase, groups: dict[str, list[float]]) -> list[float]:
    """Due time of a sealing batch -> the first consequence of that seal
    this workload's client waits for: the pushed update, the fresh pull's
    answer, or (no reads at all) the seal's own acknowledgement."""
    if "push" in workload.load_ops:
        return groups["push"]
    if "fresh" in workload.load_ops:
        return phase.fresh_lags_ms
    return groups.get("seal_ack", [])


def _lateness(samples: list[Sample]) -> dict[str, float] | None:
    late = sorted((s.sent - s.due) * 1000.0 for s in samples)
    if not late:
        return None
    return {"p50_ms": percentile(late, 50.0), "max_ms": late[-1], "n": len(late)}


def _delivery(phase: LoadPhase) -> tuple[int, float]:
    """Batches acknowledged after the first one, and the seconds from the
    first batch's send to the last acknowledgement: their ratio is the rate
    at which the server took the stream (the offered rate on an open loop
    that keeps up, capacity on the closed loop)."""
    acks = [s for s in phase.samples if s.ok and not s.tail and s.kind in _ACK_KINDS]
    if len(acks) < 2:
        return 0, 0.0
    return len(acks) - 1, max(s.done for s in acks) - acks[0].sent


def run_live(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    setups: int = SETUPS,
) -> dict[str, Any]:
    """One end-to-end run; returns metric summaries, counts and context."""
    stream = build_stream(workload, seed)
    setup_s = []
    for rep in range(setups - 1):
        server, _, _, took = set_up(workload, stream, workdir, f"setup{rep}")
        server.stop()
        setup_s.append(took)
    server, conn, sub_ids, took = set_up(workload, stream, workdir, "load")
    setup_s.append(took)
    recoveries: list[float] = []
    disk_bytes = None
    try:
        stats = {"before": conn.json("GET", "/stats")}
        phase = LoadPhase(
            workload, stream, conn, server.connect(), seconds,
            poll_subscription=sub_ids[0] if sub_ids else None,
        )
        cpu_s = -server.cpu_seconds()
        phase.run()
        cpu_s += server.cpu_seconds()
        rss_mb = server.peak_rss_mb()
        stats["after"] = conn.json("GET", "/stats")
        health = conn.json("GET", "/health")
        if workload.durable:
            if not (stats["after"].get("storage") or {}).get("cold_faults"):
                phase.errors.append("no cold faults: the deep window never left the hot set")
            for rep in range(RECOVERIES):
                server, took, matched = _recover(workload, workdir, phase, server, f"restore{rep}")
                recoveries.append(took)
                if not matched:
                    phase.errors.append(
                        f"recovery {rep}: first /query body after --restore differs from the pre-kill body"
                    )
                if disk_bytes is None:  # what the first crash left on disk
                    disk_bytes = _disk_bytes(workdir)
        audit = Audit(workload, stream, phase.acked_ticks, sampled=workload.tick_s is None)
        audit.final_state(lambda payload: phase.ingest_conn.json("POST", "/query", payload))
        if phase.updates:
            audit.pushed_updates([u for _, u in phase.updates], workload.window)
    finally:
        server.stop()

    groups = _classify(phase)
    groups["push"] = _push_lags(phase)

    def ms(kind: str) -> dict[str, Any] | None:
        return summarize(groups.get(kind, []))

    def scalar(value: float, n: int = 1) -> dict[str, Any]:
        return {"p50": value, "n": n, "tail": None}

    load_samples = [s for s in phase.samples if not s.tail]
    batches, delivery_s = _delivery(phase)
    requests = len(phase.samples)
    failed = sum(1 for s in phase.samples if not s.ok) + len(audit.mismatches) + len(phase.errors)
    attempted = requests + audit.checks + len(recoveries)
    ingest_ack = sorted(groups.get("ingest_ack", []))

    metrics: dict[str, Any] = {
        "setup_s": scalar(statistics.median(setup_s), len(setup_s)),
        "ingest_rec_per_s": scalar(batches * workload.batch_records / delivery_s, batches),
        "ingest_ack_p50_ms": ms("ingest_ack"),
        "ingest_ack_p90_ms": scalar(percentile(ingest_ack, 90.0), len(ingest_ack)),
        "seal_ack_p50_ms": ms("seal_ack"),
        "query_hit_p50_ms": ms("hit"),
        "query_miss_p50_ms": ms("miss"),
        "query_fresh_p50_ms": ms("fresh"),
        "push_lag_p50_ms": ms("push"),
        "result_lag_p50_ms": summarize(_result_lags(workload, phase, groups)),
        "snapshot_p50_ms": ms("snapshot"),
        "recovery_s": scalar(statistics.median(recoveries), len(recoveries)) if recoveries else None,
        # All of the window's server CPU (reads and snapshots included) over
        # every record it acknowledged, the first batch's too.
        "cpu_us_per_record": scalar(cpu_s * 1e6 / ((batches + 1) * workload.batch_records), batches + 1),
        "peak_rss_mb": scalar(rss_mb),
        "disk_bytes_per_cell": scalar(disk_bytes / health["tracked_cells"]) if disk_bytes else None,
        "failed_share": scalar(failed / attempted, attempted),
    }
    open_loop = workload.tick_s is not None
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "payload_sha256": stream.payload_hash(),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": [*phase.errors, *audit.mismatches][:20],
        "counts": {
            "requests": requests,
            "audit_checks": audit.checks,
            "straddle": len(groups.get("straddle", [])),
            "seals": len(phase.seal_events),
            "updates_received": len(phase.updates),
            "tracked_cells": health["tracked_cells"],
            "records_ingested": health["records_ingested"],
        },
        "generator": {
            "ingest_lateness": _lateness(
                [s for s in load_samples if s.kind in _ACK_KINDS] if open_loop else []
            ),
            "reader_lateness": _lateness([s for s in load_samples if s.kind in ("hit", "miss")]),
            "backlog_at_end": sum(1 for s in load_samples if s.due < phase.t_end < s.sent),
            "unsent": phase.unsent,
        },
        # Counter blocks before and after the load window.
        "stats": stats,
    }
