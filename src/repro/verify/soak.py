"""The service soak harness: concurrent HTTP traffic, oracle-verified.

``python -m repro soak --seed S --duration N`` boots a real
:class:`~repro.service.http.StreamCubeService` behind
``ThreadingHTTPServer`` (WAL + snapshot directory attached), then hammers
it from multiple threads at once:

* **ingesters** POST ``/ingest`` batches drawn from seeded per-thread
  streams over a shared tick clock.  Concurrency makes some batches land
  after a rival thread already sealed their quarter — those are *rejected*
  (400, ``StreamError``) and that is part of the chaos: the service must
  reject atomically (all-or-nothing), and only acknowledged batches count;
* **queriers** POST ``/query`` with a rotating mix of single specs, batch
  queries, and cube-level ops, checking every response decodes and is
  internally consistent (one window interval per cell map);
* an **admin** thread POSTs ``/admin/snapshot`` and GETs ``/stats`` on a
  tight loop, forcing snapshot/compaction to interleave with traffic.

When the clock runs out the server drains, and the final state faces the
:class:`~repro.verify.oracle.RawStreamOracle` built from exactly the
acknowledged batches: m-layer windows, the observation deck, the watch
list, top slopes, and change exceptions — served through the same
``handle()`` path HTTP uses — must all match to ulps, and a fresh cube
restored from the snapshot directory plus WAL replay must equal the live
one bit for bit.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
import urllib.error
import urllib.request
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import isb_from_dict
from repro.query.spec import Q
from repro.service.http import StreamCubeService, make_server
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL
from repro.verify.oracle import (
    DEFAULT_TOLERANCE,
    RawStreamOracle,
    Tolerance,
    VerifyMismatch,
    _flag_sets_equal,
    assert_cells_equal,
    isb_agree,
)

__all__ = ["SoakConfig", "SoakReport", "run_soak", "main"]


@dataclass(frozen=True)
class SoakConfig:
    """One seeded soak run's shape."""

    seed: int = 0
    duration: float = 30.0
    shards: int = 4
    dims: int = 2
    levels: int = 2
    fanout: int = 4
    ticks_per_quarter: int = 6
    threshold: float = 0.05
    window: int = 4
    ingest_threads: int = 3
    query_threads: int = 2
    #: Continuous-query subscribers: each registers over POST /subscribe
    #: (alternating o-layer watch / observation deck), long-polls
    #: ``GET /updates`` while the stream seals, checks ordering (seq
    #: strictly increasing, epoch vectors monotone, quarter consistent
    #: with the vector) on every pushed update, and unsubscribes at the
    #: end; the final audit re-checks each subscriber's last update
    #: against the oracle at that update's own quarter.
    subscribers: int = 0
    cell_pool: int = 36
    batch_records: int = 24
    host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port
    #: Tiered storage on/off.  When on, sealed history past
    #: ``hot_quarters`` spills to disk *while the soak hammers the
    #: service*, so snapshot/compaction/deep-query interleavings run
    #: against a spilling cube too.
    storage: bool = False
    hot_quarters: int = 2
    #: Fault-injection plan (a :mod:`repro.faults` preset name or plan-file
    #: path; None disarms).  Armed for the whole soak — traffic, snapshots,
    #: the final oracle and restore audits — with the run's ``seed``, so a
    #: fault soak is exactly reproducible.  Every preset fault class is
    #: repaired in place by the durability layer, so the verdict must stay
    #: zero mismatches.
    fault_plan: str | None = None


@dataclass
class SoakReport:
    """Counters and verification outcome of one soak run."""

    seed: int
    duration: float
    requests: dict[str, int] = field(default_factory=dict)
    batches_acked: int = 0
    batches_rejected: int = 0
    records_acked: int = 0
    snapshots: int = 0
    query_errors: int = 0
    subscription_updates: int = 0
    final_quarter: int = 0
    cells_verified: int = 0
    mismatches: int = 0
    problems: list[str] = field(default_factory=list)

    def flag(self, problem: str) -> None:
        """Record one verification failure (callers hold the report lock
        during the concurrent phase; the final audit is single-threaded)."""
        self.mismatches += 1
        if len(self.problems) < 50:
            self.problems.append(problem)

    def describe(self) -> str:
        lines = [
            f"soak seed={self.seed} duration={self.duration:.1f}s",
            f"  ingest: {self.batches_acked} batches acked "
            f"({self.records_acked} records), "
            f"{self.batches_rejected} rejected by quarter sealing",
            f"  queries: "
            + ", ".join(
                f"{op}={n}" for op, n in sorted(self.requests.items())
            ),
            f"  admin: {self.snapshots} snapshots, "
            f"{self.query_errors} malformed-query rejections",
            f"  subscriptions: {self.subscription_updates} pushed updates "
            f"received",
            f"  final quarter {self.final_quarter}, "
            f"{self.cells_verified} cells oracle-verified, "
            f"{self.mismatches} mismatches",
        ]
        lines.extend(f"  problem: {problem}" for problem in self.problems)
        return "\n".join(lines)


class _Client:
    """A tiny urllib JSON client bound to one server address."""

    def __init__(self, base: str):
        self.base = base

    def request(self, method: str, path: str, payload=None):
        """Returns ``(status, body)``; status 0 means transport failure.

        A transport failure against a healthy local server is itself a
        soak finding (and poisons the acked-batch accounting, since the
        server may or may not have applied the batch), so callers treat
        status 0 as a mismatch.
        """
        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        except OSError as exc:
            return 0, {"error": str(exc), "type": "Transport"}


class _TickClock:
    """A shared monotone tick dispenser: each caller gets a fresh slice."""

    def __init__(self, start: int = 0):
        self._next = start
        self._lock = threading.Lock()

    def take(self, ticks: int) -> int:
        with self._lock:
            t0 = self._next
            self._next += ticks
            return t0


def _guarded(worker, name: str, report: SoakReport, lock: threading.Lock):
    """A thread target that turns worker crashes into flagged mismatches.

    A daemon worker dying on an unexpected response shape (exactly the
    wire breakage the soak exists to catch) must not silently reduce
    coverage and let the run report a false pass.
    """

    def run(*args):
        try:
            worker(*args)
        except Exception as exc:  # noqa: BLE001 - anything is a finding
            with lock:
                report.flag(f"{name} worker crashed: {exc!r}")

    return run


def _ingester(
    client: _Client,
    config: SoakConfig,
    clock: _TickClock,
    pool: list[tuple],
    trends: dict,
    seed: int,
    stop: threading.Event,
    acked: list[list[StreamRecord]],
    report: SoakReport,
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    while not stop.is_set():
        t0 = clock.take(rng.randrange(1, 4))
        records = []
        for _ in range(config.batch_records):
            key = rng.choice(pool)
            base, slope = trends[key]
            t = t0 + rng.randrange(3)  # slight overlap across slices
            records.append(
                StreamRecord(key, t, base + slope * t + rng.uniform(-0.5, 0.5))
            )
        records.sort(key=lambda r: r.t // config.ticks_per_quarter)
        status, body = client.request(
            "POST",
            "/ingest",
            {
                "records": [
                    {"values": list(r.values), "t": r.t, "z": r.z}
                    for r in records
                ]
            },
        )
        with lock:
            if status == 200:
                acked.append(records)
                report.batches_acked += 1
                report.records_acked += len(records)
            else:
                report.batches_rejected += 1
                if body.get("type") != "StreamError":
                    report.flag(
                        f"ingest rejected with {status} "
                        f"{body.get('type')!r}: {body.get('error')!r}"
                    )
        if status == 0:
            return  # transport failure already counted; stop this worker
        time.sleep(rng.uniform(0.001, 0.01))


def _consistent_cells(body: dict) -> bool:
    """Every cell row of a response must decode and share one interval."""
    rows = body.get("cells", [])
    intervals = set()
    for row in rows:
        isb = isb_from_dict(row["isb"])
        intervals.add((isb.t_b, isb.t_e))
    return len(intervals) <= 1


def _querier(
    client: _Client,
    config: SoakConfig,
    o_coord: tuple,
    m_coord: tuple,
    seed: int,
    stop: threading.Event,
    report: SoakReport,
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    deck = Q.observation_deck().to_dict()
    watch = Q.watch_list().to_dict()
    tops = Q.top_slopes(o_coord, 5).to_dict()
    m_slice = Q.slice(m_coord).to_dict()
    menu = [
        ("observation_deck", deck),
        ("watch_list", watch),
        ("top_slopes", tops),
        ("slice", m_slice),
        ("batch", {"queries": [deck, watch, tops]}),
        ("change_exceptions", {"op": "change_exceptions", "layer": "o"}),
        ("exceptions", {"op": "exceptions"}),
        ("bad_query", {"op": "no_such_op"}),
    ]
    while not stop.is_set():
        name, payload = rng.choice(menu)
        status, body = client.request("POST", "/query", payload)
        ok = True
        if name == "bad_query":
            ok = status == 400 and body.get("type") == "QueryError"
            with lock:
                report.query_errors += 1
        elif status == 200:
            if name == "batch":
                # Per-item domain errors (e.g. no full window sealed yet)
                # are valid outcomes; per-item answers must be consistent.
                ok = len(body.get("results", ())) == 3 and all(
                    _consistent_cells(item)
                    if item["ok"]
                    else item.get("type") in ("StreamError", "QueryError")
                    for item in body["results"]
                )
            elif name in ("observation_deck", "watch_list", "slice"):
                ok = _consistent_cells(body)
            elif name == "top_slopes":
                ok = len(body.get("cells", ())) <= 5
        else:
            # Domain rejections (e.g. no full window sealed yet) are fine;
            # anything else is a wiring failure.
            ok = status != 0 and body.get("type") in (
                "StreamError", "QueryError",
            )
        with lock:
            report.requests[name] = report.requests.get(name, 0) + 1
            if not ok:
                report.flag(f"query {name!r} -> {status}: {str(body)[:200]}")
        if status == 0:
            return
        time.sleep(rng.uniform(0.001, 0.008))


def _admin(
    client: _Client,
    stop: threading.Event,
    report: SoakReport,
    lock: threading.Lock,
) -> None:
    last_seq = -1
    while not stop.is_set():
        status, body = client.request("POST", "/admin/snapshot", {})
        with lock:
            if status == 200:
                report.snapshots += 1
            else:
                report.flag(f"/admin/snapshot -> {status}: {str(body)[:200]}")
        status, stats = client.request("GET", "/stats")
        with lock:
            if status != 200:
                report.flag(f"/stats -> {status}")
            else:
                seq = stats["durability"]["wal_seq"]
                if seq is not None:
                    if seq < last_seq:
                        report.flag(
                            f"wal_seq went backwards: {last_seq} -> {seq}"
                        )
                    last_seq = seq
        time.sleep(0.25)


def _subscriber(
    client: _Client,
    config: SoakConfig,
    index: int,
    stop: threading.Event,
    report: SoakReport,
    lock: threading.Lock,
    last_updates: dict[str, tuple[str, dict]],
) -> None:
    """One continuous-query client: subscribe, long-poll, verify, leave.

    Every pushed update is checked for the delivery guarantees the
    subscription layer documents — per-subscription ``seq`` strictly
    increasing, epoch vectors componentwise non-decreasing, the update's
    quarter equal to the epoch's quarter clock — and for
    wire consistency (one window interval per cell map).  The last
    update each subscriber receives is stashed for the final audit,
    which recomputes it from the oracle at that update's own quarter.
    """
    kind = "watch" if index % 2 == 0 else "deck"
    payload: dict = (
        {"watch": True}
        if kind == "watch"
        else {"spec": Q.observation_deck().to_dict()}
    )
    status, body = client.request("POST", "/subscribe", payload)
    if status != 200 or "subscription" not in body:
        with lock:
            report.flag(f"/subscribe -> {status}: {str(body)[:200]}")
        return
    sub_id = body["subscription"]
    since = 0
    prev_epoch: tuple[int, ...] | None = None
    while not stop.is_set():
        status, body = client.request(
            "GET", f"/updates?subscription={sub_id}&since={since}&timeout=1.5"
        )
        if status != 200:
            with lock:
                report.flag(
                    f"subscriber {sub_id} /updates -> {status}: "
                    f"{str(body)[:200]}"
                )
            return
        problem = None
        fresh = 0
        for update in body.get("updates", ()):
            seq = update.get("seq", 0)
            epoch = tuple(update.get("epoch", ()))
            if seq <= since:
                problem = f"seq not increasing: {seq} after {since}"
            elif len(epoch) != 2:
                problem = f"malformed epoch vector {epoch!r}"
            elif update.get("quarter") != epoch[1]:
                problem = (
                    f"quarter {update.get('quarter')} inconsistent with "
                    f"epoch {epoch}"
                )
            elif prev_epoch is not None and any(
                c < p for c, p in zip(epoch, prev_epoch)
            ):
                problem = f"epoch regressed: {prev_epoch} -> {epoch}"
            elif not _consistent_cells(update.get("result", {})):
                problem = "inconsistent cell intervals in pushed update"
            if problem:
                break
            since = seq
            prev_epoch = epoch
            fresh += 1
            with lock:
                last_updates[sub_id] = (kind, update)
        with lock:
            report.requests["updates"] = (
                report.requests.get("updates", 0) + 1
            )
            report.subscription_updates += fresh
            if problem:
                report.flag(f"subscriber {sub_id} ({kind}): {problem}")
        if problem:
            return
    status, body = client.request("DELETE", f"/subscribe/{sub_id}")
    with lock:
        if status != 200:
            report.flag(
                f"DELETE /subscribe/{sub_id} -> {status}: {str(body)[:200]}"
            )


def run_soak(config: SoakConfig, workdir: str | Path | None = None) -> SoakReport:
    """Run one seeded soak; returns the report (``mismatches == 0`` means
    every concurrent answer and the final oracle audit agreed)."""
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            return run_soak(config, tmp)
    if config.fault_plan:
        faults.install(faults.load_plan(config.fault_plan, config.seed))
        try:
            return run_soak(
                dataclasses.replace(config, fault_plan=None), workdir
            )
        finally:
            faults.clear()
    workdir = Path(workdir)
    snap_dir = workdir / "snapshots"
    layers = DatasetSpec(
        config.dims, config.levels, config.fanout, 1
    ).build_layers()
    policy = GlobalSlopeThreshold(config.threshold)
    wal = QuarterWAL(snap_dir / "wal.jsonl")
    storage_cfg = (
        StorageConfig(
            root=workdir / "storage",
            hot_quarters=config.hot_quarters,
        )
        if config.storage
        else None
    )
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=config.shards,
        ticks_per_quarter=config.ticks_per_quarter,
        wal=wal,
        storage=storage_cfg,
    )
    router = QueryRouter(cube, window_quarters=config.window)
    service = StreamCubeService(cube, router, snapshot_dir=snap_dir)
    # Size the request pool so every soak client can be in flight at
    # once — the soak measures the service's concurrency, not the pool's
    # queueing.
    server = make_server(
        service,
        host=config.host,
        port=config.port,
        request_threads=(
            config.ingest_threads + config.query_threads
            + config.subscribers + 2
        ),
    )
    host, port = server.server_address[:2]
    client = _Client(f"http://{host}:{port}")

    rng = random.Random(config.seed)
    leaf_card = config.fanout**config.levels
    pool: set[tuple] = set()
    while len(pool) < config.cell_pool:
        pool.add(
            tuple(rng.randrange(leaf_card) for _ in range(config.dims))
        )
    pool_list = sorted(pool)
    trends = {
        key: (rng.uniform(-4.0, 4.0), rng.uniform(-0.5, 0.5))
        for key in pool_list
    }

    report = SoakReport(seed=config.seed, duration=config.duration)
    acked: list[list[StreamRecord]] = []
    last_updates: dict[str, tuple[str, dict]] = {}
    stop = threading.Event()
    lock = threading.Lock()
    clock = _TickClock()

    serve_thread = threading.Thread(
        target=server.serve_forever, name="soak-server", daemon=True
    )
    workers = [
        threading.Thread(
            target=_guarded(_ingester, "ingest", report, lock),
            args=(
                client, config, clock, pool_list, trends,
                config.seed * 1000 + i, stop, acked, report, lock,
            ),
            name=f"soak-ingest-{i}",
            daemon=True,
        )
        for i in range(config.ingest_threads)
    ] + [
        threading.Thread(
            target=_guarded(_querier, "query", report, lock),
            args=(
                client, config, layers.o_coord, layers.m_coord,
                config.seed * 2000 + i, stop, report, lock,
            ),
            name=f"soak-query-{i}",
            daemon=True,
        )
        for i in range(config.query_threads)
    ] + [
        threading.Thread(
            target=_guarded(_subscriber, "subscriber", report, lock),
            args=(client, config, i, stop, report, lock, last_updates),
            name=f"soak-subscriber-{i}",
            daemon=True,
        )
        for i in range(config.subscribers)
    ] + [
        threading.Thread(
            target=_guarded(_admin, "admin", report, lock),
            args=(client, stop, report, lock),
            name="soak-admin", daemon=True,
        )
    ]
    serve_thread.start()
    for worker in workers:
        worker.start()
    time.sleep(config.duration)
    stop.set()
    for worker in workers:
        worker.join(timeout=30)
    server.shutdown()
    serve_thread.join(timeout=30)
    server.server_close()

    try:
        _final_audit(
            service, layers, policy, config, acked, report, last_updates
        )
        _restore_audit(
            service, layers, policy, snap_dir, report, storage_cfg
        )
    finally:
        service.close()
    report.final_quarter = cube.current_quarter
    return report


def _final_audit(
    service: StreamCubeService,
    layers,
    policy,
    config: SoakConfig,
    acked: list[list[StreamRecord]],
    report: SoakReport,
    last_updates: dict[str, tuple[str, dict]] | None = None,
) -> None:
    """Rebuild the oracle from acknowledged traffic; audit the quiesced
    service through the same ``handle()`` dispatch HTTP uses."""
    oracle = RawStreamOracle(
        layers, policy, ticks_per_quarter=config.ticks_per_quarter
    )
    for batch in acked:
        oracle.ingest(batch)
    cube = service.cube
    if cube.records_ingested != oracle.records_ingested:
        report.flag("record count drift")
        raise VerifyMismatch(
            f"record count drift: cube ingested {cube.records_ingested}, "
            f"{oracle.records_ingested} were acknowledged"
        )
    oracle.advance_to(cube.current_quarter * config.ticks_per_quarter)
    if oracle.current_quarter != cube.current_quarter:
        report.flag("clock drift")
        raise VerifyMismatch(
            f"clock drift: cube at quarter {cube.current_quarter}, oracle "
            f"at {oracle.current_quarter}"
        )
    window = config.window
    if cube.current_quarter < window:
        return  # too short a run to audit windows; counters still checked

    # Documented-ulp tolerance, scaled to the timeline: the sealing
    # equations accumulate sums of t and t² uncentered, so their relative
    # accuracy at the window's magnitude degrades roughly linearly with
    # how far from the origin the soak has streamed (a multi-minute soak
    # seals thousands of quarters).  The budget starts at the scenarios'
    # default (~1e-9 relative) and grows with max tick / 2000 — still
    # parts-per-billion territory at any soak length CI runs.
    t_end = cube.current_quarter * config.ticks_per_quarter
    tol = Tolerance(
        max_ulps=DEFAULT_TOLERANCE.max_ulps * max(1.0, t_end / 2000.0),
        abs_tol=DEFAULT_TOLERANCE.abs_tol,
    )

    try:
        assert_cells_equal(
            cube.m_cells(window), oracle.m_cells(window), "final m-cells",
            tol,
        )
        report.cells_verified += oracle.tracked_cells

        def wire(payload):
            status, body = service.handle("POST", "/query", payload)
            if status != 200:
                raise VerifyMismatch(
                    f"final audit query {payload.get('op')!r} failed "
                    f"{status}: {body}"
                )
            return body

        deck = wire(Q.observation_deck(window=window).to_dict())
        assert_cells_equal(
            _decode_cells(deck),
            oracle.o_layer_cells(window),
            "final observation deck",
            tol,
        )
        watch = wire(Q.watch_list(window=window).to_dict())
        assert_cells_equal(
            _decode_cells(watch),
            oracle.o_layer_exceptions(window),
            "final watch list",
            tol,
        )
        tops = wire(Q.top_slopes(layers.o_coord, 5, window=window).to_dict())
        o_cells = oracle.o_layer_cells(window)
        for row in tops["cells"]:
            values = tuple(row["values"])
            problem = isb_agree(
                isb_from_dict(row["isb"]), o_cells[values], tol
            )
            if problem:
                raise VerifyMismatch(f"final top_slopes {values}: {problem}")
        changes = wire({"op": "change_exceptions", "layer": "o"})
        assert_cells_equal(
            _decode_cells(changes),
            oracle.o_layer_change_exceptions(1),
            "final o-layer change exceptions",
            tol,
        )
        report.cells_verified += len(o_cells)

        # Pushed updates were computed at their own (historical) seal
        # epoch; by then every quarter in that window was sealed, and
        # sealed quarters reject further records, so the oracle can
        # recompute the exact answer each subscriber last saw.
        for sub_id, (kind, update) in sorted((last_updates or {}).items()):
            quarter = update["quarter"]
            if quarter < window:
                continue
            t_b, t_e = oracle.window_bounds_at(quarter, window)
            cells = _decode_cells(update["result"])
            what = f"last pushed {kind} update (subscriber {sub_id})"
            if kind == "deck":
                assert_cells_equal(
                    cells,
                    oracle.cuboid_cells_at(layers.o_coord, t_b, t_e),
                    what,
                    tol,
                )
            else:
                _flag_sets_equal(
                    cells,
                    oracle.exceptional_cells_at(layers.o_coord, t_b, t_e),
                    oracle,
                    layers.o_coord,
                    what,
                    tol,
                )
            report.cells_verified += len(cells)
    except VerifyMismatch as exc:
        report.flag(f"final audit: {exc}")
        raise


def _decode_cells(body: dict) -> dict:
    return {
        tuple(row["values"]): isb_from_dict(row["isb"])
        for row in body["cells"]
    }


def _restore_audit(
    service: StreamCubeService,
    layers,
    policy,
    snap_dir: Path,
    report: SoakReport,
    storage_cfg: StorageConfig | None = None,
) -> None:
    """The final durability check: snapshot + WAL replay == live cube
    (with tiered storage, the restore reopens the same cold stores)."""
    manifest = service.write_snapshot()
    restored = ShardedStreamCube.restore(
        snap_dir, layers, policy, storage=storage_cfg
    )
    try:
        with QuarterWAL(snap_dir / "wal.jsonl") as journal:
            journal.replay(restored, after_seq=manifest["wal_seq"])
        live = service.cube
        if restored.current_quarter >= 1:
            q = live.ticks_per_quarter
            t_e = live.current_quarter * q - 1
            t_b = max(0, t_e - 4 * q + 1)
            if restored.window_isbs(t_b, t_e) != live.window_isbs(t_b, t_e):
                report.flag("restore audit: window mismatch")
                raise VerifyMismatch(
                    "restored cube (snapshot + WAL replay) differs from "
                    "the live cube after the soak"
                )
        if restored.records_ingested != live.records_ingested:
            report.flag("restore audit: record count mismatch")
            raise VerifyMismatch(
                f"restored cube holds {restored.records_ingested} records, "
                f"live cube {live.records_ingested}"
            )
    finally:
        restored.close()


def main(args) -> int:
    """The ``python -m repro soak`` entry point."""
    config = SoakConfig(
        seed=args.seed,
        duration=args.duration,
        shards=args.shards,
        ingest_threads=args.ingest_threads,
        query_threads=args.query_threads,
        subscribers=getattr(args, "subscribers", 0) or 0,
        port=args.port,
        storage=getattr(args, "storage", False),
        hot_quarters=getattr(args, "hot_quarters", None) or 2,
        fault_plan=getattr(args, "fault_plan", None),
    )
    try:
        report = run_soak(config)
    except VerifyMismatch as exc:
        print(f"SOAK FAILED: {exc}")
        return 1
    print(report.describe())
    if report.mismatches:
        print(f"SOAK FAILED: {report.mismatches} mismatches")
        return 1
    print("soak verdict: ZERO oracle mismatches")
    return 0
