"""Concurrency regression: parallel ingest + query + snapshot, no torn reads.

The service serializes *mutators* (ingest / advance / snapshot) on one
lock while queries and probes run concurrently against the cube's
shared read lock and the router's epoch-validated cache.
Everything observable must therefore be a consistent point-in-time view
even while ingest is sealing quarters, ``/admin/snapshot`` is compacting
the WAL, and queries are refreshing the merged view.  These tests hammer
one service object from many threads (handle-level — no sockets, so
failures point at the service, not urllib) and assert the invariants a
torn read would break:

* every query answer's cells share one window interval (a view caught
  mid-refresh would mix epochs), and the interval belongs to a quarter
  boundary the cube actually passed through during the query;
* ``/health`` counters and the WAL sequence never move backwards;
* a snapshot directory written under fire is always restorable and equal
  to *some* consistent prefix of the ingest stream (records_ingested at a
  quarter boundary the cube actually passed through);
* the mutator lock covers exactly the mutating routes — probes and
  cached queries answer promptly while a mutator is parked inside it;
* identical concurrent cache misses collapse to one execution
  (single-flight), and cache hits under a seal storm are never stale.
"""

from __future__ import annotations

import random
import threading
import time

from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import isb_from_dict
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.wal import QuarterWAL

TPQ = 4
WINDOW = 2


def build_service(tmp_path, n_shards: int = 3) -> StreamCubeService:
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    policy = GlobalSlopeThreshold(0.1)
    cube = ShardedStreamCube(
        layers,
        policy,
        n_shards=n_shards,
        ticks_per_quarter=TPQ,
        wal=QuarterWAL(tmp_path / "wal.jsonl"),
    )
    router = QueryRouter(cube, window_quarters=WINDOW)
    return StreamCubeService(cube, router, snapshot_dir=tmp_path)


def ingest_payload(rng: random.Random, quarter: int) -> dict:
    rows = []
    for t in range(quarter * TPQ, (quarter + 1) * TPQ):
        for _ in range(3):
            rows.append(
                {
                    "values": [rng.randrange(9), rng.randrange(9)],
                    "t": t,
                    "z": rng.uniform(0.0, 4.0),
                }
            )
    return {"records": rows}


class Barrage:
    """N threads of mixed traffic against one service; collects violations."""

    def __init__(self, service: StreamCubeService, rounds: int = 60):
        self.service = service
        self.rounds = rounds
        self.violations: list[str] = []
        self.report_lock = threading.Lock()

    def note(self, problem: str) -> None:
        with self.report_lock:
            self.violations.append(problem)

    def ingester(self, seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(self.rounds):
            quarter = self.service.cube.current_quarter + rng.randrange(2)
            status, body = self.service.handle(
                "POST", "/ingest", ingest_payload(rng, quarter)
            )
            if status not in (200, 400):
                self.note(f"ingest -> {status}: {body}")
            elif status == 400 and body.get("type") != "StreamError":
                self.note(f"ingest 400 of type {body.get('type')}: {body}")

    def querier(self, seed: int) -> None:
        rng = random.Random(seed)
        ops = [
            {"op": "observation_deck"},
            {"op": "watch_list"},
            {"op": "slice", "coord": [2, 2]},
            {"queries": [{"op": "observation_deck"}, {"op": "watch_list"}]},
        ]
        for _ in range(self.rounds):
            payload = rng.choice(ops)
            status, body = self.service.handle("POST", "/query", payload)
            if status == 400:
                if body.get("type") not in ("StreamError", "QueryError"):
                    self.note(f"query 400 of type {body.get('type')}")
                continue
            if status != 200:
                self.note(f"query -> {status}: {body}")
                continue
            results = (
                [item for item in body.get("results", ()) if item.get("ok")]
                if "queries" in payload
                else [body]
            )
            for item in results:
                intervals = {
                    (
                        isb_from_dict(row["isb"]).t_b,
                        isb_from_dict(row["isb"]).t_e,
                    )
                    for row in item.get("cells", ())
                }
                if len(intervals) > 1:
                    self.note(
                        f"torn read: one answer mixes intervals {intervals}"
                    )

    def monitor(self) -> None:
        last_quarter = -1
        last_records = -1
        last_seq = -1
        for _ in range(self.rounds):
            status, health = self.service.handle("GET", "/health")
            if status != 200:
                self.note(f"health -> {status}")
                continue
            if health["current_quarter"] < last_quarter:
                self.note("current_quarter went backwards")
            if health["records_ingested"] < last_records:
                self.note("records_ingested went backwards")
            last_quarter = health["current_quarter"]
            last_records = health["records_ingested"]
            status, stats = self.service.handle("GET", "/stats")
            if status != 200:
                self.note(f"stats -> {status}")
                continue
            seq = stats["durability"]["wal_seq"]
            if seq is not None and seq < last_seq:
                self.note(f"wal_seq went backwards: {last_seq} -> {seq}")
            if seq is not None:
                last_seq = seq

    def snapshotter(self) -> None:
        for _ in range(self.rounds // 4):
            status, body = self.service.handle("POST", "/admin/snapshot", {})
            if status != 200:
                self.note(f"snapshot -> {status}: {body}")

    def run(self) -> None:
        threads = (
            [
                threading.Thread(target=self.ingester, args=(10 + i,))
                for i in range(3)
            ]
            + [
                threading.Thread(target=self.querier, args=(20 + i,))
                for i in range(3)
            ]
            + [
                threading.Thread(target=self.monitor),
                threading.Thread(target=self.snapshotter),
            ]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


class TestConcurrentService:
    def test_no_torn_reads_under_parallel_traffic(self, tmp_path):
        service = build_service(tmp_path)
        try:
            barrage = Barrage(service)
            barrage.run()
            assert barrage.violations == []
            # The cube really moved: this was not a quiet no-op run.
            assert service.cube.records_ingested > 0
            assert service.cube.current_quarter > WINDOW
            assert service.snapshots_written > 0
        finally:
            service.close()

    def test_snapshot_written_under_fire_is_restorable(self, tmp_path):
        service = build_service(tmp_path)
        try:
            barrage = Barrage(service, rounds=40)
            barrage.run()
            assert barrage.violations == []
            manifest = ShardedStreamCube.read_manifest(tmp_path)
            restored = ShardedStreamCube.restore(
                tmp_path,
                service.cube.layers,
                service.cube.policy,
            )
            try:
                with QuarterWAL(tmp_path / "wal.jsonl") as journal:
                    journal.replay(
                        restored, after_seq=int(manifest["wal_seq"])
                    )
                live = service.cube
                assert restored.records_ingested == live.records_ingested
                q = live.current_quarter
                if q >= 1:
                    t_b, t_e = (q - 1) * TPQ, q * TPQ - 1
                    assert restored.window_isbs(t_b, t_e) == live.window_isbs(
                        t_b, t_e
                    )
            finally:
                restored.close()
        finally:
            service.close()

    def test_mutator_lock_covers_mutators_only(self, tmp_path):
        """The serialization discipline is the lock, not luck.

        Mutating routes (``/ingest``, ``/advance``, ``/admin/snapshot``)
        must hold the mutator lock — their WAL appends and snapshot
        triggers need one total order.  Probes and queries must *not*
        take it: they answer promptly even while a mutator is parked
        inside the lock, which is the whole point of the concurrent read
        path.  Rather than racing (nondeterministic), pin the mechanism.
        """
        service = build_service(tmp_path)
        try:
            # Probes run outside the mutator lock...
            seen: list[bool] = []
            original_health = service.health

            def spying_health(payload):
                seen.append(service._mutator_lock.locked())
                return original_health(payload)

            service.health = spying_health
            status, _ = service.handle("GET", "/health")
            assert status == 200
            assert seen == [False]
            service.health = original_health

            # ...and mutators inside it.
            rng = random.Random(99)
            original_ingest = service.ingest
            held: list[bool] = []

            def spying_ingest(payload):
                held.append(service._mutator_lock.locked())
                return original_ingest(payload)

            service.ingest = spying_ingest
            status, _ = service.handle(
                "POST", "/ingest", ingest_payload(rng, 0)
            )
            assert status == 200
            assert held == [True]
            service.ingest = original_ingest

            # Seal enough quarters that the default window is queryable,
            # then warm the cache.
            status, _ = service.handle(
                "POST", "/advance", {"t": (WINDOW + 1) * TPQ}
            )
            assert status == 200
            status, warm = service.handle(
                "POST", "/query", {"op": "observation_deck"}
            )
            assert status == 200

            # Park a mutator while it holds the lock: probes, stats and
            # cached queries must still answer; a second mutator must
            # wait its turn.
            gate = threading.Event()
            entered = threading.Event()

            def slow_ingest(payload):
                entered.set()
                gate.wait(timeout=10)
                return original_ingest(payload)

            service.ingest = slow_ingest

            def first():
                service.handle(
                    "POST",
                    "/ingest",
                    ingest_payload(
                        random.Random(7), service.cube.current_quarter
                    ),
                )

            thread_a = threading.Thread(target=first)
            thread_a.start()
            assert entered.wait(timeout=10), "mutator thread never entered"
            service.ingest = original_ingest

            for path in ("/health", "/healthz", "/readyz", "/stats"):
                status, _ = service.handle("GET", path)
                assert status == 200, f"{path} blocked behind a mutator"
            status, body = service.handle(
                "POST", "/query", {"op": "observation_deck"}
            )
            assert status == 200
            assert body == warm  # a lock-free cache hit

            order: list[str] = []

            def second():
                service.handle(
                    "POST", "/advance", {"t": service.cube.current_quarter * TPQ}
                )
                order.append("second-done")

            thread_b = threading.Thread(target=second)
            thread_b.start()
            thread_b.join(timeout=0.2)
            assert "second-done" not in order  # B is blocked on the lock
            gate.set()
            thread_a.join(timeout=10)
            thread_b.join(timeout=10)
            assert order == ["second-done"]
        finally:
            service.close()


class TestQueryConcurrency:
    """The tentpole's read-path guarantees, pinned deterministically."""

    def test_single_flight_collapses_identical_misses(
        self, tmp_path, monkeypatch
    ):
        """K identical concurrent cache misses run the query exactly once.

        The leader is parked inside the execution; followers must join
        its flight (observable via ``single_flight_joins``) rather than
        stampede the engines, and every client gets the leader's answer.
        """
        import repro.service.router as router_mod

        service = build_service(tmp_path, n_shards=2)
        try:
            rng = random.Random(5)
            for quarter in range(WINDOW + 1):
                service.handle(
                    "POST", "/ingest", ingest_payload(rng, quarter)
                )
            service.handle("POST", "/advance", {"t": (WINDOW + 1) * TPQ})
            router = service.router

            gate = threading.Event()
            entered = threading.Event()
            executions: list[int] = []
            original_execute = router_mod.execute

            def gated_execute(view, spec, **kwargs):
                executions.append(1)
                entered.set()
                assert gate.wait(timeout=10)
                return original_execute(view, spec, **kwargs)

            monkeypatch.setattr(router_mod, "execute", gated_execute)

            clients = 6
            answers: list = [None] * clients

            def query(i: int) -> None:
                answers[i] = router.execute({"op": "observation_deck"})

            threads = [
                threading.Thread(target=query, args=(i,))
                for i in range(clients)
            ]
            threads[0].start()
            assert entered.wait(timeout=10), "leader never started computing"
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 10
            while router.single_flight_joins < clients - 1:
                assert (
                    time.monotonic() < deadline
                ), "followers never joined the in-flight computation"
                time.sleep(0.002)
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
            assert executions == [1]  # one execution served all K clients
            first = answers[0]
            assert first is not None
            assert all(
                answer.to_dict() == first.to_dict() for answer in answers
            )
        finally:
            service.close()

    def test_query_racing_seals_never_mixes_epochs(self, tmp_path):
        """An answer racing quarter seals is from one consistent cut.

        While an ingester seals quarters, every query answer must (a) use
        a single window interval across all its cells and (b) use the
        interval of a quarter the cube actually held during the query —
        never a blend, never a window no quarter ever had.
        """
        service = build_service(tmp_path, n_shards=3)
        try:
            rng = random.Random(17)
            for quarter in range(WINDOW + 1):
                service.handle(
                    "POST", "/ingest", ingest_payload(rng, quarter)
                )
            service.handle("POST", "/advance", {"t": (WINDOW + 1) * TPQ})
            stop = threading.Event()
            problems: list[str] = []

            def ingester() -> None:
                quarter = service.cube.current_quarter
                while not stop.is_set():
                    status, body = service.handle(
                        "POST", "/ingest", ingest_payload(rng, quarter)
                    )
                    if status != 200:
                        problems.append(f"ingest -> {status}: {body}")
                        return
                    quarter += 1

            def querier(seed: int) -> None:
                while not stop.is_set():
                    q_before = service.cube.current_quarter
                    status, body = service.handle(
                        "POST", "/query", {"op": "observation_deck"}
                    )
                    q_after = service.cube.current_quarter
                    if status != 200:
                        problems.append(f"query -> {status}: {body}")
                        return
                    intervals = {
                        (
                            isb_from_dict(row["isb"]).t_b,
                            isb_from_dict(row["isb"]).t_e,
                        )
                        for row in body.get("cells", ())
                    }
                    if len(intervals) > 1:
                        problems.append(f"mixed intervals {intervals}")
                        return
                    if intervals:
                        valid = {
                            (q * TPQ - WINDOW * TPQ, q * TPQ - 1)
                            for q in range(q_before, q_after + 1)
                        }
                        got = intervals.pop()
                        if got not in valid:
                            problems.append(
                                f"interval {got} from no quarter in "
                                f"[{q_before}, {q_after}]"
                            )
                            return

            threads = [threading.Thread(target=ingester)] + [
                threading.Thread(target=querier, args=(s,)) for s in (1, 2)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert problems == []
            assert service.cube.current_quarter > WINDOW + 1  # it moved
        finally:
            service.close()

    def test_cache_hits_under_seal_hammering_are_never_stale(self, tmp_path):
        """Quarter-sandwich exactness: a hit is as fresh as a miss.

        One thread seals quarters via ``/advance`` while queriers hammer
        one cacheable query.  Whenever the quarter clock reads the same
        value before and after a query, the answer *must* carry exactly
        that quarter's window — a stale cache entry surviving a seal
        would fail the sandwich.  The run must also actually serve hits,
        or it proved nothing about the cache.
        """
        service = build_service(tmp_path, n_shards=3)
        try:
            rng = random.Random(23)
            for quarter in range(WINDOW + 1):
                service.handle(
                    "POST", "/ingest", ingest_payload(rng, quarter)
                )
            service.handle("POST", "/advance", {"t": (WINDOW + 1) * TPQ})
            stop = threading.Event()
            problems: list[str] = []
            sandwiched = [0]
            count_lock = threading.Lock()

            def sealer() -> None:
                while not stop.is_set():
                    target = (service.cube.current_quarter + 1) * TPQ
                    status, body = service.handle(
                        "POST", "/advance", {"t": target}
                    )
                    if status != 200:
                        problems.append(f"advance -> {status}: {body}")
                        return
                    time.sleep(0.002)

            def querier() -> None:
                while not stop.is_set():
                    q_before = service.cube.current_quarter
                    status, body = service.handle(
                        "POST", "/query", {"op": "observation_deck"}
                    )
                    q_after = service.cube.current_quarter
                    if status != 200:
                        problems.append(f"query -> {status}: {body}")
                        return
                    if q_before != q_after:
                        continue  # a seal landed mid-query: no sandwich
                    expected = (
                        q_before * TPQ - WINDOW * TPQ,
                        q_before * TPQ - 1,
                    )
                    for row in body.get("cells", ()):
                        isb = isb_from_dict(row["isb"])
                        if (isb.t_b, isb.t_e) != expected:
                            problems.append(
                                f"stale answer {(isb.t_b, isb.t_e)} at "
                                f"stable quarter {q_before}"
                            )
                            return
                    with count_lock:
                        sandwiched[0] += 1

            threads = [threading.Thread(target=sealer)] + [
                threading.Thread(target=querier) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert problems == []
            assert sandwiched[0] > 0  # the sandwich actually closed
            assert service.router.cache.hits > 0  # hits were served
        finally:
            service.close()
