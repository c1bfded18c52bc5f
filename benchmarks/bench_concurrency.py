"""Concurrent serving latency: one ingest stream + N parallel query clients.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrency.py [--json PATH]

Hammers one :class:`StreamCubeService` (handle-level — no sockets, so the
numbers are the service's, not urllib's) with a continuous batched ingest
thread and ``_CLIENTS`` query clients, at:

* ``inproc`` with 1 shard,
* ``inproc`` with 4 shards — the headline point: cached p99 here is the
  number the concurrent query path exists to improve,
* ``inproc`` with 4 shards and ``_SUBSCRIPTIONS`` active continuous-query
  subscriptions — the seal-driven push path must not tax ingest: the
  dispatcher evaluates *off* the seal path, so with-subscriptions ingest
  p99 is gated (self-baselined, same run) at ≤1.5x the plain point's.

Each client mostly repeats one query (``observation_deck`` — a cache hit
between seals) and every ``_UNCACHED_EVERY``-th request issues a
never-repeated ``top_slopes`` spec (a guaranteed cache miss that scans a
cuboid).  Ingest seals a quarter every ``_ROUNDS_PER_QUARTER`` batches, so
the cache is periodically invalidated mid-run exactly as in production.

Reported per (backend, shards): p50/p99 cached and uncached query latency,
per-mode query throughput, and combined throughput (queries/s across all
clients + ingest records/s).  ``--json PATH`` (or ``REPRO_BENCH_JSON``)
writes ``BENCH_concurrency.json``; the CI perf-smoke job feeds that to
``check_regression.py --concurrency-current``, which gates normalized p99
latency against the committed baseline and enforces the concurrency win
itself (cached p99 at 4 shards ≥2x better than the pre-change baseline).
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.cubing.policy import GlobalSlopeThreshold
from repro.query.spec import Q
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec

_TPQ = 12
_WINDOW = 2
_CLIENTS = 4
_LEAF_SPAN = 9
_PREFILL_QUARTERS = _WINDOW + 2
_ROUNDS_PER_QUARTER = 24
_RECORDS_PER_ROUND = 96
_WARMUP_S = 0.4
_MEASURE_S = 2.5
_UNCACHED_EVERY = 8
_CUBOID = [2, 2]
_SUBSCRIPTIONS = 8


def _build_service(n_shards: int) -> StreamCubeService:
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    cube = ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(0.1),
        n_shards=n_shards,
        ticks_per_quarter=_TPQ,
    )
    router = QueryRouter(cube, window_quarters=_WINDOW)
    return StreamCubeService(cube, router)


def _ingest_round(rng: random.Random, quarter: int) -> dict:
    tick0 = quarter * _TPQ
    ticks = sorted(rng.randrange(_TPQ) for _ in range(_RECORDS_PER_ROUND))
    return {
        "records": [
            {
                "values": [
                    rng.randrange(_LEAF_SPAN),
                    rng.randrange(_LEAF_SPAN),
                ],
                "t": tick0 + tick,
                "z": rng.uniform(0.0, 4.0),
            }
            for tick in ticks
        ]
    }


class _Ingester(threading.Thread):
    """Continuous batched ingest, sealing a quarter on a fixed cadence."""

    def __init__(
        self, service: StreamCubeService, start_quarter: int, stop_at: float
    ) -> None:
        super().__init__(name="bench-ingest")
        self.service = service
        self.start_quarter = start_quarter
        self.stop_at = stop_at
        self.samples: list[tuple[float, int]] = []
        self.latencies: list[tuple[float, float]] = []
        self.errors: list[str] = []

    def run(self) -> None:
        rng = random.Random(33)
        round_ = 0
        while time.monotonic() < self.stop_at:
            quarter = self.start_quarter + round_ // _ROUNDS_PER_QUARTER
            payload = _ingest_round(rng, quarter)
            t0 = time.perf_counter()
            status, body = self.service.handle("POST", "/ingest", payload)
            elapsed = time.perf_counter() - t0
            if status == 200:
                self.samples.append((time.monotonic(), body["ingested"]))
                self.latencies.append((time.monotonic(), elapsed))
            else:
                self.errors.append(f"ingest -> {status}: {body}")
            round_ += 1


class _Querier(threading.Thread):
    """One query client: mostly cache hits, periodic guaranteed misses."""

    def __init__(
        self, service: StreamCubeService, client: int, stop_at: float
    ) -> None:
        super().__init__(name=f"bench-query-{client}")
        self.service = service
        self.client = client
        self.stop_at = stop_at
        self.cached: list[tuple[float, float]] = []
        self.uncached: list[tuple[float, float]] = []
        self.errors: list[str] = []

    def run(self) -> None:
        n = 0
        base_k = 1_000_000 * (self.client + 1)
        while time.monotonic() < self.stop_at:
            n += 1
            if n % _UNCACHED_EVERY == 0:
                payload = {
                    "op": "top_slopes",
                    "coord": _CUBOID,
                    "k": base_k + n,
                }
                bucket = self.uncached
            else:
                payload = {"op": "observation_deck"}
                bucket = self.cached
            t0 = time.perf_counter()
            status, body = self.service.handle("POST", "/query", payload)
            elapsed = time.perf_counter() - t0
            if status == 200:
                bucket.append((time.monotonic(), elapsed))
            elif body.get("type") not in ("StreamError", "QueryError"):
                self.errors.append(f"query -> {status}: {body}")


def _percentile(sorted_samples: list[float], q: float) -> float:
    if not sorted_samples:
        return float("nan")
    rank = max(0, min(len(sorted_samples) - 1, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[rank]


def measure_point(n_shards: int, subscribers: int = 0) -> dict:
    service = _build_service(n_shards)
    try:
        # Active continuous-query subscriptions: every seal now wakes the
        # dispatcher, which re-evaluates the shared specs and pushes into
        # the per-subscriber queues while ingest keeps flowing.  Half
        # share one watch-list spec, half one observation-deck spec, so
        # the single-flight path (N subscribers, one execution) is live.
        for i in range(subscribers):
            if i % 2 == 0:
                service.subscriptions.subscribe(Q.watch_list())
            else:
                service.subscriptions.subscribe(Q.observation_deck())
        rng = random.Random(7)
        for quarter in range(_PREFILL_QUARTERS):
            for _ in range(4):
                status, body = service.handle(
                    "POST", "/ingest", _ingest_round(rng, quarter)
                )
                assert status == 200, body
        # Seal the last prefill quarter and warm the merged view + cache.
        status, body = service.handle(
            "POST", "/advance", {"t": _PREFILL_QUARTERS * _TPQ}
        )
        assert status == 200, body
        status, body = service.handle(
            "POST", "/query", {"op": "observation_deck"}
        )
        assert status == 200, body

        start = time.monotonic()
        warm_end = start + _WARMUP_S
        stop_at = warm_end + _MEASURE_S
        ingester = _Ingester(
            service, service.cube.current_quarter, stop_at
        )
        queriers = [
            _Querier(service, i, stop_at) for i in range(_CLIENTS)
        ]
        threads = [ingester, *queriers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        errors = ingester.errors + [e for q_ in queriers for e in q_.errors]
        assert not errors, errors[:3]

        cached = sorted(
            dt
            for q_ in queriers
            for (at, dt) in q_.cached
            if at >= warm_end
        )
        uncached = sorted(
            dt
            for q_ in queriers
            for (at, dt) in q_.uncached
            if at >= warm_end
        )
        ingested = sum(
            n for (at, n) in ingester.samples if at >= warm_end
        )
        ingest_latency = sorted(
            dt for (at, dt) in ingester.latencies if at >= warm_end
        )
        return {
            # The baselines key every point by (backend, shards, ...).
            "backend": "inproc",
            "shards": n_shards,
            "clients": _CLIENTS,
            "subscriptions": subscribers,
            "cached": cached,
            "uncached": uncached,
            "ingest_latency": ingest_latency,
            "updates_enqueued": service.subscriptions.stats()[
                "updates_enqueued"
            ],
            "queries_per_s": (len(cached) + len(uncached)) / _MEASURE_S,
            "ingest_records_per_s": ingested / _MEASURE_S,
        }
    finally:
        service.close()


def concurrency_series() -> list[dict]:
    return [
        measure_point(1),
        measure_point(4),
        measure_point(4, subscribers=_SUBSCRIPTIONS),
    ]


def usable_cores() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def render_concurrency_table(points: list[dict]) -> str:
    header = (
        f"{'backend':>8} | {'shards':>6} | {'subs':>4} | {'mode':>8} | "
        f"{'p50 ms':>8} | {'p99 ms':>8} | {'query/s':>8} | "
        f"{'ingest rec/s':>12}"
    )
    lines = [
        f"concurrent serving: {_CLIENTS} query clients + 1 ingest stream "
        f"({usable_cores()} usable cores)",
        header,
        "-" * len(header),
    ]
    for p in points:
        for mode in ("cached", "uncached", "ingest"):
            samples = (
                p["ingest_latency"] if mode == "ingest" else p[mode]
            )
            lines.append(
                f"{p['backend']:>8} | {p['shards']:>6} | "
                f"{p['subscriptions']:>4} | {mode:>8} | "
                f"{_percentile(samples, 0.50) * 1e3:>8.3f} | "
                f"{_percentile(samples, 0.99) * 1e3:>8.3f} | "
                f"{len(samples) / _MEASURE_S:>8.1f} | "
                f"{p['ingest_records_per_s']:>12,.0f}"
            )
    return "\n".join(lines)


def concurrency_checks(points: list[dict]) -> list[tuple[str, bool]]:
    return [
        (
            "coverage: inproc 1/4 shards, plus "
            f"inproc 4 shards with {_SUBSCRIPTIONS} subscriptions",
            [(p["backend"], p["shards"], p["subscriptions"]) for p in points]
            == [
                ("inproc", 1, 0),
                ("inproc", 4, 0),
                ("inproc", 4, _SUBSCRIPTIONS),
            ],
        ),
        (
            "sanity: every point collected cached and uncached samples",
            all(p["cached"] and p["uncached"] for p in points),
        ),
        (
            "sanity: ingest kept flowing at every point",
            all(p["ingest_records_per_s"] > 0 for p in points),
        ),
        (
            "sanity: the subscription point actually pushed updates",
            all(
                p["updates_enqueued"] > 0
                for p in points
                if p["subscriptions"]
            ),
        ),
    ]


def json_entries(points: list[dict], scale: str) -> list[dict]:
    entries = []
    for p in points:
        # query_latency / combined entries only for subscription-free
        # points: the regression gate keys them by (backend, shards,
        # mode), and the subscription point deliberately repeats
        # inproc/4 — its purpose is the ingest_latency pair below.
        if not p["subscriptions"]:
            for mode in ("cached", "uncached"):
                samples = p[mode]
                entries.append(
                    {
                        "op": "query_latency",
                        "scale": scale,
                        "mode": mode,
                        "backend": p["backend"],
                        "shards": p["shards"],
                        "clients": p["clients"],
                        "samples": len(samples),
                        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 4),
                        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 4),
                        "queries_per_s": round(len(samples) / _MEASURE_S, 1),
                    }
                )
            entries.append(
                {
                    "op": "combined",
                    "scale": scale,
                    "backend": p["backend"],
                    "shards": p["shards"],
                    "clients": p["clients"],
                    "queries_per_s": round(p["queries_per_s"], 1),
                    "ingest_records_per_s": round(
                        p["ingest_records_per_s"], 1
                    ),
                }
            )
        samples = p["ingest_latency"]
        entries.append(
            {
                "op": "ingest_latency",
                "scale": scale,
                "backend": p["backend"],
                "shards": p["shards"],
                "subscriptions": p["subscriptions"],
                "samples": len(samples),
                "p50_ms": round(_percentile(samples, 0.50) * 1e3, 4),
                "p99_ms": round(_percentile(samples, 0.99) * 1e3, 4),
                "updates_enqueued": p["updates_enqueued"],
            }
        )
    return entries


def main() -> int:
    from repro.bench.jsonout import json_path_from_args, write_bench_json
    from repro.bench.reporting import render_shape_checks
    from repro.bench.workloads import current_scale

    points = concurrency_series()
    print(render_concurrency_table(points))
    checks = concurrency_checks(points)
    print(render_shape_checks(checks))
    json_path = json_path_from_args()
    if json_path:
        scale = current_scale().name
        target = write_bench_json(
            json_path,
            "concurrency",
            scale,
            json_entries(points, scale),
            extra={
                "cpu_count": usable_cores(),
                "query_clients": _CLIENTS,
            },
        )
        print(f"wrote {target}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
