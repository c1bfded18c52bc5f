"""Service-layer throughput: sharded ingest rate and query-cache latency.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--json PATH]

Measures, at 1/2/4 shards over the same seeded workload:

* batched ingest throughput (records/second through ``ingest_batch``),
* merged-refresh cost, twice (the first query of an epoch pays one of them;
  best of three each): ``refresh`` is the steady state — the cell set stood
  still since the last refresh, so the cube's held cubing plan is re-run
  over fresh columns — and ``refresh_cold`` the first refresh after one
  birth, i.e. plan build + run (the whole of what every refresh used to
  cost),
* uncached query latency (merged view warm, LRU miss path), and
* cached query latency (LRU hit path).

Ingestion runs on the columnar fast path (grouped batch routing, one
grouped-fit kernel per sealed quarter, bulk tilt-frame promotion — see
``repro.regression.kernels``).

``--json PATH`` (or ``REPRO_BENCH_JSON=PATH``) additionally writes
``BENCH_service_throughput.json`` — op, scale, wall seconds, records/s and
peak memory per shard count — which is what the CI perf-smoke job diffs
against the committed baseline in ``benchmarks/baselines/``.

Also runnable through :mod:`benchmarks.report` (a service section follows the
paper figures).  Pure-Python shards share the GIL, so ingest is not expected
to scale with shard count yet — the table pins today's dispatch overhead so
the later process-shard PR has a baseline to beat.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from dataclasses import dataclass

from repro.cubing.policy import GlobalSlopeThreshold
from repro.query.spec import Q
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

_TPQ = 15
_QUARTERS = 6
_RECORDS_PER_TICK = 60
_QUERY_SAMPLE = 200


@dataclass(frozen=True)
class ServicePoint:
    """One shard count's measurements."""

    shards: int
    n_records: int
    ingest_s: float
    refresh_ms: float
    refresh_cold_ms: float
    uncached_us: float
    cached_us: float

    @property
    def ingest_rps(self) -> float:
        return self.n_records / self.ingest_s

    @property
    def cache_speedup(self) -> float:
        return self.uncached_us / self.cached_us


def _workload(seed: int = 17) -> list[StreamRecord]:
    rng = random.Random(seed)
    leaf_card = 10**3  # D3L3C10 leaves per dimension
    records = []
    for t in range(_QUARTERS * _TPQ):
        for _ in range(_RECORDS_PER_TICK):
            values = tuple(rng.randrange(leaf_card) for _ in range(3))
            records.append(StreamRecord(values, t, rng.uniform(0.0, 4.0)))
    return records


def measure_service(
    n_shards: int, records: list[StreamRecord], rounds: int = 3
) -> ServicePoint:
    layers = DatasetSpec(3, 3, 10, 1).build_layers()
    # Best-of-N over fresh cubes: single-shot wall times on a shared machine
    # jitter far more than the 25% CI regression gate tolerates.
    ingest_s = float("inf")
    cube = None
    for _ in range(rounds):
        if cube is not None:
            cube.close()
        candidate = ShardedStreamCube(
            layers,
            GlobalSlopeThreshold(0.05),
            n_shards=n_shards,
            ticks_per_quarter=_TPQ,
        )
        gc.collect()
        t0 = time.perf_counter()
        candidate.ingest_batch(records)
        candidate.advance_to(_QUARTERS * _TPQ)
        ingest_s = min(ingest_s, time.perf_counter() - t0)
        cube = candidate
    with cube:
        router = QueryRouter(cube, window_quarters=4)
        m_coord = layers.m_coord
        # Best-of-N like ingest: both refresh rows are gated in CI.
        def best_refresh_ms(before=lambda: None) -> float:
            best = float("inf")
            for _ in range(rounds):
                before()
                gc.collect()
                t0 = time.perf_counter()
                cube.refresh(window_quarters=4)  # merged m-layer + recube
                best = min(best, (time.perf_counter() - t0) * 1e3)
            return best

        births = iter(range(10**3))

        def one_birth() -> None:
            # A cell the workload (values drawn below 1,000 at random) all
            # but surely never used, recorded in the open quarter: the
            # window's floats stand, the cell set — and the plan — moves.
            key = (next(births), 10**3 - 1, 10**3 - 1)
            cube.ingest_batch([StreamRecord(key, _QUARTERS * _TPQ, 1.0)])

        refresh_cold_ms = best_refresh_ms(one_birth)
        refresh_ms = best_refresh_ms()
        router.view()

        rng = random.Random(23)
        cells = list(cube.m_cells(4))
        sample = [cells[rng.randrange(len(cells))] for _ in range(_QUERY_SAMPLE)]

        t0 = time.perf_counter()
        for values in sample:
            router.execute(Q.cell(m_coord, values))
        first_pass = time.perf_counter() - t0
        t0 = time.perf_counter()
        for values in sample:
            router.execute(Q.cell(m_coord, values))
        second_pass = time.perf_counter() - t0

        distinct = len(set(sample))
        # First pass: `distinct` misses + the rest hits; isolate the miss cost.
        hit_us = second_pass / len(sample) * 1e6
        miss_us = max(
            (first_pass - (len(sample) - distinct) * second_pass / len(sample))
            / distinct
            * 1e6,
            hit_us,
        )
        return ServicePoint(
            shards=n_shards,
            n_records=len(records),
            ingest_s=ingest_s,
            refresh_ms=refresh_ms,
            refresh_cold_ms=refresh_cold_ms,
            uncached_us=miss_us,
            cached_us=hit_us,
        )


def service_throughput_series(
    shard_counts: tuple[int, ...] = (1, 2, 4),
) -> list[ServicePoint]:
    records = _workload()
    return [measure_service(k, records) for k in shard_counts]


def render_service_table(rows: list[ServicePoint]) -> str:
    header = (
        f"{'shards':>6} | {'ingest rec/s':>12} | {'refresh ms':>10} | "
        f"{'cold ms':>7} | {'uncached µs':>11} | {'cached µs':>9} | "
        f"{'speedup':>7}"
    )
    lines = [
        "service throughput (ingest + point-query latency)",
        header,
        "-" * len(header),
    ]
    for p in rows:
        lines.append(
            f"{p.shards:>6} | {p.ingest_rps:>12.0f} | {p.refresh_ms:>10.1f} | "
            f"{p.refresh_cold_ms:>7.1f} | "
            f"{p.uncached_us:>11.1f} | {p.cached_us:>9.1f} | "
            f"{p.cache_speedup:>6.1f}x"
        )
    return "\n".join(lines)


def service_checks(rows: list[ServicePoint]) -> list[tuple[str, bool]]:
    return [
        (
            "cache: a hit is cheaper than a miss at every shard count",
            all(p.cached_us <= p.uncached_us for p in rows),
        ),
        (
            "merge: refresh cost stays within 3x across shard counts, plan "
            "held or rebuilt (the union is the same m-layer)",
            all(
                max(costs) < 3.0 * min(costs)
                for costs in (
                    [p.refresh_ms for p in rows],
                    [p.refresh_cold_ms for p in rows],
                )
            ),
        ),
        (
            "ingest: dispatch overhead stays within 3x of the 1-shard path",
            max(p.ingest_s for p in rows) < 3.0 * min(p.ingest_s for p in rows),
        ),
    ]


def json_entries(rows: list[ServicePoint], scale: str) -> list[dict]:
    """The machine-readable form of one run (see ``repro.bench.jsonout``)."""
    entries: list[dict] = []
    for p in rows:
        entries.append(
            {
                "op": "ingest_batch",
                "scale": scale,
                "shards": p.shards,
                "n_records": p.n_records,
                "wall_s": round(p.ingest_s, 6),
                "records_per_s": round(p.ingest_rps, 1),
            }
        )
        for op, ms in (("refresh", p.refresh_ms), ("refresh_cold", p.refresh_cold_ms)):
            entries.append(
                {
                    "op": op,
                    "scale": scale,
                    "shards": p.shards,
                    "wall_s": round(ms / 1e3, 6),
                    "records_per_s": None,
                }
            )
        entries.append(
            {
                "op": "query_uncached",
                "scale": scale,
                "shards": p.shards,
                "wall_s": round(p.uncached_us / 1e6, 9),
                "records_per_s": None,
            }
        )
        entries.append(
            {
                "op": "query_cached",
                "scale": scale,
                "shards": p.shards,
                "wall_s": round(p.cached_us / 1e6, 9),
                "records_per_s": None,
            }
        )
    return entries


def main() -> int:
    from repro.bench.jsonout import json_path_from_args, write_bench_json
    from repro.bench.reporting import render_shape_checks
    from repro.bench.workloads import current_scale

    rows = service_throughput_series()
    print(render_service_table(rows))
    checks = service_checks(rows)
    print(render_shape_checks(checks))
    json_path = json_path_from_args()
    if json_path:
        scale = current_scale().name
        target = write_bench_json(
            json_path,
            "service_throughput",
            scale,
            json_entries(rows, scale),
        )
        print(f"wrote {target}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
