"""Tiered storage cost: spill throughput, cold-window latency, bounded RSS.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage.py [--json PATH]

Feeds the same long seeded workload (hundreds of single-tick quarters, so
history reaches the hour/day tilt levels quickly) to two engines:

* ``spill`` — a :class:`StreamCubeEngine` over the cold store with a small
  hot horizon, measuring ingest+seal throughput while sealed slots are
  demoted to disk;
* ``resident`` — the storage-free reference engine, to price the spill
  overhead and to show what natural tilt retention keeps in RAM.

Then, against the spilling engine:

* ``cold_window`` — wall time of deep-history ``window_isbs`` calls that
  must fault pages back from disk (page cache dropped first), vs ``warm_window``
  (same bounds again, served from the page cache);
* peak tracemalloc during ingest for the spilling vs the resident engine
  (:class:`repro.bench.memprobe.TracemallocProbe`), plus resident slot
  counts — the memory-bounded-ingest story in two numbers.

``--json PATH`` (or ``REPRO_BENCH_JSON=PATH``) writes ``BENCH_storage.json``
via :mod:`repro.bench.jsonout`; ``benchmarks/check_regression.py
--storage-current`` gates the normalized cold-window query rate against the
committed baseline.  Also runnable through :mod:`benchmarks.report`.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.memprobe import TracemallocProbe
from repro.cubing.policy import GlobalSlopeThreshold
from repro.storage import BACKEND, FileColdStore
from repro.stream.engine import StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

_TPQ = 1  # single-tick quarters: 4 ticks/hour, 384/day — deep levels fast
_HOT = 2
_QUARTERS = 480
_N_CELLS = 48
# Deep bounds that cannot be answered canonically from resident slots
# (the first quarter is guaranteed cold after demotion) plus the full
# history, which mixes resident coarse slots with faulted fine ones.
_COLD_BOUNDS = (
    ("first_quarter", (0, _TPQ - 1)),
    ("full_history", (0, _QUARTERS * _TPQ - 1)),
)


@dataclass(frozen=True)
class StoragePoint:
    """One run's measurements."""

    n_records: int
    ingest_s: float
    resident_ingest_s: float
    pages_spilled: int
    cold_slots: int
    bytes_on_disk: int
    resident_slots: int
    reference_slots: int
    spill_peak_mb: float
    resident_peak_mb: float
    cold_window_s: dict[str, float]
    warm_window_s: dict[str, float]
    cold_faults: int

    @property
    def ingest_records_per_s(self) -> float:
        return self.n_records / self.ingest_s

    @property
    def cold_queries_per_s(self) -> float:
        return len(self.cold_window_s) / sum(self.cold_window_s.values())


def _build():
    return (
        DatasetSpec(2, 2, 8, 1).build_layers(),
        GlobalSlopeThreshold(0.05),
    )


def _traffic(seed: int = 17) -> list[StreamRecord]:
    rng = random.Random(seed)
    pool = [
        (rng.randrange(64), rng.randrange(64)) for _ in range(_N_CELLS)
    ]
    return [
        StreamRecord(key, q * _TPQ, rng.uniform(-3.0, 3.0))
        for q in range(_QUARTERS)
        for key in pool
        if rng.random() < 0.8
    ]


def _resident_slots(engine: StreamCubeEngine) -> int:
    # Every cell retains the clock's slots; one frame_of() reads the count.
    if not engine.tracked_cells:
        return 0
    first = engine._table.keys[engine._ids[0]]  # row 0's cell key
    return engine.frame_of(first).total_retained * engine.tracked_cells


def _timed_ingest(engine, records) -> tuple[float, float]:
    """(wall seconds, tracemalloc peak MB) of ingest + advance-to-end."""
    with TracemallocProbe() as probe:
        t0 = time.perf_counter()
        engine.ingest_many(records)
        engine.advance_to(_QUARTERS * _TPQ)
        wall = time.perf_counter() - t0
    return wall, probe.peak_megabytes


def measure() -> StoragePoint:
    layers, policy = _build()
    records = _traffic()

    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-storage-"))
    try:
        store = FileColdStore(workdir / "cold")
        engine = StreamCubeEngine(
            layers, policy, ticks_per_quarter=_TPQ,
            storage=store, hot_quarters=_HOT,
        )
        ingest_s, spill_peak = _timed_ingest(engine, records)

        reference = StreamCubeEngine(layers, policy, ticks_per_quarter=_TPQ)
        resident_s, resident_peak = _timed_ingest(reference, records)

        # Cold pass: drop the page cache so every bound faults from disk,
        # then replay the same bounds warm (cache hits, no disk reads).
        # Best of three rounds each — single-digit-ms walls are too noisy
        # for the CI regression gate otherwise.
        cold_s: dict[str, float] = {}
        warm_s: dict[str, float] = {}
        for _ in range(3):
            for label, (t_b, t_e) in _COLD_BOUNDS:
                engine.drop_page_cache()
                t0 = time.perf_counter()
                engine.window_isbs(t_b, t_e)
                wall = time.perf_counter() - t0
                cold_s[label] = min(cold_s.get(label, wall), wall)
            for label, (t_b, t_e) in _COLD_BOUNDS:
                t0 = time.perf_counter()
                engine.window_isbs(t_b, t_e)
                wall = time.perf_counter() - t0
                warm_s[label] = min(warm_s.get(label, wall), wall)

        stats = engine.storage_stats()
        return StoragePoint(
            n_records=len(records),
            ingest_s=ingest_s,
            resident_ingest_s=resident_s,
            pages_spilled=stats["pages_spilled"],
            cold_slots=stats["cold_slots"],
            bytes_on_disk=store.stats().bytes_on_disk,
            resident_slots=_resident_slots(engine),
            reference_slots=_resident_slots(reference),
            spill_peak_mb=spill_peak,
            resident_peak_mb=resident_peak,
            cold_window_s=cold_s,
            warm_window_s=warm_s,
            cold_faults=stats["cold_faults"],
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def render_storage_table(p: StoragePoint) -> str:
    header = (
        f"{'ingest rec/s':>12} | {'vs resident':>11} | "
        f"{'pages':>5} | {'disk KB':>7} | {'hot slots':>9} | "
        f"{'cold ms':>7} | {'warm ms':>7}"
    )
    cold_ms = sum(p.cold_window_s.values()) * 1e3
    warm_ms = sum(p.warm_window_s.values()) * 1e3
    return "\n".join(
        [
            f"tiered storage ({_QUARTERS} quarters, hot horizon "
            f"{_HOT}q, {p.n_records} records)",
            header,
            "-" * len(header),
            f"{p.ingest_records_per_s:>12,.0f} | "
            f"{p.ingest_s / p.resident_ingest_s:>10.2f}x | "
            f"{p.pages_spilled:>5} | {p.bytes_on_disk / 1024:>7.1f} | "
            f"{p.resident_slots:>4}/{p.reference_slots:<4} | "
            f"{cold_ms:>7.1f} | {warm_ms:>7.1f}",
            f"ingest peak tracemalloc: spilling {p.spill_peak_mb:.1f} MB vs "
            f"resident {p.resident_peak_mb:.1f} MB",
        ]
    )


def storage_checks(p: StoragePoint) -> list[tuple[str, bool]]:
    return [
        (
            "sealing demotes history to disk "
            "(pages and cold slots accumulate)",
            p.pages_spilled > 0 and p.cold_slots > 0 and p.bytes_on_disk > 0,
        ),
        (
            "resident slots stay bounded by the hot set "
            "(under half of natural tilt retention)",
            p.resident_slots < 0.5 * p.reference_slots,
        ),
        (
            "spill tax on ingest is bounded (< 4x the storage-free engine)",
            p.ingest_s < 4.0 * p.resident_ingest_s,
        ),
        (
            "deep windows really fault cold pages",
            p.cold_faults > 0,
        ),
        (
            "memory-bounded ingest: spilling peak allocation stays within "
            "1.5x of the resident engine (pages stream out, not pile up)",
            p.spill_peak_mb < 1.5 * p.resident_peak_mb,
        ),
    ]


def json_entries(p: StoragePoint, scale: str) -> list[dict]:
    """The machine-readable form of one run (see ``repro.bench.jsonout``)."""
    entries: list[dict] = [
        {
            "op": "spill_ingest",
            "scale": scale,
            "backend": BACKEND,
            "n_records": p.n_records,
            "quarters": _QUARTERS,
            "hot_quarters": _HOT,
            "wall_s": round(p.ingest_s, 6),
            "records_per_s": round(p.ingest_records_per_s, 1),
            "pages_spilled": p.pages_spilled,
            "cold_slots": p.cold_slots,
            "bytes_on_disk": p.bytes_on_disk,
            "resident_slots": p.resident_slots,
            "reference_slots": p.reference_slots,
            "spill_peak_mb": round(p.spill_peak_mb, 3),
            "resident_peak_mb": round(p.resident_peak_mb, 3),
        }
    ]
    for label, wall in p.cold_window_s.items():
        entries.append(
            {
                "op": "cold_window",
                "scale": scale,
                "backend": BACKEND,
                "bound": label,
                "wall_s": round(wall, 6),
                "warm_wall_s": round(p.warm_window_s[label], 6),
                "queries_per_s": round(1.0 / wall, 1),
                "records_per_s": None,
            }
        )
    return entries


def main() -> int:
    from repro.bench.jsonout import json_path_from_args, write_bench_json
    from repro.bench.reporting import render_shape_checks
    from repro.bench.workloads import current_scale

    point = measure()
    print(render_storage_table(point))
    checks = storage_checks(point)
    print(render_shape_checks(checks))
    json_path = json_path_from_args()
    if json_path:
        scale = current_scale().name
        target = write_bench_json(
            json_path, "storage", scale, json_entries(point, scale)
        )
        print(f"wrote {target}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
