"""Fault-injection seam overhead: disarmed guards must be (nearly) free.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py [--json PATH]

Every durability I/O path now runs through the :mod:`repro.faults`
guards (``check`` / ``torn`` / ``corrupt`` / ``lie``), which cost one
module-global ``None`` check when no plan is armed.  This bench pins
that claim with numbers: the same seeded ingest workload (quarter-sized
batches through a WAL-journaled, file-spilling cube — the configuration
with the *most* guard crossings per record) is timed three ways:

* ``stubbed`` — the guard functions monkeypatched to bare no-ops, the
  closest approximation of a build without the seam,
* ``disarmed`` — the guards as shipped, no plan armed (production),
* ``armed-quiet`` — a plan armed whose only rule is a zero-second
  latency wildcard, so every guard consults the injector but nothing
  fires (informational: the price of *running* under a plan).

The gated claim is ``disarmed / stubbed >= 0.98`` — having the seam
compiled in costs less than 2% of ingest throughput.  ``--json PATH``
(or ``REPRO_BENCH_JSON=PATH``) writes ``BENCH_faults.json`` with one
entry per mode plus the ratio; ``check_regression.py --faults-current``
re-asserts the floor in CI.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from dataclasses import dataclass

from repro import faults
from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.sharding import ShardedStreamCube
from repro.storage import StorageConfig
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.stream.wal import QuarterWAL

_TPQ = 15
_QUARTERS = 8
_RECORDS_PER_TICK = 250
_LEAF_SPAN = 30
_MIN_RATIO = 0.98

#: The disarmed-vs-stubbed gate: > 1 round keeps scheduler noise from
#: condemning a 1% seam (best-of-N mins, same treatment for both modes).
_ROUNDS = 3


@dataclass(frozen=True)
class FaultPoint:
    """One guard-mode ingest measurement."""

    mode: str
    n_records: int
    ingest_s: float

    @property
    def ingest_rps(self) -> float:
        return self.n_records / self.ingest_s


def _workload(seed: int = 23) -> list[StreamRecord]:
    rng = random.Random(seed)
    records = []
    for t in range(_QUARTERS * _TPQ):
        for _ in range(_RECORDS_PER_TICK):
            values = tuple(
                rng.randrange(_LEAF_SPAN) for _ in range(3)
            )
            records.append(StreamRecord(values, t, rng.uniform(0.0, 4.0)))
    return records


def _stub_guards() -> dict[str, object]:
    """Replace the module guards with bare no-ops; returns the originals."""
    originals = {
        "check": faults.check,
        "torn": faults.torn,
        "corrupt": faults.corrupt,
        "lie": faults.lie,
        "active": faults.active,
    }
    faults.check = lambda site: None
    faults.torn = lambda site: False
    faults.corrupt = lambda site, data: data
    faults.lie = lambda site: False
    faults.active = lambda: None
    return originals


def _restore_guards(originals: dict[str, object]) -> None:
    for name, fn in originals.items():
        setattr(faults, name, fn)


def measure_ingest(
    mode: str, records: list[StreamRecord], tmp_root, rounds: int = _ROUNDS
) -> FaultPoint:
    """Best-of-``rounds`` ingest wall time under one guard mode."""
    layers = DatasetSpec(3, 3, 10, 1).build_layers()
    per_quarter = _TPQ * _RECORDS_PER_TICK
    batches = [
        records[i : i + per_quarter]
        for i in range(0, len(records), per_quarter)
    ]
    best = float("inf")
    for round_no in range(rounds):
        workdir = tmp_root / f"{mode}-{round_no}"
        originals = None
        faults.clear()
        if mode == "stubbed":
            originals = _stub_guards()
        elif mode == "armed-quiet":
            faults.install(
                {
                    "seed": 0,
                    "rules": [
                        {
                            "site": "*",
                            "kind": "latency",
                            "count": 0,
                            "seconds": 0.0,
                        }
                    ],
                }
            )
        cube = ShardedStreamCube(
            layers,
            GlobalSlopeThreshold(0.05),
            n_shards=2,
            ticks_per_quarter=_TPQ,
            wal=QuarterWAL(workdir / "cube.wal"),
            storage=StorageConfig(root=workdir / "cold", hot_quarters=2),
        )
        try:
            gc.collect()
            t0 = time.perf_counter()
            for batch in batches:
                cube.ingest_batch(batch)
            cube.advance_to(_QUARTERS * _TPQ)
            best = min(best, time.perf_counter() - t0)
            assert cube.records_ingested == len(records)
        finally:
            cube.close()
            if cube.wal is not None:
                cube.wal.close()
            if originals is not None:
                _restore_guards(originals)
            faults.clear()
    return FaultPoint(mode=mode, n_records=len(records), ingest_s=best)


def fault_series(tmp_root) -> list[FaultPoint]:
    records = _workload()
    # Interleave-free order is fine: best-of-N mins already absorb drift.
    return [
        measure_ingest("stubbed", records, tmp_root),
        measure_ingest("disarmed", records, tmp_root),
        measure_ingest("armed-quiet", records, tmp_root),
    ]


def overhead_ratio(rows: list[FaultPoint]) -> float:
    by_mode = {p.mode: p for p in rows}
    return by_mode["disarmed"].ingest_rps / by_mode["stubbed"].ingest_rps


def render_fault_table(rows: list[FaultPoint]) -> str:
    stubbed = rows[0].ingest_rps
    header = (
        f"{'mode':>12} | {'ingest rec/s':>12} | {'vs stubbed':>10}"
    )
    lines = [
        "fault-injection seam overhead (WAL + file spill ingest)",
        header,
        "-" * len(header),
    ]
    for p in rows:
        lines.append(
            f"{p.mode:>12} | {p.ingest_rps:>12,.0f} | "
            f"{p.ingest_rps / stubbed:>9.3f}x"
        )
    return "\n".join(lines)


def fault_checks(rows: list[FaultPoint]) -> list[tuple[str, bool]]:
    ratio = overhead_ratio(rows)
    return [
        (
            "coverage: stubbed, disarmed and armed-quiet modes measured",
            sorted(p.mode for p in rows)
            == ["armed-quiet", "disarmed", "stubbed"],
        ),
        (
            "sanity: every mode ingested the full workload",
            len({p.n_records for p in rows}) == 1,
        ),
        (
            f"overhead: disarmed guards keep >= {_MIN_RATIO:.0%} of "
            f"stubbed ingest throughput (got {ratio:.3f})",
            ratio >= _MIN_RATIO,
        ),
    ]


def json_entries(rows: list[FaultPoint], scale: str) -> list[dict]:
    stubbed = rows[0].ingest_rps
    return [
        {
            "op": "ingest_batch",
            "scale": scale,
            "mode": p.mode,
            "n_records": p.n_records,
            "wall_s": round(p.ingest_s, 6),
            "records_per_s": round(p.ingest_rps, 1),
            "vs_stubbed": round(p.ingest_rps / stubbed, 4),
        }
        for p in rows
    ]


def main() -> int:
    import tempfile
    from pathlib import Path

    from repro.bench.jsonout import json_path_from_args, write_bench_json
    from repro.bench.reporting import render_shape_checks
    from repro.bench.workloads import current_scale

    with tempfile.TemporaryDirectory(prefix="repro-bench-faults-") as tmp:
        rows = fault_series(Path(tmp))
    print(render_fault_table(rows))
    checks = fault_checks(rows)
    print(render_shape_checks(checks))
    json_path = json_path_from_args()
    if json_path:
        scale = current_scale().name
        target = write_bench_json(
            json_path,
            "faults",
            scale,
            json_entries(rows, scale),
            extra={
                "overhead_ratio": round(overhead_ratio(rows), 4),
                "min_ratio": _MIN_RATIO,
            },
        )
        print(f"wrote {target}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
