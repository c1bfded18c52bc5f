"""Writes ``state.json`` — run it at the commit whose engine it pins.

The committed file was written at commit 034bbe6 (the last build that kept
the open quarter as one ``_CellState`` + ``tick_sums`` dict per cell)::

    PYTHONPATH=src python tests/stream/fixtures/parent_open_quarter/make_fixture.py

It feeds :func:`batches` to one engine and records the codec form of a
snapshot taken *mid-quarter* — open ticks in several cells, sums whose value
depends on the order they were added in.
``tests/stream/test_columnar_ingest.py`` feeds the same batches to the
current engine and requires the same decoded ``EngineState``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import engine_state_to_dict
from repro.stream.engine import StreamCubeEngine
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord

HERE = Path(__file__).resolve().parent
TPQ = 4
#: Magnitudes that make a (cell, tick) sum depend on summation order.
MAGNITUDES = (1e16, 1.0, -1e16, 0.1, 3.0, 1e-8, -2.5, 7e15)


def build_engine() -> StreamCubeEngine:
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    return StreamCubeEngine(
        layers, GlobalSlopeThreshold(0.05), ticks_per_quarter=TPQ
    )


def batches() -> list[list[StreamRecord]]:
    """Eleven quarters of traffic and a partial twelfth, in batches that
    start and stop mid-quarter and sometimes span several quarters."""
    rng = random.Random(17)
    records = []
    for quarter in range(12):
        ticks = range(quarter * TPQ, quarter * TPQ + (2 if quarter == 11 else TPQ))
        for _ in range(40):
            hot = rng.random() < 0.5  # two hot cells take most duplicates
            key = (0, rng.randrange(2)) if hot else (rng.randrange(9), rng.randrange(9))
            records.append(StreamRecord(key, rng.choice(ticks), rng.choice(MAGNITUDES)))
    records.sort(key=lambda record: record.t // TPQ)  # stable: arrival order kept
    out, at = [], 0
    while at < len(records):
        size = rng.choice((1, 7, 30, 95))
        out.append(records[at : at + size])
        at += size
    return out


def main() -> None:
    engine = build_engine()
    for batch in batches():
        engine.ingest_many(batch)
    recorded = engine_state_to_dict(engine.snapshot())
    (HERE / "state.json").write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
