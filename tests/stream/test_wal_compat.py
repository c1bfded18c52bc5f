"""Journals written before the packed batch form still replay.

``fixtures/parent_wal`` holds a sealed and an active segment written by
the last build that journaled batches as ``"records"`` rows under a
version 1 header (see its ``make_fixture.py``).  Replayed here, they must
rebuild the cube bit for bit, and so must the same active segment after
this build has appended packed lines to it.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

from repro.stream.wal import QuarterWAL

from tests.stream.test_state import assert_engines_identical

FIXTURE = Path(__file__).parent / "fixtures" / "parent_wal"


def fixture_module():
    spec = importlib.util.spec_from_file_location(
        "parent_wal_fixture", FIXTURE / "make_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def journal_copy(tmp_path: Path) -> Path:
    for segment in FIXTURE.glob("wal.jsonl*"):
        shutil.copy(segment, tmp_path / segment.name)
    return tmp_path / "wal.jsonl"


def assert_cubes_identical(a, b) -> None:
    assert a.current_quarter == b.current_quarter
    assert a.records_ingested == b.records_ingested
    for shard_a, shard_b in zip(a.shards, b.shards, strict=True):
        assert_engines_identical(shard_a, shard_b)


def line_shapes(path: Path) -> list[str]:
    shapes = []
    for line in path.read_text().splitlines()[1:]:
        payload = json.loads(line)
        if payload["kind"] == "batch":
            shapes.append("rows" if "records" in payload else "packed")
    return shapes


def test_the_fixture_is_a_parent_journal():
    assert sorted(p.name for p in FIXTURE.glob("wal.jsonl*")) == [
        "wal.jsonl",
        "wal.jsonl.000000000001-000000000005",
    ]
    for segment in FIXTURE.glob("wal.jsonl*"):
        header = json.loads(segment.read_text().splitlines()[0])
        assert header["version"] == 1
        assert set(line_shapes(segment)) == {"rows"}


def test_a_parent_journal_replays_bit_identical(tmp_path):
    fixture = fixture_module()
    actions = fixture.batches()
    wal = QuarterWAL(journal_copy(tmp_path))
    assert [e.seq for e in wal.entries()] == list(range(1, len(actions) + 1))
    assert [e.kind for e in wal.entries()] == [
        "advance" if isinstance(a, int) else "batch" for a in actions
    ]
    with fixture.build_cube() as replayed, fixture.build_cube() as direct:
        assert wal.replay(replayed) == len(actions)
        for action in actions:
            fixture.apply(direct, action)
        assert_cubes_identical(replayed, direct)
    wal.close()


def test_packed_lines_append_to_a_parent_segment(tmp_path):
    """The new build keeps journaling into the version 1 active segment
    (one segment, mixed lines), and the whole journal still replays."""
    fixture = fixture_module()
    actions = fixture.batches()
    path = journal_copy(tmp_path)
    more = [
        [type(r)(r.values, r.t + 40, -r.z) for r in batch]
        for batch in actions
        if not isinstance(batch, int)
    ][:4]
    wal = QuarterWAL(path)
    with fixture.build_cube() as live:
        wal.replay(live)
        live.wal = wal
        for batch in more:
            live.ingest_batch(batch)
        live.advance_to(2 * 40)
    wal.close()
    assert line_shapes(path)[-len(more):] == ["packed"] * len(more)
    assert "rows" in line_shapes(path)
    with fixture.build_cube() as replayed, fixture.build_cube() as direct:
        QuarterWAL(path).replay(replayed)
        for action in [*actions, *more, 2 * 40]:
            fixture.apply(direct, action)
        assert_cubes_identical(replayed, direct)
