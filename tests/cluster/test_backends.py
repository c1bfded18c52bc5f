"""The shard backend: in-process dispatch and the per-engine host.

:class:`InprocBackend` runs every shard call on the caller's thread through
one :class:`ShardHost` per engine.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import InprocBackend, ShardHost
from repro.errors import CorruptionError, ServiceError, StreamError
from repro.service.sharding import ShardedStreamCube
from repro.stream.engine import StreamCubeEngine
from repro.stream.records import StreamRecord

from tests.cluster.conftest import TPQ, workload


def make_engines(layers, policy, n=2):
    return [
        StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        for _ in range(n)
    ]


def make_cube(layers, policy):
    return ShardedStreamCube(layers, policy, n_shards=2, ticks_per_quarter=TPQ)


class TestInprocBackend:
    def test_call_and_counters(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        backend.call(0, "ingest", StreamRecord((0, 0), 0, 1.0))
        backend.call(1, "ingest", StreamRecord((1, 1), 0, 2.0))
        backend.broadcast("advance_to", TPQ)
        counters = backend.counters()
        assert [c[0] for c in counters] == [1, 1]
        assert [c[1] for c in counters] == [1, 1]

    def test_map_with_per_shard_args(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        backend.map(
            "ingest",
            [
                (StreamRecord((0, 0), 0, 1.0),),
                (StreamRecord((1, 1), 1, 2.0),),
            ],
        )
        assert [c[1] for c in backend.counters()] == [1, 1]

    def test_engines_property_exposes_live_engines(self, layers, policy):
        engines = make_engines(layers, policy)
        backend = InprocBackend(engines)
        assert backend.engines == engines
        assert backend.n_shards == 2

    def test_counters_are_one_row_per_shard(self, layers, policy):
        """``[current_quarter, records_ingested, tracked_cells,
        cell_events]`` a shard: the rows ``/health``, ``/stats`` and the
        epoch vector sum, and no worker fields
        (pids, restarts, RPCs, a health roster) beside them."""
        backend = InprocBackend(make_engines(layers, policy, n=3))
        assert backend.counters() == [[0, 0, 0, 0]] * 3
        for fossil in ("stats", "health", "name"):
            assert not hasattr(backend, fossil), fossil

    def test_counters_carry_the_quarter_clock(self, layers, policy):
        """The quarter column is what a degraded answer's
        ``last_quarter`` staleness bound reads."""
        backend = InprocBackend(make_engines(layers, policy))
        backend.call(1, "ingest", StreamRecord((1, 1), 0, 2.0))
        backend.broadcast("advance_to", 3 * TPQ)
        assert backend.counters() == [[3, 0, 0, 0], [3, 1, 1, 1]]


class TestInprocRunsInline:
    """The in-process backend starts no threads: every shard call runs on
    the thread that made it."""

    def test_cube_lifecycle_starts_no_shard_threads(
        self, layers, policy, tmp_path
    ):
        before = set(threading.enumerate())
        cubes = [make_cube(layers, policy)]
        try:
            cube = cubes[0]
            cube.ingest_batch(workload(5))
            cube.advance_to(6 * TPQ)
            cube.refresh()
            cube.snapshot(tmp_path)
            cubes.append(ShardedStreamCube.restore(tmp_path, layers, policy))
            cubes.append(cube.reshard(3))
            assert cubes[1].m_cells() == cubes[2].m_cells() == cube.m_cells()
            started = [
                thread.name
                for thread in set(threading.enumerate()) - before
                if thread.name.startswith(("repro-shard", "repro-restore"))
            ]
            assert not started, started
        finally:
            for cube in cubes:
                cube.close()

    def test_engine_sees_the_callers_thread(
        self, layers, policy, monkeypatch
    ):
        seen: set[int] = set()

        def recording(method):
            def wrapper(engine, *args):
                seen.add(threading.get_ident())
                return method(engine, *args)

            return wrapper

        for name in ("apply_segments", "advance_to", "window_columns"):
            method = getattr(StreamCubeEngine, name)
            monkeypatch.setattr(StreamCubeEngine, name, recording(method))
        cube = make_cube(layers, policy)
        try:
            cube.ingest_batch(workload(5))
            cube.advance_to(6 * TPQ)
            cube.m_cells()
        finally:
            cube.close()
        assert seen == {threading.get_ident()}

    def test_submit_returns_a_done_future(self, layers, policy):
        backend = InprocBackend(make_engines(layers, policy))
        done = backend.submit(1, "ingest", StreamRecord((1, 1), 0, 2.0))
        assert done.done() and done.result() is None
        assert backend.counters()[1][1] == 1
        failed = backend.submit(0, "no_such_method")
        assert failed.done()
        assert isinstance(failed.exception(), ServiceError)
        with pytest.raises(ServiceError, match="unknown shard method"):
            failed.result()

    def test_map_runs_every_shard_then_raises_the_first_failure(
        self, layers, policy
    ):
        backend = InprocBackend(make_engines(layers, policy, n=3))
        backend.call(0, "advance_to", 2 * TPQ)  # quarter 0 sealed on 0
        with pytest.raises(StreamError):
            backend.map(
                "ingest",
                [(StreamRecord((i, i), 0, 1.0),) for i in range(3)],
            )
        assert [c[1] for c in backend.counters()] == [0, 1, 1]

    def test_quarantined_shard_is_one_hole(self, layers, policy):
        records = workload(5)
        cube = make_cube(layers, policy)
        survivors = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        try:
            cube.ingest_batch(records)
            cube.advance_to(6 * TPQ)
            survivors.ingest_many(
                [r for r in records if cube.shard_index(r.values) == 0]
            )
            survivors.advance_to(6 * TPQ)

            def quarantined(*args):
                raise CorruptionError("cold page quarantined (injected)")

            cube.shards[1].window_columns = quarantined
            cube.degraded_reads = True
            assert cube.m_cells() == survivors.m_cells()
            holes = cube.consume_degraded()
            assert [(hole["shard"], hole["state"]) for hole in holes] == [
                (1, "degraded")
            ]
        finally:
            cube.close()


class TestShardHost:
    def host(self, layers, policy):
        return ShardHost(
            StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        )

    def test_unknown_method_rejected(self, layers, policy):
        with pytest.raises(ServiceError, match="unknown shard method"):
            self.host(layers, policy).invoke("load_statee", ())
        # Dunder / private engine internals are not reachable either.
        with pytest.raises(ServiceError, match="unknown shard method"):
            self.host(layers, policy).invoke("_cells", ())

    def test_counters_track_engine(self, layers, policy):
        host = self.host(layers, policy)
        records = workload(3, quarters=2)
        host.invoke("ingest", (records[0],))
        host.invoke("advance_to", (2 * TPQ,))
        quarter, ingested, cells, events = host.counters()
        assert quarter == 2
        assert ingested == 1
        assert cells == 1
        assert events == 1  # one birth

    def test_snapshot_to_file_round_trips(self, layers, policy, tmp_path):
        host = self.host(layers, policy)
        host.invoke("ingest", (StreamRecord((2, 2), 0, 3.5),))
        host.invoke("advance_to", (TPQ,))
        target = tmp_path / "shard.json"
        host.invoke("snapshot_to_file", (str(target),))

        import json

        from repro.io import engine_state_from_dict

        state = engine_state_from_dict(
            json.loads(target.read_text(encoding="utf-8"))
        )
        fresh = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        fresh.load_state(state)
        assert fresh.m_cells(1) == host.engine.m_cells(1)
