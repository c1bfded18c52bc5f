"""QueryRouter: cached answers, seal-time invalidation, correctness."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.errors import QueryError, ServiceError
from repro.query import Q, RegressionCubeView, execute
from repro.service.router import LRUCache, QueryRouter, _Flight
from repro.service.sharding import ShardedStreamCube
from repro.stream.records import StreamRecord

from tests.service.conftest import TPQ, workload


@pytest.fixture
def cube(layers, policy):
    cube = ShardedStreamCube(
        layers, policy, n_shards=2, ticks_per_quarter=TPQ
    )
    cube.ingest_batch(workload(3))
    cube.advance_to(6 * TPQ)
    yield cube
    cube.close()


@pytest.fixture
def router(cube):
    return QueryRouter(cube, window_quarters=4)


V1, V2, V3 = (0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 2, 2)


class TestLRUCache:
    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", (V1, "va"))
        cache.put("b", (V1, "vb"))
        assert cache.get_versioned("a", V1) == (V1, "va")  # refresh a
        cache.put("c", (V1, "vc"))  # evicts b
        assert cache.get_versioned("b", V1) is None
        assert cache.get_versioned("a", V1) == (V1, "va")
        assert cache.get_versioned("c", V1) == (V1, "vc")

    def test_capacity_validated(self):
        with pytest.raises(ServiceError):
            LRUCache(0)

    def test_versioned_hit_and_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("k", (V1, "value"))
        assert cache.get_versioned("k", V1) == (V1, "value")
        assert cache.hits == 1
        assert cache.get_versioned("k", V2) is None  # stale
        assert cache.get_versioned("absent", V1) is None
        assert cache.misses == 2

    def test_stale_entry_evicted_on_detection(self):
        # Regression: a stale line used to squat on its LRU slot until
        # capacity pressure pushed a *live* line out instead.  With
        # capacity 2, detecting "a" as stale must free its slot so the
        # next put does not evict the still-valid "b".
        cache = LRUCache(2)
        cache.put("a", (V1, "va"))
        cache.put("b", (V1, "vb"))
        assert cache.get_versioned("a", V2) is None  # stale -> evicted now
        cache.put("c", (V1, "vc"))
        assert cache.get_versioned("b", V1) == (V1, "vb")
        assert cache.get_versioned("c", V1) == (V1, "vc")

    def test_a_newer_vector_drops_every_older_line(self):
        # Never-repeated keys (a top_slopes with a fresh k) are never
        # looked up again, so detection alone would leave them until
        # capacity pushed them out.
        cache = LRUCache(8)
        for k in range(5):
            cache.put(("top", k), (V1, k))
        cache.put("deck", (V2, "deck"))
        assert len(cache) == 1
        assert cache.get_versioned("deck", V2) == (V2, "deck")

    def test_a_late_leader_never_evicts_newer_lines(self):
        # A miss computed under an older cut finishes after a line at a
        # newer cut was stored: the newer lines stay, and the late line
        # (which no reader at the newer cut can use) is not kept.
        cache = LRUCache(8)
        cache.put("a", (V2, "va"))
        cache.put("b", (V2, "vb"))
        cache.put("late", (V1, "old"))
        assert len(cache) == 2
        assert cache.get_versioned("a", V2) == (V2, "va")
        assert cache.get_versioned("b", V2) == (V2, "vb")
        assert cache.get_versioned("late", V1) is None
        cache.put("c", (V3, "vc"))  # the clock moves on: a and b go
        assert len(cache) == 1


def every_op(cube) -> list:
    some_cell = next(iter(cube.m_cells(4)))
    return [
        Q.cell((2, 2), some_cell),
        # Intermediate, non-materialized cuboid rolls up on the fly.
        Q.cell((1, 2), (some_cell[0] // 3, some_cell[1])),
        Q.slice((1, 1), {"d0": 0}),
        Q.top_slopes((1, 1), 3),
        Q.roll_up((2, 2), some_cell, "d0"),
        Q.drill_down((1, 1), (0, 0), "d0"),
        Q.siblings((2, 2), some_cell, "d0"),
        Q.observation_deck(),
        Q.watch_list(),
        Q.exceptions(),
        Q.change_exceptions(),
        Q.change_exceptions(layer="o"),
    ]


class TestRouterQueries:
    def test_every_op_matches_an_uncached_view(self, cube, router):
        view = RegressionCubeView(cube.refresh(4), cube)
        for spec in every_op(cube):
            assert router.execute(spec).value == execute(view, spec).value, spec.op

    def test_second_query_is_a_cache_hit(self, cube, router):
        for spec in every_op(cube):
            router.execute(spec)
            before = router.cache.hits
            router.execute(spec)
            assert router.cache.hits == before + 1, spec.op

    def test_window_override(self, router):
        wide = router.execute(Q.cell((1, 1), (0, 0), window=6)).value
        narrow = router.execute(Q.cell((1, 1), (0, 0), window=2)).value
        assert wide.interval != narrow.interval

    def test_refresh_happens_once_per_window(self, router):
        router.execute(Q.cell((1, 1), (0, 0)))
        router.execute(Q.slice((1, 1), {"d0": 0}))
        router.execute(Q.watch_list())
        router.execute(Q.exceptions())
        assert router.refreshes == 1
        router.execute(Q.cell((1, 1), (0, 0), window=2))
        assert router.refreshes == 2

    def test_change_exceptions_miss_builds_no_view(self, cube, router):
        got = router.execute(Q.change_exceptions(layer="o")).value
        assert got == cube.o_layer_change_exceptions(1)
        stats = router.stats()
        assert stats["specs_executed"] == 1
        assert stats["refreshes"] == 0 and stats["views"] == 0

    def test_harness_seam_builders_ride_the_spec_cache(self, cube, router):
        # benchmarks/e2e wraps these two names; they are execute() in
        # disguise, so they land on the spec's cache line.
        assert router.exceptions() == router.execute(Q.exceptions()).value
        assert router.change_exceptions(1, "o") == (
            router.execute(Q.change_exceptions(1, "o")).value
        )
        assert router.cache.hits == 2 and router.specs_executed == 2
        with pytest.raises(QueryError):
            router.change_exceptions(1, "x")


class TestInvalidation:
    def test_quarter_seal_clears_cache(self, cube, router):
        stale = router.execute(Q.cell((1, 1), (0, 0))).value
        assert len(router.cache) == 1
        epoch = router.epoch
        # New data in a new quarter, then seal it.
        t0 = 6 * TPQ
        cube.ingest_batch(
            [StreamRecord((0, 0), t, 50.0) for t in range(t0, t0 + TPQ)]
        )
        cube.advance_to(t0 + TPQ)
        fresh = router.execute(Q.cell((1, 1), (0, 0))).value
        assert router.epoch == epoch + 1
        assert fresh != stale  # the jump moved the regression
        assert router.cache.hits == 0  # cleared, recomputed

    def test_a_window_sweep_does_not_pin_stale_views(self, cube, router):
        """A client sweeping ``"window": 1..N`` used to leave one full
        ``CubeResult`` per window behind for the life of the process: a
        line was only ever overwritten by a refresh of the *same* window."""
        cube.advance_to(32 * TPQ)
        windows = [1, 2, 3, 4, 8, 12, 16, 20]  # what 32 sealed quarters cover
        swept = [weakref.ref(router.view(window).result) for window in windows]
        assert router.stats()["views"] == 8
        cube.advance_to(33 * TPQ)  # a seal: none of the eight can be served again
        router.view(1)
        assert router.stats()["views"] == 1
        gc.collect()
        assert [ref() for ref in swept] == [None] * 8

    def test_no_invalidation_within_a_quarter(self, cube, router):
        router.execute(Q.cell((1, 1), (0, 0)))
        # Mid-quarter records do not touch sealed history.
        cube.ingest_batch([StreamRecord((0, 0), 6 * TPQ, 50.0)])
        router.execute(Q.cell((1, 1), (0, 0)))
        assert router.cache.hits == 1


class TestSpecExecution:
    def test_execute_fills_the_default_window(self, router):
        result = router.execute(Q.cell((1, 1), (0, 0)))
        assert result.spec.window_quarters == router.window_quarters

    def test_equivalent_plans_share_one_cache_line(self, router):
        router.execute(Q.slice((1, 1), {"d0": 0, "d1": 1}))
        before = router.cache.hits
        router.execute(Q.slice((1, 1)).where(d1=1, d0=0))
        assert router.cache.hits == before + 1

    def test_level_names_resolve_to_the_same_cache_line(self, cube, router):
        names = cube.layers.schema.describe_coord((1, 2))
        router.execute(Q.cell((1, 2), (0, 0)))
        before = router.cache.hits
        router.execute(Q.cell(tuple(names), (0, 0)))
        assert router.cache.hits == before + 1

    def test_execute_accepts_wire_dicts(self, router):
        got = router.execute({"op": "watch_list"})
        assert got is router.execute(Q.watch_list())

    def test_execute_batch_reports_in_order(self, router):
        items = router.execute_batch(
            Q.batch(Q.watch_list(), Q.cell((9, 9), (0, 0)), Q.top_slopes((1, 1)))
        )
        assert [item.ok for item in items] == [True, False, True]
        assert items[1].error_type == "SchemaError"
        assert router.batches == 1
        assert router.specs_executed >= 2  # the failing spec never executes

    def test_batched_exceptions_share_the_cache_and_the_refresh(self, router):
        items = router.execute_batch(
            [
                {"op": "watch_list"},
                {"op": "exceptions"},
                {"op": "change_exceptions", "layer": "o"},
                {"op": "exceptions"},
                {"op": "change_exceptions", "layer": "x"},
            ]
        )
        assert [item.ok for item in items] == [True, True, True, True, False]
        assert items[4].error_type == "QueryError"
        assert items[3].result is items[1].result  # the cached line
        stats = router.stats()
        assert stats["batches"] == 1
        assert stats["specs_executed"] == 3
        assert stats["refreshes"] == 1
        assert stats["cache_hits"] == 1

    def test_concurrent_batches_are_all_counted(self, cube):
        # `batches += 1` used to run outside the router mutex.  CPython
        # happens not to switch threads inside that one statement, so the
        # getter below hands the GIL over between the read and the write:
        # without the lock nearly every increment is lost.
        class YieldingRouter(QueryRouter):
            @property
            def batches(self):
                value = self.__dict__["batches"]
                time.sleep(0)
                return value

            @batches.setter
            def batches(self, value):
                self.__dict__["batches"] = value

        router = YieldingRouter(cube)
        n_threads, n_batches = 8, 100
        start = threading.Barrier(n_threads)

        def work():
            start.wait()
            for _ in range(n_batches):
                router.execute_batch(())

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert router.stats()["batches"] == n_threads * n_batches

    def test_execute_rejects_batchquery(self, router):
        with pytest.raises(ServiceError):
            router.execute(Q.batch(Q.watch_list()))

    def test_stats_include_spec_counters(self, router):
        router.execute(Q.cell((1, 1), (0, 0)))
        stats = router.stats()
        assert stats["specs_executed"] == 1
        assert stats["views"] == 1
        assert stats["batches"] == 0

    def test_cache_hit_does_not_count_as_execution(self, router):
        # Regression: specs_executed used to be bumped before the cache
        # lookup, so /stats claimed an execution for every request and
        # the hit rate computed from it was meaningless.
        router.execute(Q.watch_list())
        assert router.specs_executed == 1
        router.execute(Q.watch_list())
        router.execute(Q.watch_list())
        assert router.specs_executed == 1
        assert router.stats()["specs_executed"] == 1

    def test_execute_versioned_returns_the_stored_cut(self, cube, router):
        cut, result = router.execute_versioned(Q.watch_list())
        assert cut == cube.epoch_vector()
        # The cache hit returns the very same stored entry.
        again_cut, again = router.execute_versioned(Q.watch_list())
        assert again_cut == cut
        assert again is result

    def test_seal_storm_fallback_counted_and_uncached(self, router):
        # A follower that loops its full budget without ever validating
        # a cache line answers directly from one read cut, uncached, and
        # the bailout is visible in /stats.  Planting a pre-completed
        # flight under the key makes every round join-and-retry without
        # any leader filling the cache — the storm, deterministically.
        flight = _Flight()
        flight.done.set()
        key = ("storm-test",)
        router._flights[(id(router.cache), key)] = flight
        calls = []
        cut, value = router._single_flight_entry(
            router.cache, key, lambda: calls.append(1) or 42
        )
        assert value == 42 and calls == [1]
        assert cut == router.cube.epoch_vector()
        assert router.single_flight_fallbacks == 1
        assert router.stats()["single_flight_fallbacks"] == 1
        assert router.cache.get_versioned(key, cut) is None

    def test_view_racing_a_result_while_a_writer_waits(self, cube, router):
        # A result leader holds the read cut and then needs the window's
        # view; meanwhile a writer waits on that cut, and a view() caller
        # waits behind the writer.  The view() caller must not own the
        # view's flight while it waits, or the result leader joins it and
        # the three wait on each other.
        lock = cube._lock

        def until(condition):
            deadline = time.monotonic() + 5
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.001)

        done, holding, go = [], threading.Event(), threading.Event()

        def result_leader():
            with cube.read_lock():
                holding.set()
                go.wait()
                done.append(router.execute(Q.exceptions()))

        def start(target, *args):
            thread = threading.Thread(target=target, args=args, daemon=True)
            thread.start()
            return thread

        threads = [start(result_leader)]
        holding.wait()
        threads.append(start(cube.prune_idle, 100))
        until(lambda: lock._writers_waiting == 1)
        threads.append(start(lambda: done.append(router.view())))
        until(lambda: lock._readers_waiting == 1)
        go.set()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert len(done) == 2 and router.refreshes >= 1


class TestValidation:
    def test_window_quarters_validated(self, cube):
        with pytest.raises(ServiceError):
            QueryRouter(cube, window_quarters=0)
