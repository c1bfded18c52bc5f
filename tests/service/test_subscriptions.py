"""SubscriptionRegistry: seal-driven push, cadence, bounded queues."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import QueryError, ReproError, ServiceError
from repro.query.exec import wire_encodes
from repro.query.spec import Q
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import SubscriptionRegistry
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


@pytest.fixture
def registry(router):
    registry = SubscriptionRegistry(router, queue_limit=8)
    yield registry
    registry.close()


def seal_next(cube, registry) -> None:
    """Fill the current quarter, seal it, and drain the dispatcher."""
    quarter = cube.current_quarter
    t0 = quarter * TPQ
    cube.ingest_batch(
        [StreamRecord((0, 0), t, 5.0 + t) for t in range(t0, t0 + TPQ)]
    )
    cube.advance_to((quarter + 1) * TPQ)
    assert registry.flush(10.0), "dispatcher did not drain"


class TestDelivery:
    def test_watch_update_after_seal(self, cube, registry):
        sub = registry.subscribe(Q.watch_list())
        seal_next(cube, registry)
        out = registry.poll(sub)
        assert out["subscription"] == sub
        assert len(out["updates"]) == 1
        update = out["updates"][0]
        assert update["seq"] == 1
        assert update["quarter"] == cube.current_quarter == 7
        assert update["epoch"] == list(cube.epoch_vector())
        assert update["op"] == "watch_list"
        assert "cells" in update["result"]
        assert out["last_seq"] == 1 and out["dropped"] == 0

    def test_every_k_skips_intermediate_seals(self, cube, registry):
        every = registry.subscribe(Q.watch_list())
        coarse = registry.subscribe(Q.watch_list(), every_k=2)
        for _ in range(3):
            seal_next(cube, registry)  # quarters 7, 8, 9
        quarters = lambda s: [  # noqa: E731
            u["quarter"] for u in registry.poll(s)["updates"]
        ]
        assert quarters(every) == [7, 8, 9]
        assert quarters(coarse) == [7, 9]

    def test_ack_prunes_and_since_filters(self, cube, registry):
        sub = registry.subscribe(Q.watch_list())
        seal_next(cube, registry)
        seal_next(cube, registry)
        assert [u["seq"] for u in registry.poll(sub)["updates"]] == [1, 2]
        out = registry.poll(sub, since_seq=1)
        assert [u["seq"] for u in out["updates"]] == [2]
        assert registry.describe_all()[0]["queued"] == 1  # seq 1 pruned

    def test_drop_oldest_counts(self, cube, registry):
        sub = registry.subscribe(Q.watch_list(), queue_limit=2)
        for _ in range(3):
            seal_next(cube, registry)
        out = registry.poll(sub)
        assert [u["seq"] for u in out["updates"]] == [2, 3]
        assert out["dropped"] == 1
        assert registry.stats()["updates_dropped"] == 1

    def test_shared_spec_executes_once_per_seal(self, cube, router, registry):
        subs = [registry.subscribe(Q.watch_list()) for _ in range(3)]
        base = router.specs_executed
        seal_next(cube, registry)
        # Three subscribers to one spec: one execution, three deliveries.
        assert router.specs_executed == base + 1
        for sub in subs:
            assert len(registry.poll(sub)["updates"]) == 1

    def test_shared_spec_encodes_once_per_seal(self, cube, registry):
        # Both queues hold the router's one result object, so the bytes
        # /updates writes are encoded by the first reader and reused.
        subs = [registry.subscribe(Q.watch_list()) for _ in range(2)]
        for seq in (1, 2):
            seal_next(cube, registry)
            before = wire_encodes()
            pages = [registry.updates(sub, since_seq=seq - 1) for sub in subs]
            bodies = [page.wire for page in pages]
            assert wire_encodes() == before + 1
            results = [page.updates[0].result for page in pages]
            assert results[0] is results[1]
            for page, body in zip(pages, bodies):
                assert body == json.dumps(page.to_dict()).encode()

    def test_an_unpolled_subscription_encodes_nothing(self, cube, registry):
        registry.subscribe(Q.watch_list())
        before = wire_encodes()
        seal_next(cube, registry)
        seal_next(cube, registry)
        assert registry.stats()["updates_enqueued"] == 2
        assert wire_encodes() == before

    def test_long_poll_wakes_on_delivery(self, cube, registry):
        sub = registry.subscribe(Q.watch_list())
        results = []
        thread = threading.Thread(
            target=lambda: results.append(registry.poll(sub, timeout=10.0)),
            daemon=True,
        )
        thread.start()
        time.sleep(0.05)
        seal_next(cube, registry)
        thread.join(5.0)
        assert results and len(results[0]["updates"]) == 1

    def test_close_wakes_long_pollers(self, router):
        registry = SubscriptionRegistry(router)
        sub = registry.subscribe(Q.watch_list())
        results = []
        thread = threading.Thread(
            target=lambda: results.append(registry.poll(sub, timeout=30.0)),
            daemon=True,
        )
        thread.start()
        time.sleep(0.05)
        registry.close()
        thread.join(5.0)
        assert results == [
            {"subscription": sub, "updates": [], "last_seq": 0, "dropped": 0}
        ]
        with pytest.raises(ServiceError):
            registry.subscribe(Q.watch_list())

    def test_seal_listener_takes_no_registry_lock(self, registry):
        # The listener runs on the ingest thread inside the seal path; it
        # must stay lock-free.  Holding the registry's condition across
        # the call proves it never tries to take it.
        before = registry.seals_signaled
        with registry._cond:
            registry._on_seal(99)
        assert registry.seals_signaled == before + 1
        registry.flush(10.0)  # let the dispatcher settle before teardown

    def test_unfilled_window_counts_eval_error(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        router = QueryRouter(cube, window_quarters=4)
        registry = SubscriptionRegistry(router)
        try:
            sub = registry.subscribe(Q.watch_list())
            cube.ingest_batch(
                [StreamRecord((0, 0), t, 1.0) for t in range(TPQ)]
            )
            cube.advance_to(TPQ)  # one sealed quarter < window of 4
            assert registry.flush(10.0)
            assert registry.poll(sub)["updates"] == []
            assert registry.eval_errors >= 1
            # The subscription stays due: it delivers as soon as the
            # window fills.
            assert registry.describe_all()[0]["last_quarter"] == -1
        finally:
            registry.close()
            cube.close()


    def test_one_shard_update_quarter_is_its_cut(self, layers, policy):
        """A seal that overtakes the dispatch target: the update carries
        the quarter of the cut it was computed at, which on a one-shard
        cube is the vector's only shard slot."""
        cube = ShardedStreamCube(
            layers, policy, n_shards=1, ticks_per_quarter=TPQ
        )
        cube.ingest_batch(workload(3))
        cube.advance_to(7 * TPQ)
        registry = SubscriptionRegistry(QueryRouter(cube, window_quarters=4))
        try:
            sub = registry.subscribe(Q.watch_list())
            registry._dispatch(6)  # target 6, but quarter 7 has sealed
            (update,) = registry.poll(sub)["updates"]
            assert update["epoch"] == list(cube.epoch_vector())
            assert len(update["epoch"]) == 2
            assert update["quarter"] == update["epoch"][1] == 7
            assert registry.describe_all()[0]["last_quarter"] == 7
        finally:
            registry.close()
            cube.close()


class TestValidation:
    def test_subscribe_rejects_bad_args(self, registry):
        with pytest.raises(ServiceError):
            registry.subscribe(Q.watch_list(), every_k=0)
        with pytest.raises(ServiceError):
            registry.subscribe(Q.watch_list(), queue_limit=0)

    def test_bad_spec_fails_the_subscribe_call(self, registry):
        # Eager resolution: a bad spec errors here, not in a background
        # dispatch round nobody is watching.
        with pytest.raises(ReproError):
            registry.subscribe(Q.cell((9, 9), (0, 0)))

    def test_payload_cadence_validation(self, registry):
        for payload in (
            {"watch": True, "every_seal": True, "every_k_quarters": 2},
            {"watch": True, "every_k_quarters": 0},
            {"watch": True, "every_k_quarters": True},
            {"watch": True, "every_seal": False},
            {"watch": True, "queue_limit": 0},
            {"watch": True, "queue_limit": True},
            {"watch": True, "spec": {"op": "watch_list"}},
            {},
        ):
            with pytest.raises(ServiceError):
                registry.subscribe_payload(payload)
        # The watch shorthand is a watch_list spec: its window is validated
        # where every spec's is.
        for window in ("wide", 0):
            with pytest.raises(QueryError, match="watch_list window"):
                registry.subscribe_payload(
                    {"watch": True, "window_quarters": window}
                )

    def test_payload_accepts_both_forms(self, cube, registry):
        by_watch = registry.subscribe_payload(
            {"watch": True, "every_k_quarters": 2}
        )
        by_spec = registry.subscribe_payload(
            {"spec": {"op": "observation_deck"}, "queue_limit": 3}
        )
        described = {d["id"]: d for d in registry.describe_all()}
        assert described[by_watch]["every_k_quarters"] == 2
        assert described[by_spec]["op"] == "observation_deck"
        assert described[by_spec]["queue_limit"] == 3
        # The registry pins the router's default window at subscribe time.
        assert described[by_spec]["window_quarters"] == 4

    def test_unknown_ids(self, registry):
        with pytest.raises(ServiceError):
            registry.poll("sub-999")
        assert registry.unsubscribe("sub-999") is False
        sub = registry.subscribe(Q.watch_list())
        assert registry.unsubscribe(sub) is True
        with pytest.raises(ServiceError):
            registry.poll(sub)

    def test_registry_queue_limit_validated(self, router):
        with pytest.raises(ServiceError):
            SubscriptionRegistry(router, queue_limit=0)

    def test_stats_shape(self, cube, registry):
        registry.subscribe(Q.watch_list())
        seal_next(cube, registry)
        stats = registry.stats()
        assert stats["active"] == 1
        assert stats["created"] == 1
        assert stats["queued"] == 1
        assert stats["seals_signaled"] >= 1
        assert stats["dispatch_rounds"] >= 1
        assert stats["updates_enqueued"] == 1
        assert stats["updates_dropped"] == 0
