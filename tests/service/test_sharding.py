"""Shard-count invariance: a partitioned cube equals one shard exactly.

The core property of the service layer (Theorem 3.2's losslessness made
operational): for any quarter-ordered workload and any shard count, the
merged m-layer ISBs, the refresh and the exception sets are *bit-identical*
to a one-shard :class:`ShardedStreamCube` fed the same records.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import (
    CorruptionError,
    HierarchyError,
    ServiceError,
    StreamError,
)
from repro.service.merge import disjoint_union
from repro.service.sharding import ShardedStreamCube, stable_shard_index
from repro.stream.engine import StreamCubeEngine, change_window_bounds
from repro.stream.records import StreamRecord

from tests.service.conftest import TPQ, workload

SHARD_COUNTS = (1, 2, 7)


def one_shard(layers, policy, records, end_tick):
    return sharded(layers, policy, records, end_tick, 1)


def sharded(layers, policy, records, end_tick, k, batch_size=None):
    cube = ShardedStreamCube(
        layers, policy, n_shards=k, ticks_per_quarter=TPQ
    )
    if batch_size is None:
        cube.ingest_batch(records)
    else:
        for i in range(0, len(records), batch_size):
            cube.ingest_batch(records[i : i + batch_size])
    cube.advance_to(end_tick)
    return cube


class TestShardInvariance:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_m_layer_bit_identical(self, layers, policy, k, seed):
        records = workload(seed)
        end = 6 * TPQ
        with one_shard(layers, policy, records, end) as single, sharded(
            layers, policy, records, end, k
        ) as cube:
            # dict equality on frozen dataclasses is exact float equality.
            assert cube.m_cells(4) == single.m_cells(4)
            assert cube.window_isbs(0, end - 1) == single.window_isbs(
                0, end - 1
            )
            # ... and so is the bare shard engine's birth-ordered read.
            assert single.m_cells(4) == single.shards[0].m_cells(4)

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_exception_sets_bit_identical(self, layers, policy, k, seed):
        records = workload(seed)
        end = 6 * TPQ
        with one_shard(layers, policy, records, end) as single, sharded(
            layers, policy, records, end, k
        ) as cube:
            assert cube.change_exceptions() == single.change_exceptions()
            assert cube.change_exceptions(2) == single.change_exceptions(2)

    def test_a_bool_value_is_refused_at_every_width(self, layers, policy):
        # True == 1 and hashes alike: admitted, (True, 0) would share its
        # first dimension's code with (1, 5) and print as whichever of the
        # two a shard listed first.  The door refuses it, whatever the
        # width, and the cube is as if the batch never came.
        batch = [
            StreamRecord(values, 0, 1.0)
            for values in [(1, 5), (True, 0), (0, 0)]
        ]
        answers = []
        for k in SHARD_COUNTS:
            with ShardedStreamCube(
                layers, policy, n_shards=k, ticks_per_quarter=TPQ
            ) as cube:
                with pytest.raises(HierarchyError, match="True"):
                    cube.ingest_batch(batch)
                cube.ingest_batch([batch[0], batch[2]])
                cube.advance_to(4 * TPQ)
                answers.append(list(cube.m_cells(4)))
        assert answers == [[(0, 0), (1, 5)]] * len(SHARD_COUNTS)

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_batched_ingest_equals_one_batch(self, layers, policy, k):
        records = workload(7)
        end = 6 * TPQ
        with sharded(layers, policy, records, end, k) as one, sharded(
            layers, policy, records, end, k, batch_size=37
        ) as many:
            assert one.m_cells(4) == many.m_cells(4)

    def test_shard_counts_agree_with_each_other(self, layers, policy):
        """Everything — including float-sensitive merged aggregates — is
        identical across shard counts, thanks to the canonical merge order."""
        records = workload(19)
        end = 6 * TPQ
        results = []
        for k in SHARD_COUNTS:
            with sharded(layers, policy, records, end, k) as cube:
                result = cube.refresh(4)
                results.append(
                    (
                        cube.m_cells(4),
                        dict(result.o_layer.items()),
                        result.o_layer_exceptions(),
                        cube.o_layer_change_exceptions(),
                    )
                )
        for other in results[1:]:
            assert other == results[0]

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_refresh_matches_one_shard(self, layers, policy, k):
        """Merged cubing agrees with one shard's cubing bit for bit, cuboid
        for cuboid and in the same key order (the canonical merge order
        fixes every fold), and the exception sets are the same."""
        records = workload(23)
        end = 6 * TPQ
        with one_shard(layers, policy, records, end) as single:
            expected = single.refresh(4)
        with sharded(layers, policy, records, end, k) as cube:
            got = cube.refresh(4)
            assert set(got.cuboids) == set(expected.cuboids)
            for coord, cuboid in expected.cuboids.items():
                merged = got.cuboids[coord]
                assert list(merged.items()) == list(cuboid.items())
                for values, isb in cuboid.items():
                    other = merged[values]
                    assert isb.interval == other.interval
                    assert math.isclose(isb.base, other.base, rel_tol=1e-9)
                    assert math.isclose(isb.slope, other.slope, rel_tol=1e-9)
            assert set(got.o_layer_exceptions()) == set(
                expected.o_layer_exceptions()
            )
            assert set(got.retained_exceptions) == set(
                expected.retained_exceptions
            )
            for coord, cells in expected.retained_exceptions.items():
                assert set(got.retained_exceptions[coord]) == set(cells)

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("quarters_apart", [1, 2])
    def test_change_exceptions_match_one_shard_item_for_item(
        self, layers, policy, k, quarters_apart
    ):
        """Both layers, compared as item lists: the same cells in the same
        order with the same bits."""
        records = workload(29)
        end = 6 * TPQ
        with one_shard(layers, policy, records, end) as single:
            m_single = list(single.change_exceptions(quarters_apart).items())
            o_single = list(
                single.o_layer_change_exceptions(quarters_apart).items()
            )
        with sharded(layers, policy, records, end, k) as cube:
            m_layer = list(cube.change_exceptions(quarters_apart).items())
            o_layer = list(cube.o_layer_change_exceptions(quarters_apart).items())
        assert m_layer == m_single
        assert o_layer == o_single
        assert m_layer and o_layer  # the workload flags something

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    @pytest.mark.parametrize("quarters_apart", [1, 2])
    def test_change_exceptions_match_a_bare_engine(
        self, layers, policy, k, quarters_apart
    ):
        """A reference outside the cube's code: a bare engine judges its
        own two windows through ``change_exceptions_between``, with none of
        the cube's merge or ``_changes``, and both layers' item lists match
        it in order and bits."""
        records = workload(29)
        end = 6 * TPQ
        engine = StreamCubeEngine(layers, policy, ticks_per_quarter=TPQ)
        engine.ingest_many(records)
        engine.advance_to(end)
        bounds = change_window_bounds(end // TPQ, TPQ, quarters_apart)
        m_engine = list(engine.change_exceptions_between(*bounds).items())
        o_engine = list(
            engine.change_exceptions_between(*bounds, layer="o").items()
        )
        with sharded(layers, policy, records, end, k) as cube:
            m_layer = list(cube.change_exceptions(quarters_apart).items())
            o_layer = list(cube.o_layer_change_exceptions(quarters_apart).items())
        assert m_layer == m_engine
        assert o_layer == o_engine
        assert m_layer and o_layer

    def test_change_exceptions_over_surviving_shards(self, layers, policy):
        """With one shard lost, both layers answer exactly what one shard
        fed only the surviving shards' cells answers."""
        records = workload(31)
        end = 6 * TPQ
        with sharded(layers, policy, records, end, 3) as cube:
            lost = 1
            survivors = one_shard(
                layers,
                policy,
                [r for r in records if cube.shard_index(r.values) != lost],
                end,
            )

            def quarantined(*args):
                raise CorruptionError("cold page quarantined (injected)")

            cube.shards[lost].window_columns = quarantined
            cube.degraded_reads = True
            for quarters_apart in (1, 2):
                assert list(cube.change_exceptions(quarters_apart).items()) == (
                    list(survivors.change_exceptions(quarters_apart).items())
                )
                assert list(
                    cube.o_layer_change_exceptions(quarters_apart).items()
                ) == list(
                    survivors.o_layer_change_exceptions(quarters_apart).items()
                )
            assert {hole["shard"] for hole in cube.consume_degraded()} == {lost}


class TestPartitioning:
    def test_stable_hash_is_deterministic(self):
        assert stable_shard_index((3, "a"), 7) == stable_shard_index(
            (3, "a"), 7
        )
        # int 1 and string "1" are different keys.
        assert stable_shard_index((1,), 1000) != stable_shard_index(
            ("1",), 1000
        )

    def test_keys_land_on_their_owner(self, layers, policy):
        records = workload(5)
        end = 6 * TPQ
        with sharded(layers, policy, records, end, 5) as cube:
            for i, shard in enumerate(cube.shards):
                for key in shard.m_cells(4):
                    assert cube.shard_index(key) == i

    def test_partitions_spread(self, layers, policy):
        records = workload(13)
        end = 6 * TPQ
        with sharded(layers, policy, records, end, 4) as cube:
            assert all(count > 0 for count in cube.shard_cells)

    def test_n_shards_validated(self, layers, policy):
        with pytest.raises(ServiceError):
            ShardedStreamCube(layers, policy, n_shards=0)


class TestShardedIngestion:
    def test_bad_batch_mutates_nothing(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ
        )
        good = [StreamRecord((0, 0), t, 1.0) for t in range(TPQ)]
        bad = good + [
            StreamRecord((1, 1), 2 * TPQ, 1.0),
            StreamRecord((2, 2), 0, 1.0),  # goes back a quarter
        ]
        with pytest.raises(StreamError):
            cube.ingest_batch(bad)
        assert cube.records_ingested == 0
        assert cube.tracked_cells == 0
        cube.close()

    def test_sealed_quarter_rejected(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        cube.ingest_batch(
            [StreamRecord((0, 0), TPQ, 1.0)]  # seals quarter 0 on ingest
        )
        with pytest.raises(StreamError):
            cube.ingest_batch([StreamRecord((1, 1), 0, 1.0)])
        cube.close()

    def test_single_ingest_aligns_shards(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ
        )
        cube.ingest(StreamRecord((0, 0), 0, 1.0))
        cube.ingest(StreamRecord((0, 0), TPQ, 1.0))  # crosses a boundary
        assert all(
            shard.current_quarter == 1 for shard in cube.shards
        )
        cube.close()

    def test_empty_batch_is_noop(self, layers, policy):
        with ShardedStreamCube(layers, policy, n_shards=2) as cube:
            assert cube.ingest_batch([]) == 0

    def test_prune_idle_sums_over_shards(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=3, ticks_per_quarter=TPQ
        )
        records = [
            StreamRecord((v, v), t, 1.0)
            for t in range(TPQ)
            for v in range(6)
        ]
        cube.ingest_batch(records)
        keep = [
            StreamRecord((0, 0), t, 1.0) for t in range(TPQ, 4 * TPQ)
        ]
        cube.ingest_batch(keep)
        cube.advance_to(4 * TPQ)
        dropped = cube.prune_idle(2)
        assert dropped == 5
        assert cube.tracked_cells == 1
        cube.close()


class TestDisjointUnion:
    def test_duplicate_key_rejected(self):
        from repro.regression.isb import ISB

        isb = ISB(0, 3, 1.0, 0.0)
        with pytest.raises(ServiceError):
            disjoint_union([{(0, 0): isb}, {(0, 0): isb}])

    def test_canonical_order_is_shard_independent(self):
        from repro.regression.isb import ISB

        isb = ISB(0, 3, 1.0, 0.0)
        a = {(2, 1): isb, (0, 0): isb}
        b = {(1, 2): isb}
        ab = disjoint_union([a, b])
        ba = disjoint_union([b, a])
        assert list(ab) == list(ba)
