"""The oracle itself: comparators, fit conventions, and mismatch detection.

The differential suite is only as trustworthy as its reference, so these
tests pin the oracle's own conventions (they must mirror the documented
cube semantics) and — crucially — that the comparators *catch* seeded
corruption: an oracle that never fails is indistinguishable from no oracle.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cubing.full import full_materialization
from repro.cubing.multiway import multiway_cubing
from repro.cubing.policy import GlobalSlopeThreshold
from repro.cubing.popular_path import popular_path_cubing
from repro.regression.isb import ISB
from repro.service.sharding import ShardedStreamCube
from repro.stream.generator import DatasetSpec
from repro.stream.records import StreamRecord
from repro.verify.oracle import (
    OracleISB,
    RawStreamOracle,
    Tolerance,
    VerifyMismatch,
    assert_cells_equal,
    assert_result_equal,
    isb_agree,
    ulp_distance,
)


def make_pair(seed: int = 3, quarters: int = 6, tpq: int = 4):
    """A (one-shard cube, oracle) pair fed identical seeded traffic."""
    layers = DatasetSpec(2, 2, 3, 1).build_layers()
    policy = GlobalSlopeThreshold(0.05)
    cube = ShardedStreamCube(layers, policy, n_shards=1, ticks_per_quarter=tpq)
    oracle = RawStreamOracle(layers, policy, ticks_per_quarter=tpq)
    rng = random.Random(seed)
    pool = sorted({
        (rng.randrange(9), rng.randrange(9)) for _ in range(8)
    })
    trends = {k: (rng.uniform(-3, 3), rng.uniform(-0.4, 0.4)) for k in pool}
    records = []
    for t in range(quarters * tpq):
        for _ in range(3):
            key = rng.choice(pool)
            base, slope = trends[key]
            records.append(
                StreamRecord(key, t, base + slope * t + rng.uniform(-0.3, 0.3))
            )
    cube.ingest_batch(records)
    oracle.ingest(records)
    cube.advance_to(quarters * tpq)
    oracle.advance_to(quarters * tpq)
    return cube, oracle


class TestComparators:
    def test_ulp_distance_zero_for_equal(self):
        assert ulp_distance(1.25, 1.25) == 0.0

    def test_ulp_distance_counts_neighbouring_floats(self):
        x = 1.0
        y = math.nextafter(math.nextafter(x, 2.0), 2.0)
        assert ulp_distance(x, y) == pytest.approx(2.0)

    def test_isb_agree_accepts_ulp_noise(self):
        oracle_isb = OracleISB(0, 9, 1.0, 0.25)
        noisy = ISB(0, 9, 1.0 + 1e-13, 0.25 - 1e-14)
        assert isb_agree(noisy, oracle_isb) is None

    def test_isb_agree_rejects_real_disagreement(self):
        oracle_isb = OracleISB(0, 9, 1.0, 0.25)
        wrong = ISB(0, 9, 1.0, 0.26)
        report = isb_agree(wrong, oracle_isb)
        assert report is not None and "ulps" in report

    def test_isb_agree_interval_mismatch(self):
        report = isb_agree(ISB(0, 8, 1.0, 0.25), OracleISB(0, 9, 1.0, 0.25))
        assert report is not None and "interval" in report

    def test_isb_agree_scales_tolerance_to_line_magnitude(self):
        # A near-zero crossing at one endpoint must not turn line-scale
        # ulp noise into a failure: tolerance follows the larger endpoint.
        oracle_isb = OracleISB(0, 100, 0.0, 1.0)  # z(0)=0, z(100)=100
        noisy = ISB(0, 100, 1e-12, 1.0)
        assert isb_agree(noisy, oracle_isb) is None

    def test_assert_cells_equal_reports_key_drift(self):
        with pytest.raises(VerifyMismatch, match="missing"):
            assert_cells_equal({}, {(1,): OracleISB(0, 3, 0.0, 0.0)})
        with pytest.raises(VerifyMismatch, match="extra"):
            assert_cells_equal({(1,): ISB(0, 3, 0.0, 0.0)}, {})

    def test_tight_tolerance_rejects_what_default_accepts(self):
        oracle_isb = OracleISB(0, 9, 1.0, 0.25)
        noisy = ISB(0, 9, 1.0 + 1e-11, 0.25)
        assert isb_agree(noisy, oracle_isb) is None
        strict = Tolerance(max_ulps=4.0, abs_tol=0.0)
        assert isb_agree(noisy, oracle_isb, strict) is not None


class TestFitConventions:
    """The oracle must mirror the cube's documented sealing semantics."""

    def test_empty_quarter_is_the_zero_line(self):
        _, oracle = make_pair()
        isb = oracle.quarter_isb(("nope", "nope"), 2)
        assert (isb.base, isb.slope) == (0.0, 0.0)
        assert (isb.t_b, isb.t_e) == (8, 11)

    def test_single_tick_quarter_is_flat_at_the_tick_sum(self):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        oracle = RawStreamOracle(
            layers, GlobalSlopeThreshold(0.1), ticks_per_quarter=4
        )
        key = (0, 0)
        oracle.ingest(
            [StreamRecord(key, 1, 2.5), StreamRecord(key, 1, 1.5)]
        )
        oracle.advance_to(4)
        isb = oracle.quarter_isb(key, 0)
        assert isb.slope == 0.0
        assert isb.base == pytest.approx(4.0)

    def test_window_must_be_quarter_aligned_and_sealed(self):
        _, oracle = make_pair(quarters=4)
        with pytest.raises(VerifyMismatch, match="aligned"):
            oracle.window_isb([(0, 0)], 1, 8)
        with pytest.raises(VerifyMismatch, match="unsealed"):
            oracle.window_isb([(0, 0)], 0, 4 * 4 * 2 - 1)

    def test_prune_rule_mirrors_idleness(self):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        oracle = RawStreamOracle(
            layers, GlobalSlopeThreshold(0.1), ticks_per_quarter=4
        )
        oracle.ingest([StreamRecord((0, 0), 1, 1.0)])
        oracle.ingest([StreamRecord((1, 1), 17, 1.0)])  # quarter 4
        assert oracle.idle_keys(2) == {(0, 0)}
        assert oracle.idle_keys(idle_quarters=10) == set()  # window clamps
        oracle.drop_keys([(0, 0)])
        assert oracle.tracked_cells == 1


class TestDifferentialAgreement:
    def test_engine_matches_oracle_end_to_end(self):
        cube, oracle = make_pair()
        assert_cells_equal(cube.m_cells(4), oracle.m_cells(4), "m-cells")
        assert_result_equal(cube.refresh(4), oracle, 4)
        for algorithm in (popular_path_cubing, multiway_cubing, full_materialization):
            result = algorithm(cube.layers, cube.m_cells(4), cube.policy)
            assert_result_equal(result, oracle, 4)

    def test_change_exceptions_match(self):
        cube, oracle = make_pair(seed=9)
        assert set(cube.change_exceptions(1)) == set(
            oracle.change_exceptions(1)
        )
        assert set(cube.o_layer_change_exceptions(1)) == set(
            oracle.o_layer_change_exceptions(1)
        )

    def test_oracle_catches_corrupted_cells(self):
        """The teeth check: a corrupted answer must not slip through."""
        cube, oracle = make_pair()
        cells = cube.m_cells(4)
        key = sorted(cells)[0]
        good = cells[key]
        cells[key] = ISB(good.t_b, good.t_e, good.base, good.slope + 1e-3)
        with pytest.raises(VerifyMismatch, match="ulps"):
            assert_cells_equal(cells, oracle.m_cells(4), "m-cells")

    def test_oracle_catches_dropped_cells(self):
        cube, oracle = make_pair()
        cells = cube.m_cells(4)
        cells.pop(sorted(cells)[0])
        with pytest.raises(VerifyMismatch, match="missing"):
            assert_cells_equal(cells, oracle.m_cells(4), "m-cells")

    def test_oracle_catches_corrupted_flags(self):
        layers = DatasetSpec(2, 2, 3, 1).build_layers()
        # A threshold no aggregated |slope| reaches, so unflagged o-cells
        # certainly exist and corrupting one is always possible.
        policy = GlobalSlopeThreshold(50.0)
        cube = ShardedStreamCube(layers, policy, n_shards=1, ticks_per_quarter=4)
        oracle = RawStreamOracle(layers, policy, ticks_per_quarter=4)
        rng = random.Random(5)
        records = [
            StreamRecord(
                (rng.randrange(9), rng.randrange(9)), t, rng.uniform(0, 4)
            )
            for t in range(6 * 4)
            for _ in range(3)
        ]
        cube.ingest_batch(records)
        oracle.ingest(records)
        cube.advance_to(6 * 4)
        oracle.advance_to(6 * 4)
        result = cube.refresh(4)
        flags = dict(result.o_layer_exceptions())  # a copy to corrupt
        deck = dict(result.o_layer.items())
        unflagged = [key for key in deck if key not in flags]
        if not unflagged:  # pragma: no cover - seed-dependent guard
            pytest.skip("every o-cell is exceptional under this seed")
        key = unflagged[0]
        flags[key] = deck[key]

        from repro.verify.oracle import _flag_sets_equal

        with pytest.raises(VerifyMismatch, match="system flags"):
            _flag_sets_equal(
                flags,
                oracle.o_layer_exceptions(4),
                oracle,
                oracle.layers.o_coord,
                "o-layer exceptions",
                Tolerance(),
            )
