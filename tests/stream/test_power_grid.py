"""Tests for the Example 1 power-grid simulator."""

from __future__ import annotations

import pytest

from repro.errors import StreamError
from repro.stream.power_grid import USER_GROUPS, PowerGridConfig, PowerGridSimulator


@pytest.fixture
def sim() -> PowerGridSimulator:
    return PowerGridSimulator(
        PowerGridConfig(
            n_cities=2,
            blocks_per_city=2,
            addresses_per_block=2,
            users_per_address=2,
            seed=1,
        )
    )


class TestTopology:
    def test_counts(self, sim):
        assert len(sim.cities) == 2
        assert len(sim.blocks) == 4
        assert len(sim.addresses) == 8
        assert sim.n_users == 16

    def test_every_block_has_a_city(self, sim):
        for block in sim.blocks:
            assert sim._city_of_block[block] in sim.cities

    def test_groups_mixed_per_block(self, sim):
        groups = {g for _, g, _ in sim.users}
        assert groups == set(USER_GROUPS)

    def test_config_validation(self):
        with pytest.raises(StreamError):
            PowerGridConfig(n_cities=0)

    def test_unknown_surge_block_rejected(self):
        with pytest.raises(StreamError):
            PowerGridSimulator(PowerGridConfig(surge_block="nope"))


class TestLayers:
    def test_example4_design(self, sim):
        layers = sim.layers()
        assert layers.schema.names == ("user", "location")
        assert layers.m_coord == (1, 2)
        assert layers.o_coord == (0, 1)
        assert layers.lattice.size == 4

    def test_m_key_fn_maps_to_valid_cells(self, sim):
        layers = sim.layers()
        key_fn = sim.m_key_fn()
        for record in sim.records(2):
            key = key_fn(record)
            layers.schema.validate_values(key, layers.m_coord)


class TestRecords:
    def test_per_minute_per_user(self, sim):
        records = list(sim.records(3))
        assert len(records) == 3 * sim.n_users
        assert [r.t for r in records[: sim.n_users]] == [0] * sim.n_users

    def test_non_negative_loads(self, sim):
        assert all(r.z >= 0 for r in sim.records(5))

    def test_start_minute_offset(self, sim):
        records = list(sim.records(2, start_minute=100))
        assert records[0].t == 100

    def test_industrial_heavier_than_residential(self, sim):
        """The load model's group ordering holds on average."""
        by_group: dict[str, list[float]] = {g: [] for g in USER_GROUPS}
        group_of = {u: g for u, g, _ in sim.users}
        for r in sim.records(60):
            by_group[group_of[r.values[0]]].append(r.z)
        means = {g: sum(v) / len(v) for g, v in by_group.items()}
        assert means["industrial"] > means["residential"]


class TestSurge:
    def test_surge_grows_block_usage(self):
        """The same block's usage with vs without the surge injected."""
        base_cfg = dict(
            n_cities=1,
            blocks_per_city=2,
            addresses_per_block=2,
            users_per_address=1,
            noise=0.0,
            surge_start_minute=0,
            surge_slope_per_minute=0.05,
            seed=2,
        )
        calm_sim = PowerGridSimulator(PowerGridConfig(**base_cfg))
        surge_sim = PowerGridSimulator(
            PowerGridConfig(surge_block="c0-b0", **base_cfg)
        )

        def block_total(sim):
            block_of = dict(sim._block_of_address)
            return sum(
                r.z
                for r in sim.records(30)
                if block_of[r.values[1]] == "c0-b0"
            )

        calm, surged = block_total(calm_sim), block_total(surge_sim)
        # The surge factor averages ~1.7x over the first 30 minutes.
        assert surged > 1.5 * calm

    def test_no_surge_before_start(self):
        cfg = PowerGridConfig(
            n_cities=1,
            blocks_per_city=2,
            addresses_per_block=1,
            users_per_address=1,
            noise=0.0,
            surge_block="c0-b0",
            surge_start_minute=1000,
            seed=3,
        )
        sim = PowerGridSimulator(cfg)
        assert sim._surge_factor(sim.addresses[0], 999) == 1.0
        assert sim._surge_factor(sim.addresses[0], 1001) > 1.0
