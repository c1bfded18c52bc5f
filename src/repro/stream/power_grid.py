"""Power-grid stream simulator (the paper's Example 1 scenario).

"A power supply station collects infinite streams of power usage data, with
the lowest granularity as (individual) user, location, and minute."  This
module fabricates that station: users with category-specific daily load
shapes, a street-address → street-block → city location hierarchy, per-minute
readings, and an injectable usage surge in one street block — the "unusual
situation" the o-layer analyst is supposed to catch and drill into.

The simulator builds Example 4's exact cube design: m-layer
``(user_group, street_block)`` at quarter granularity, o-layer
``(*, city)`` at hour granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np

from repro.cube.hierarchy import ExplicitHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import StreamError
from repro.stream.records import StreamRecord

__all__ = ["PowerGridConfig", "PowerGridSimulator", "USER_GROUPS"]

Values = tuple[Hashable, ...]

#: The user categories and their base load (kW) plus daily shape.
USER_GROUPS = ("residential", "commercial", "industrial")

_MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True)
class PowerGridConfig:
    """Simulator sizing and anomaly injection knobs."""

    n_cities: int = 3
    blocks_per_city: int = 4
    addresses_per_block: int = 5
    users_per_address: int = 2
    noise: float = 0.05
    surge_block: str | None = None
    surge_start_minute: int = 0
    surge_slope_per_minute: float = 0.01
    seed: int = 42

    def __post_init__(self) -> None:
        if min(
            self.n_cities,
            self.blocks_per_city,
            self.addresses_per_block,
            self.users_per_address,
        ) < 1:
            raise StreamError("all sizing knobs must be >= 1")


class PowerGridSimulator:
    """Deterministic per-minute power usage source for Example 1."""

    def __init__(self, config: PowerGridConfig | None = None) -> None:
        self.config = config or PowerGridConfig()
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)

        self.cities = [f"city{i}" for i in range(cfg.n_cities)]
        self.blocks: list[str] = []
        self._block_of_address: dict[str, str] = {}
        self._city_of_block: dict[str, str] = {}
        self.addresses: list[str] = []
        for ci, city in enumerate(self.cities):
            for bi in range(cfg.blocks_per_city):
                block = f"c{ci}-b{bi}"
                self.blocks.append(block)
                self._city_of_block[block] = city
                for ai in range(cfg.addresses_per_block):
                    address = f"{block}-a{ai}"
                    self.addresses.append(address)
                    self._block_of_address[address] = block

        if cfg.surge_block is not None and cfg.surge_block not in self._city_of_block:
            raise StreamError(f"unknown surge block {cfg.surge_block!r}")

        # Users: round-robin categories so every block hosts a mix.
        self.users: list[tuple[str, str, str]] = []  # (user_id, group, address)
        uid = 0
        for address in self.addresses:
            for _ in range(cfg.users_per_address):
                group = USER_GROUPS[uid % len(USER_GROUPS)]
                self.users.append((f"u{uid}", group, address))
                uid += 1
        self._group_of_user = {u: g for u, g, _ in self.users}
        self._address_of_user = {u: a for u, _, a in self.users}

    # ------------------------------------------------------------------
    # Cube design (Example 4)
    # ------------------------------------------------------------------
    def layers(self) -> CriticalLayers:
        """Example 4's critical layers over this grid's hierarchies."""
        user_dim = Dimension(
            "user",
            ExplicitHierarchy("user", ["user_group"], USER_GROUPS),
        )
        location_dim = Dimension(
            "location",
            ExplicitHierarchy(
                "location",
                ["city", "street_block"],
                self.cities,
                [self._city_of_block],
            ),
        )
        schema = CubeSchema([user_dim, location_dim])
        return CriticalLayers.from_level_names(
            schema,
            m_levels=("user_group", "street_block"),
            o_levels=("*", "city"),
        )

    def m_key_fn(self) -> "callable[[StreamRecord], Values]":
        """Record → m-layer cell mapper for the stream engine."""
        group_of = self._group_of_user
        block_of = self._block_of_address

        def key_fn(record: StreamRecord) -> Values:
            user, address = record.values
            return (group_of[user], block_of[address])

        return key_fn

    # ------------------------------------------------------------------
    # Load model
    # ------------------------------------------------------------------
    def _base_load(self, group: str, minute: int) -> float:
        """Per-minute kWh for a user of ``group`` at wall-clock ``minute``."""
        day_phase = 2.0 * math.pi * (minute % _MINUTES_PER_DAY) / _MINUTES_PER_DAY
        if group == "residential":
            # Morning and evening peaks.
            return 0.4 + 0.25 * math.sin(day_phase - math.pi / 2) + 0.15 * math.sin(
                2 * day_phase
            )
        if group == "commercial":
            # Office hours bump.
            return 0.6 + 0.4 * math.sin(day_phase - math.pi / 2)
        # Industrial: nearly flat, high base.
        return 1.2 + 0.05 * math.sin(day_phase)

    def _surge_factor(self, address: str, minute: int) -> float:
        cfg = self.config
        if cfg.surge_block is None:
            return 1.0
        if self._block_of_address[address] != cfg.surge_block:
            return 1.0
        if minute < cfg.surge_start_minute:
            return 1.0
        return 1.0 + cfg.surge_slope_per_minute * (minute - cfg.surge_start_minute)

    # ------------------------------------------------------------------
    # Record generation
    # ------------------------------------------------------------------
    def records(self, n_minutes: int, start_minute: int = 0) -> Iterator[StreamRecord]:
        """Per-minute readings for every user, time-ordered.

        Reproducible per call: the noise stream is derived from the
        configured seed and each minute's wall-clock index, so replaying the
        same minutes yields the same records (important for offline oracles
        and for resumable simulations).
        """
        cfg = self.config
        for minute in range(start_minute, start_minute + n_minutes):
            rng = np.random.default_rng((cfg.seed, minute))
            noise = rng.normal(0.0, cfg.noise, size=len(self.users))
            for (user, group, address), eps in zip(self.users, noise):
                load = self._base_load(group, minute)
                load *= self._surge_factor(address, minute)
                load += float(eps)
                yield StreamRecord(
                    values=(user, address), t=minute, z=max(load, 0.0)
                )

    @property
    def n_users(self) -> int:
        return len(self.users)
