"""Example 1 end to end: on-line power-grid monitoring.

The paper's motivating scenario: a power station collects per-minute usage
per user and address; the cube design of Example 4 — m-layer
``(user_group, street_block)`` at quarter precision, o-layer ``(*, city)``
at hour precision — watches for unusual trends and drills down to the
responsible street block.

This script streams two hours of readings with a usage surge injected into
one street block half-way, refreshes the cube every quarter, and shows the
analyst's view: the o-layer watch list and the exception drill tree that
localizes the surge.

Run: ``python examples/power_grid_monitoring.py``
"""

from __future__ import annotations

from repro import GlobalSlopeThreshold, popular_path_cubing
from repro.query.drill import ExceptionDriller
from repro.service.sharding import ShardedStreamCube
from repro.stream.power_grid import PowerGridConfig, PowerGridSimulator
from repro.tilt.frame import TiltLevelSpec

SURGE_BLOCK = "c1-b2"
SURGE_START_MINUTE = 60
MINUTES = 120


def main() -> None:
    config = PowerGridConfig(
        n_cities=3,
        blocks_per_city=4,
        addresses_per_block=4,
        users_per_address=2,
        noise=0.02,
        surge_block=SURGE_BLOCK,
        surge_start_minute=SURGE_START_MINUTE,
        surge_slope_per_minute=0.03,
        seed=2026,
    )
    sim = PowerGridSimulator(config)
    layers = sim.layers()
    print("cube design (Example 4):", layers.describe())
    print(f"grid: {len(sim.cities)} cities, {len(sim.blocks)} blocks, "
          f"{sim.n_users} users")
    print(f"anomaly: block {SURGE_BLOCK} starts surging at minute "
          f"{SURGE_START_MINUTE}\n")

    # One shard: the cube owns the refresh whatever the shard count.
    cube = ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(0.02),
        n_shards=1,
        key_fn=sim.m_key_fn(),
        ticks_per_quarter=15,
        frame_levels=[
            TiltLevelSpec("quarter", 15, 4),
            TiltLevelSpec("hour", 60, 24),
        ],
    )

    # ------------------------------------------------------------------
    # Stream minute-by-minute; report at each quarter boundary.
    # ------------------------------------------------------------------
    for quarter_end in range(15, MINUTES + 1, 15):
        cube.ingest_batch(sim.records(15, start_minute=quarter_end - 15))
        cube.advance_to(quarter_end)
        if cube.current_quarter < 1:
            continue
        window = min(4, cube.current_quarter)
        result = popular_path_cubing(layers, cube.m_cells(window), cube.policy)
        watch = result.o_layer_exceptions()
        flagged = ", ".join(
            f"{v[1]} ({isb.slope:+.3f})" for v, isb in sorted(watch.items())
        )
        print(
            f"quarter {cube.current_quarter:2d} "
            f"(minute {quarter_end:3d}): "
            f"{len(watch)} o-layer exception(s)"
            + (f" -> {flagged}" if flagged else "")
        )

    # ------------------------------------------------------------------
    # The analyst drills into the flagged city.
    # ------------------------------------------------------------------
    print("\n== exception-guided drill-down (observation deck) ==")
    result = cube.refresh(window_quarters=4)
    driller = ExceptionDriller(result)
    roots = driller.drill_tree()
    if not roots:
        print("no exceptions at the o-layer")
        return
    for root in roots:
        print(root.render(layers.schema.names))

    blocks = {
        node.values[1]
        for root in roots
        for node in root.walk()
        if node.coord == layers.m_coord
    }
    print(f"\nlocalized to street block(s): {sorted(blocks)}")
    print(f"injected surge block was:     {SURGE_BLOCK}")


if __name__ == "__main__":
    main()
