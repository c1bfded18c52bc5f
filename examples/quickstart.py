"""Quickstart: the regression-cube pipeline in five minutes.

Walks the paper's core ideas in order:

1. fit a time series and compress it to the 4-number ISB (Section 3.2);
2. aggregate ISBs losslessly over standard and time dimensions
   (Theorems 3.2 / 3.3);
3. register a long history in a tilt time frame (Section 4.1);
4. build a regression cube between the two critical layers and query it
   through the declarative ``QuerySpec`` API (Sections 4.2-4.4);
5. stream into a sharded cube, snapshot it mid-quarter, and restore —
   durable, restartable state beyond the paper;
6. spill sealed history past a hot horizon to an on-disk cold store and
   fault it back for a deep-history window — tiered storage, so resident
   memory is bounded by the hot set, not by the stream's age;
7. serve many query clients concurrently — one shared read lock,
   epoch cache validation (hits are a lock-free comparison), and
   single-flight collapsing of identical misses.

Run: ``python examples/quickstart.py``
"""

from __future__ import annotations

from repro import (
    GlobalSlopeThreshold,
    ISB,
    calibrate_threshold,
    full_materialization,
    generate_dataset,
    intermediate_slopes,
    isb_of_series,
    merge_standard,
    merge_time,
    mo_cubing,
    natural_frame,
    popular_path_cubing,
)
from repro.io import spec_from_dict, spec_to_dict
from repro.query import Q, RegressionCubeView, execute, execute_batch


def step1_compress() -> None:
    print("== 1. LSE fit and the ISB representation ==")
    series = [0.62, 0.24, 1.03, 0.57, 0.59, 0.57, 0.87, 1.10, 0.71, 0.56]
    isb = isb_of_series(series)  # the paper's Example 2 series
    print(f"raw series: {len(series)} numbers")
    print(f"compressed: {isb}")
    print(f"  predicted usage at t=9: {isb.predict(9):.3f}")
    print(f"  exact series mean recovered from the ISB: {isb.mean:.3f}\n")


def step2_aggregate() -> None:
    print("== 2. Lossless aggregation (Theorems 3.2 and 3.3) ==")
    north = isb_of_series([1.0, 1.2, 1.5, 1.4], t_b=0)
    south = isb_of_series([2.0, 2.1, 1.9, 2.4], t_b=0)
    city = merge_standard([north, south])
    print(f"north block : {north}")
    print(f"south block : {south}")
    print(f"whole city  : {city}   (bases and slopes just add)")

    q1 = isb_of_series([1.0, 1.1, 1.3, 1.2], t_b=0)
    q2 = isb_of_series([1.4, 1.6, 1.5, 1.8], t_b=4)
    halfhour = merge_time([q1, q2])
    print(f"quarter 1   : {q1}")
    print(f"quarter 2   : {q2}")
    print(f"half hour   : {halfhour}   (Theorem 3.3, raw data never touched)\n")


def step3_tilt_frame() -> None:
    print("== 3. The tilt time frame (Fig 4) ==")
    frame = natural_frame()
    for t in range(4 * 24 * 3):  # three days of quarter-hours
        frame.insert(ISB(t, t, 1.0 + 0.002 * t, 0.0))
    print(f"after 3 days of quarters: {frame}")
    day = frame.last_window("hour", 24)
    print(f"last day at hour precision: slope={day.slope:+.4f}")
    print(f"slots retained: {frame.total_retained} (capacity 71)\n")


def step4_cube() -> None:
    print("== 4. Exception-based regression cubing ==")
    data = generate_dataset("D3L3C10T5K", seed=42)
    print(f"dataset: {data.spec.name} -> {data.n_cells} m-layer streams")
    print(f"lattice: {data.layers.lattice.size} cuboids "
          f"({data.layers.describe()})")

    # Calibrate the exception threshold to flag ~1% of aggregated cells.
    oracle = full_materialization(data.layers, data.cells)
    tau = calibrate_threshold(intermediate_slopes(oracle), 0.01)
    policy = GlobalSlopeThreshold(tau)
    print(f"threshold for a 1% exception rate: |slope| >= {tau:.4f}")

    mo = mo_cubing(data.layers, data.cells, policy)
    pp = popular_path_cubing(data.layers, data.cells, policy)
    print("\nAlgorithm 1 (m/o H-cubing):")
    print(mo.describe())
    print("\nAlgorithm 2 (popular-path):")
    print(pp.describe())

    # Query through the declarative API: build a plan with the Q builder,
    # hand it to the one execution engine.  The same specs (as JSON) drive
    # the HTTP service's POST /query endpoint.
    view = RegressionCubeView(mo)
    o_coord = data.layers.o_coord
    top_spec = Q.top_slopes(o_coord, k=3)
    assert spec_from_dict(spec_to_dict(top_spec)) == top_spec  # JSON round trip
    top = execute(view, top_spec).value
    print("\ntop o-layer slopes (the analyst's watch list):")
    for values, isb in top:
        print(f"  cell {values}: slope={isb.slope:+.4f}")

    # Batches share one view; per-spec results come back in order.
    items = execute_batch(
        view, Q.batch(Q.watch_list(), Q.observation_deck())
    )
    watch, deck = (item.result.value for item in items)
    print(f"batched: {len(watch)} of {len(deck)} o-layer cells are exceptional")


def step5_durability() -> None:
    print("\n== 5. Durable, elastic streaming state ==")
    import random
    import tempfile

    from repro import StreamRecord
    from repro.service import ShardedStreamCube
    from repro.stream.generator import DatasetSpec

    layers = DatasetSpec(2, 2, 4, 1).build_layers()
    cube = ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=2, ticks_per_quarter=15
    )
    rng = random.Random(9)
    records = [
        StreamRecord((rng.randrange(16), rng.randrange(16)), t, rng.uniform(0, 3))
        for t in range(5 * 15)
        for _ in range(4)
    ]
    cube.ingest_batch(records)  # quarter 5 is still accumulating: mid-quarter
    snapdir = tempfile.mkdtemp()
    manifest = cube.snapshot(snapdir)
    print(
        f"snapshot: {manifest['tracked_cells']} cells on "
        f"{manifest['n_shards']} shards at quarter "
        f"{manifest['current_quarter']} -> {snapdir}"
    )

    # Restore — and reshard at the same time: same state, 3 shards.
    restored = ShardedStreamCube.restore(
        snapdir, layers, GlobalSlopeThreshold(0.1), n_shards=3
    )
    assert restored.window_isbs(0, 4 * 15 - 1) == cube.window_isbs(0, 4 * 15 - 1)
    print(
        f"restored on {restored.n_shards} shards: windows bit-identical, "
        "unsealed accumulators included"
    )
    cube.close()
    restored.close()


def step6_tiered_storage() -> None:
    print("\n== 6. Tiered storage: spill sealed history, fault it back ==")
    import random
    import tempfile
    from pathlib import Path

    from repro import StreamRecord
    from repro.storage import FileColdStore
    from repro.stream.engine import StreamCubeEngine
    from repro.stream.generator import DatasetSpec

    layers = DatasetSpec(2, 2, 4, 1).build_layers()
    engine = StreamCubeEngine(
        layers,
        GlobalSlopeThreshold(0.1),
        ticks_per_quarter=1,
        storage=FileColdStore(Path(tempfile.mkdtemp()) / "cold"),
        hot_quarters=2,
    )
    rng = random.Random(5)
    pool = [(rng.randrange(16), rng.randrange(16)) for _ in range(12)]
    engine.ingest_many(
        [
            StreamRecord(key, q, rng.uniform(0, 3))
            for q in range(480)
            for key in pool
        ]
    )
    engine.advance_to(480)  # 480 single-tick quarters = 2.5 tilt "days"
    stats = engine.storage_stats()
    print(
        f"sealed 480 quarters: {stats['pages_spilled']} pages "
        f"({stats['cold_slots']} slots) spilled to "
        f"{stats['bytes_on_disk']:,} bytes on disk"
    )
    # The very first quarter left RAM long ago; the window faults its
    # page back from the cold store transparently.
    window = engine.window_isbs(0, 0)
    print(
        f"deep window [0,0]: {len(window)} cells answered with "
        f"{engine.storage_stats()['cold_faults']} cold faults"
    )


def step7_concurrent_serving() -> None:
    print("\n== 7. Concurrent serving: lock-free hits, single-flight misses ==")
    import random
    import threading

    from repro import StreamRecord
    from repro.service import QueryRouter, ShardedStreamCube
    from repro.stream.generator import DatasetSpec

    layers = DatasetSpec(2, 2, 4, 1).build_layers()
    rng = random.Random(21)
    with ShardedStreamCube(
        layers, GlobalSlopeThreshold(0.1), n_shards=4, ticks_per_quarter=15
    ) as cube:
        cube.ingest_batch(
            StreamRecord(
                (rng.randrange(16), rng.randrange(16)), t, rng.uniform(0, 3)
            )
            for t in range(4 * 15)
            for _ in range(4)
        )
        cube.advance_to(4 * 15)
        router = QueryRouter(cube, window_quarters=4)
        # Queries share the cube lock's *read* side, so clients run in
        # parallel; each answer is cached with the cube's epoch
        # (cell_events, quarter) and a hit is served from a lock-free
        # comparison.  Identical
        # concurrent misses collapse to one execution (single-flight).
        clients = [
            threading.Thread(
                target=router.execute, args=(Q.observation_deck(),)
            )
            for _ in range(8)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        stats = router.stats()
        print(
            f"8 concurrent clients, epoch vector {cube.epoch_vector()}: "
            f"{stats['specs_executed']} specs served by "
            f"{stats['cache_misses']} execution(s) — "
            f"{stats['cache_hits']} lock-free hits, "
            f"{stats['single_flight_joins']} single-flight joins"
        )
        # `python -m repro serve --request-threads N` puts the same router
        # behind a bounded HTTP pool: probes and queries never wait on
        # ingest, and /stats reports these counters live.


def main() -> None:
    step1_compress()
    step2_aggregate()
    step3_tilt_frame()
    step4_cube()
    step5_durability()
    step6_tiered_storage()
    step7_concurrent_serving()


if __name__ == "__main__":
    main()
