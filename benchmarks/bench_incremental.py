"""Section 4.5 / Section 5 closing note: incremental vs batch computation.

"In stream data applications, it is likely that one just needs to
incrementally compute the newly generated stream data.  In this case, the
computation time should be substantially shorter."  This bench measures
(a) the steady-state cost of absorbing one new quarter of records and (b)
recomputing the full analysis window from scratch, both through a one-shard
cube (the cube owns the refresh).

Both sides ride the columnar fast path (``repro.regression.kernels``):
quarter absorption goes through grouped ingestion + one grouped sealing fit
+ bulk tilt-frame promotion, and the window recompute's roll-ups go through
the grouped Theorem 3.2 kernel.
"""

from __future__ import annotations

from repro.cubing.policy import GlobalSlopeThreshold
from repro.service.sharding import ShardedStreamCube
from repro.stream.power_grid import PowerGridConfig, PowerGridSimulator
from repro.tilt.frame import TiltLevelSpec

_TPQ = 15


def _cube_and_sim():
    cfg = PowerGridConfig(
        n_cities=3,
        blocks_per_city=4,
        addresses_per_block=3,
        users_per_address=2,
        noise=0.02,
        seed=23,
    )
    sim = PowerGridSimulator(cfg)
    layers = sim.layers()
    cube = ShardedStreamCube(
        layers,
        GlobalSlopeThreshold(0.02),
        n_shards=1,
        key_fn=sim.m_key_fn(),
        ticks_per_quarter=_TPQ,
        frame_levels=[
            TiltLevelSpec("quarter", _TPQ, 4),
            TiltLevelSpec("hour", 4 * _TPQ, 24),
        ],
    )
    return cube, sim


def bench_incremental_quarter_update(benchmark):
    """Absorb one quarter of minute records into a warm cube."""
    cube, sim = _cube_and_sim()
    cube.ingest_batch(sim.records(60))
    cube.advance_to(60)
    next_minute = [60]

    def absorb_quarter():
        start = next_minute[0]
        cube.ingest_batch(sim.records(_TPQ, start_minute=start))
        cube.advance_to(start + _TPQ)
        next_minute[0] = start + _TPQ

    benchmark.pedantic(absorb_quarter, rounds=8, iterations=1)
    benchmark.extra_info["records_per_quarter"] = sim.n_users * _TPQ


def bench_batch_window_recompute(benchmark):
    """Rebuild the whole 4-quarter window and recube it from scratch."""
    cube, sim = _cube_and_sim()
    cube.ingest_batch(sim.records(60))
    cube.advance_to(60)

    def recompute():
        return cube.refresh(window_quarters=4)

    result = benchmark.pedantic(recompute, rounds=8, iterations=1)
    benchmark.extra_info["m_cells"] = len(result.m_layer)
