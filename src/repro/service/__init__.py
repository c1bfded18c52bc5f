"""Multi-engine serving layer: sharded, durable, elastic stream cubing.

The first layer of the codebase that runs more than one engine.  Records are
hash-partitioned by m-layer key across independent
:class:`~repro.stream.engine.StreamCubeEngine` shards
(:mod:`repro.service.sharding`), merged losslessly by Theorem 3.2
(:mod:`repro.service.merge`), served through a cache-fronted router
(:mod:`repro.service.router`), and exposed over JSON/HTTP
(:mod:`repro.service.http`, ``python -m repro serve``).  The whole cube
state is durable and movable: ``ShardedStreamCube.snapshot(dir)`` /
``restore(dir)`` round-trip every shard bit-identically (parallel per-shard
files + a manifest), a quarter-granular WAL (:mod:`repro.stream.wal`)
covers the unsealed tail, and ``reshard(new_n)`` / ``restore(dir,
n_shards=j)`` re-partition the exact state over a new shard count.
"""

from repro.service.http import StreamCubeService, make_server, serve
from repro.service.merge import canonical_cell_order, disjoint_union
from repro.service.router import LRUCache, QueryRouter
from repro.service.sharding import ShardedStreamCube, stable_shard_index
from repro.service.subscriptions import Subscription, SubscriptionRegistry

__all__ = [
    "ShardedStreamCube",
    "stable_shard_index",
    "disjoint_union",
    "canonical_cell_order",
    "LRUCache",
    "QueryRouter",
    "StreamCubeService",
    "Subscription",
    "SubscriptionRegistry",
    "make_server",
    "serve",
]
