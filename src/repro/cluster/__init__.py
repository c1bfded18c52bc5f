"""Process-parallel shard execution for the sharded stream cube.

The cube's dispatch seam (:class:`~repro.cluster.backends.ShardBackend`)
with two implementations: :class:`~repro.cluster.backends.InprocBackend`
(engines in this process, every shard call run on the caller's thread —
bit-identical by construction) and :class:`~repro.cluster.process.ProcessBackend`
(one forked worker per shard behind a supervised, length-prefixed JSON
RPC — ingest that scales past the GIL).  :class:`~repro.cluster.backends.
ClusterConfig` bundles the knobs (timeouts, queue depth, restart budget,
recovery directory); :mod:`repro.cluster.wire` defines the frames, the
method codecs, and the crash classification the supervisor recovers by.
"""

from repro.cluster.backends import ClusterConfig, InprocBackend, ShardBackend
from repro.cluster.process import ProcessBackend
from repro.cluster.worker import ShardHost, WorkerSpec

__all__ = [
    "ClusterConfig",
    "InprocBackend",
    "ProcessBackend",
    "ShardBackend",
    "ShardHost",
    "WorkerSpec",
]
