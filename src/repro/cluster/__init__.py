"""Shard execution for the sharded stream cube.

:class:`~repro.cluster.backends.InprocBackend` holds the cube's engines in
this process and runs every shard call on the caller's thread (no
serialization, so results are bit-identical to the engines' by
construction); :class:`~repro.cluster.worker.ShardHost` is the method
surface it drives, one per engine.
"""

from repro.cluster.backends import InprocBackend, ShardBackend
from repro.cluster.worker import ShardHost

__all__ = ["InprocBackend", "ShardBackend", "ShardHost"]
