"""One shard engine behind the method surface the backend invokes.

A :class:`ShardHost` wraps one :class:`~repro.stream.engine.StreamCubeEngine`
and exposes an allowlisted method surface that
:class:`~repro.cluster.backends.InprocBackend` invokes by name on the
caller's thread, plus the one host-level method, ``snapshot_to_file``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ServiceError
from repro.io import engine_state_to_dict, write_atomic
from repro.stream.engine import StreamCubeEngine

__all__ = ["ShardHost"]


#: Methods delegated verbatim to the shard engine.  ``window_columns`` is
#: the one window read: every merged view is assembled from it parent-side.
_ENGINE_METHODS = frozenset(
    {
        "apply_segments",
        "advance_to",
        "ingest",
        "prune_idle",
        "renumber",
        "window_columns",
        "snapshot",
        "load_state",
        "storage_stats",
        "compact_storage",
    }
)


class ShardHost:
    """One shard engine plus the invocation surface the backend drives."""

    def __init__(self, engine: StreamCubeEngine) -> None:
        self.engine = engine

    def counters(self) -> list[int]:
        """``[current_quarter, records_ingested, tracked_cells,
        cell_events]``."""
        engine = self.engine
        return [
            engine.current_quarter,
            engine.records_ingested,
            engine.tracked_cells,
            engine.cell_events,
        ]

    def invoke(self, method: str, args: tuple) -> Any:
        """Run one allowlisted method."""
        if method in _ENGINE_METHODS:
            return getattr(self.engine, method)(*args)
        if method == "snapshot_to_file":
            return self.snapshot_to_file(*args)
        raise ServiceError(f"unknown shard method {method!r}")

    def snapshot_to_file(self, path: str) -> None:
        """Extract and atomically write this shard's engine state.

        The write is temp-file + fsync + rename, so a crash mid-snapshot
        leaves no torn file, and a retried call (snapshots run on a
        quiescent cube) produces identical bytes.
        """
        write_atomic(
            path, json.dumps(engine_state_to_dict(self.engine.snapshot()))
        )
