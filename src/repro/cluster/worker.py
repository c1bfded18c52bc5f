"""The shard-side half of the cluster: one engine behind an RPC loop.

A :class:`ShardHost` wraps one :class:`~repro.stream.engine.StreamCubeEngine`
and exposes the allowlisted method surface both backends share —
:class:`~repro.cluster.backends.InprocBackend` invokes it directly on the
caller's thread, :class:`~repro.cluster.process.ProcessBackend` forks
:func:`worker_main` and drives the same surface over the wire protocol.
Keeping one dispatch table means the in-process tests exercise exactly the
code the worker processes run (only the socket loop itself is
process-only).

Workers are forked, not spawned: layers, policies and key functions are
plain Python objects (closures included) that fork inherits for free,
where a spawn would have to pickle them.  The :class:`WorkerSpec` carries
only what differs per worker — the shard index and the cold-store
coordinates — and each worker opens its *own* cold store from the shared
generation layout, so no file handle ever crosses a fork.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any

from repro import faults
from repro.cluster import wire
from repro.cube.layers import CriticalLayers
from repro.cubing.policy import ExceptionPolicy
from repro.errors import ServiceError
from repro.io import engine_state_to_dict, write_atomic
from repro.storage import FileColdStore, shard_store_path
from repro.stream.engine import KeyFn, StreamCubeEngine
from repro.tilt.frame import TiltLevelSpec

__all__ = ["ShardHost", "WorkerSpec", "build_host", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs to build its shard engine.

    ``storage_root`` / ``storage_generation`` name the worker's partition
    in the generation layout of :mod:`repro.storage.layout`; the parent
    opens the stores once to run the generation/repartition logic, and
    each worker reopens its own partition locally.
    """

    shard_index: int
    n_shards: int
    layers: CriticalLayers
    policy: ExceptionPolicy
    key_fn: KeyFn | None
    ticks_per_quarter: int
    frame_levels: list[TiltLevelSpec] | None
    storage_root: str | None = None
    storage_generation: int = 0
    hot_quarters: int | None = None
    #: The parent's armed fault plan as a plain dict (``None`` = none).
    #: Forked workers discard the injector they inherit through fork and
    #: re-arm from this, with supervisor-only sites dropped — so frame
    #: faults fire on exactly one side of the socket, and a *revived*
    #: worker re-arms the same way a first-boot worker does.
    fault_plan: dict[str, Any] | None = None


#: Methods delegated verbatim to the shard engine.  ``window_columns`` is
#: the one window read: every merged view is assembled from it parent-side.
_ENGINE_METHODS = frozenset(
    {
        "apply_segments",
        "advance_to",
        "ingest",
        "validate_segment_keys",
        "prune_idle",
        "window_columns",
        "snapshot",
        "load_state",
        "storage_stats",
        "compact_storage",
        "drop_page_cache",
    }
)
#: Methods the host itself implements (snapshot IO, liveness, chaos).
_HOST_METHODS = frozenset({"snapshot_to_file", "ping", "_arm_fault"})


class ShardHost:
    """One shard engine plus the invocation surface the backends share."""

    def __init__(self, engine: StreamCubeEngine) -> None:
        self.engine = engine
        self._fault: tuple[str, str, float] | None = None

    # -- shared dispatch ------------------------------------------------
    def counters(self) -> list[int]:
        """``[current_quarter, records_ingested, tracked_cells]`` — cheap
        enough to piggyback on every RPC reply, so the parent never pays a
        round trip for a property read."""
        engine = self.engine
        return [
            engine.current_quarter,
            engine.records_ingested,
            engine.tracked_cells,
        ]

    def invoke(self, method: str, args: tuple) -> Any:
        """Run one allowlisted method with already-decoded arguments."""
        self._maybe_fault(method)
        if method in _ENGINE_METHODS:
            return getattr(self.engine, method)(*args)
        if method in _HOST_METHODS:
            return getattr(self, method)(*args)
        raise ServiceError(f"unknown shard method {method!r}")

    # -- host-level methods ---------------------------------------------
    def ping(self) -> None:
        """A no-op whose reply refreshes the piggybacked counters."""
        return None

    def snapshot_to_file(self, path: str) -> None:
        """Extract and atomically write this shard's engine state.

        Runs where the state lives, so a process-backed snapshot never
        ships cell payloads through the parent — each worker writes its
        own generation-tagged file and the parent only writes the
        manifest.  The write is temp-file + fsync + rename, so a worker
        killed mid-snapshot leaves no torn file and the retried call
        (snapshots run on a quiescent cube) produces identical bytes.
        """
        write_atomic(
            path, json.dumps(engine_state_to_dict(self.engine.snapshot()))
        )

    def _arm_fault(self, kind: str, method: str, seconds: float = 0.0) -> None:
        """One-shot fault injection for the chaos scenarios.

        ``kind`` is ``"exit"`` (die without replying, as a crash would) or
        ``"sleep"`` (stall long enough to trip the RPC timeout); the fault
        fires on the next invocation of ``method`` and disarms itself.
        """
        if kind not in ("exit", "sleep"):
            raise ServiceError(f"unknown fault kind {kind!r}")
        self._fault = (kind, method, float(seconds))

    def _maybe_fault(self, method: str) -> None:
        if self._fault is None or self._fault[1] != method:
            return
        kind, _, seconds = self._fault
        self._fault = None
        if kind == "exit":  # pragma: no cover - kills the worker process
            os._exit(1)
        time.sleep(seconds)


def build_host(spec: WorkerSpec) -> ShardHost:
    """Build the engine (opening its own cold store) described by a spec."""
    storage = None
    if spec.storage_root is not None:
        storage = FileColdStore(
            shard_store_path(
                spec.storage_root,
                spec.storage_generation,
                spec.shard_index,
                spec.n_shards,
            )
        )
    engine = StreamCubeEngine(
        spec.layers,
        spec.policy,
        key_fn=spec.key_fn,
        ticks_per_quarter=spec.ticks_per_quarter,
        frame_levels=spec.frame_levels,
        storage=storage,
        hot_quarters=spec.hot_quarters,
    )
    return ShardHost(engine)


def worker_main(
    sock: socket.socket,
    spec: WorkerSpec,
    parent_sock: socket.socket | None = None,
) -> None:  # pragma: no cover
    """The forked worker's request loop (process-only by construction).

    Every dispatch decision lives in :meth:`ShardHost.invoke` (covered by
    the in-process tests); this loop only moves frames.  Domain errors are
    replied and the loop continues; a protocol failure (EOF, unreadable
    frame) exits the process — the supervisor treats that as a crash.
    ``os._exit`` skips inherited atexit handlers, which belong to the
    parent.  ``parent_sock`` is the fork-inherited copy of the parent's
    end of the pair, closed first so EOF semantics stay crisp.
    """
    code = 0
    try:
        if parent_sock is not None:
            parent_sock.close()
        faults.install_for_worker(spec.fault_plan)
        host = build_host(spec)
        while True:
            try:
                request = wire.recv_frame(sock)
            except ConnectionError:
                break
            if request is None:
                break  # parent closed the socket: drain is over
            method = request["m"]
            reply: dict[str, Any] = {"id": request["id"]}
            if method == "shutdown":
                reply.update(ok=True, v=None, c=host.counters())
                wire.send_frame(sock, reply)
                break
            try:
                args = wire.decode_args(method, request["a"])
                value = host.invoke(method, args)
                reply.update(
                    ok=True,
                    v=wire.encode_result(method, value),
                    c=host.counters(),
                )
            except Exception as exc:
                reply.update(ok=False, c=host.counters())
                reply.update(wire.error_to_wire(exc))
            wire.send_frame(sock, reply)
    except BaseException:
        code = 1
    finally:
        try:
            sock.close()
        except OSError:
            pass
        os._exit(code)
