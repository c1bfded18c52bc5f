"""The shard-execution seam: where a shard *runs* is a backend choice.

:class:`ShardBackend` is the contract :class:`~repro.service.sharding.
ShardedStreamCube` dispatches through, so process-parallel shards are a
construction-time choice, not a rewrite.  Two implementations:

* :class:`InprocBackend` — N engines in this process, every shard call run
  on the caller's thread (no serialization, no thread hand-off; a fan-out
  is a loop over the shards).
* :class:`~repro.cluster.process.ProcessBackend` — each shard behind a
  forked worker process with a supervised RPC channel, for ingest that
  scales past the GIL.

Both drive the same :class:`~repro.cluster.worker.ShardHost` method
surface, so the in-process tests cover exactly the dispatch logic the
workers run.  :class:`ClusterConfig` is the user-facing knob bundle; the
cube accepts either a backend name or a full config.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from repro.cluster.worker import ShardHost
from repro.errors import CorruptionError, ServiceError
from repro.stream.engine import StreamCubeEngine

__all__ = ["ClusterConfig", "InprocBackend", "ShardBackend"]


@dataclass(frozen=True)
class ClusterConfig:
    """How the cube's shards execute.

    backend:
        ``"inproc"`` (the default: engines in this process) or
        ``"process"`` (one forked worker per shard).
    rpc_timeout:
        Seconds the parent waits for any one shard RPC before declaring
        the worker dead and restarting it.  Generous by default — it is a
        liveness backstop, not a latency SLO.
    queue_depth:
        Bound on in-flight-plus-queued requests per worker; a full queue
        blocks the submitter (backpressure) instead of buffering without
        limit.
    max_restarts:
        Per-worker restart budget; exceeding it surfaces a
        :class:`ServiceError` instead of crash-looping.
    recovery_dir:
        Snapshot directory consulted when restarting a crashed worker
        (restore the shard's last snapshot state, then replay the WAL
        tail).  Without it, recovery replays the whole WAL from scratch.
    ingest_chunk:
        Records per dispatch chunk in the process backend's
        ``ingest_batch`` — routing of chunk *k+1* overlaps worker
        application of chunk *k*, hiding the parent's serial routing cost.
    """

    backend: str = "inproc"
    rpc_timeout: float = 30.0
    queue_depth: int = 8
    max_restarts: int = 5
    recovery_dir: str | None = None
    ingest_chunk: int = 4096

    def __post_init__(self) -> None:
        if self.backend not in ("inproc", "process"):
            raise ServiceError(
                f"unknown shard backend {self.backend!r} "
                "(expected 'inproc' or 'process')"
            )
        if self.queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if self.ingest_chunk < 1:
            raise ServiceError("ingest_chunk must be >= 1")


class ShardBackend:
    """The dispatch contract the sharded cube runs on.

    ``call`` is a synchronous single-shard invocation; ``submit`` returns
    a future; ``map`` fans one method over every shard with per-shard
    arguments; ``broadcast`` is ``map`` with identical arguments.
    ``counters()`` returns every shard's ``[quarter, records, cells]``
    triple without a mandatory round trip (live reads in-process, cached
    piggyback values for workers).  Implementations own their shards'
    lifecycle: ``close()`` drains and releases them.
    """

    name: str

    @property
    def n_shards(self) -> int:
        raise NotImplementedError

    def call(self, shard: int, method: str, *args: Any) -> Any:
        raise NotImplementedError

    def submit(self, shard: int, method: str, *args: Any) -> Future:
        raise NotImplementedError

    def map(self, method: str, args_list: list[tuple]) -> list:
        raise NotImplementedError

    def broadcast(self, method: str, *args: Any) -> list:
        return self.map(method, [args] * self.n_shards)

    def settle(self, shard: int, method: str, args: tuple, future: Future) -> Any:
        """Resolve one submitted future (crash-aware in process backends)."""
        return future.result()

    def broadcast_partial(
        self, method: str, *args: Any
    ) -> tuple[list, list[dict[str, Any]]]:
        """Broadcast an idempotent read, tolerating lost shards.

        Returns ``(results, missing)`` where ``results`` has a ``None``
        hole per unreachable shard and ``missing`` describes each hole
        (shard index, state, reason, ``last_quarter`` staleness bound).
        Quarantined data (:class:`CorruptionError`) is always a hole; the
        process backend also tolerates dead workers.
        """
        raise NotImplementedError

    def health(self) -> list[dict[str, Any]]:
        """Per-shard health descriptors; in-process shards cannot die."""
        return [
            {
                "shard": shard,
                "state": "healthy",
                "restarts": 0,
                "last_quarter": counters[0],
                "reason": None,
            }
            for shard, counters in enumerate(self.counters())
        ]

    def health_version(self) -> int:
        """Bumped on health transitions; constant when shards can't die."""
        return 0

    def counters(self) -> list[list[int]]:
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        raise NotImplementedError

    def close(self) -> dict[str, Any] | None:
        raise NotImplementedError


class InprocBackend(ShardBackend):
    """Engines in this process, every call run on the caller's thread.

    A shard call is a few milliseconds of work that holds the GIL outside
    numpy's kernels, so handing it to another thread costs more than it
    overlaps: ``call`` runs inline, ``map`` and ``broadcast_partial`` are
    loops over the shards, and ``submit`` returns an already-resolved
    future.  A fan-out still visits every shard when one fails and then
    raises the first failure in shard order.  No serialization anywhere,
    so results are bit-identical to the engines' by construction.
    """

    name = "inproc"

    def __init__(self, engines: list[StreamCubeEngine]) -> None:
        self.hosts = [ShardHost(engine) for engine in engines]

    @property
    def engines(self) -> list[StreamCubeEngine]:
        """The live shard engines (tests and diagnostics reach through)."""
        return [host.engine for host in self.hosts]

    @property
    def n_shards(self) -> int:
        return len(self.hosts)

    def call(self, shard: int, method: str, *args: Any) -> Any:
        return self.hosts[shard].invoke(method, args)

    def submit(self, shard: int, method: str, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(self.hosts[shard].invoke(method, args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def map(self, method: str, args_list: list[tuple]) -> list:
        results: list[Any] = []
        failure: Exception | None = None
        for host, args in zip(self.hosts, args_list):
            try:
                results.append(host.invoke(method, args))
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return results

    def broadcast_partial(
        self, method: str, *args: Any
    ) -> tuple[list, list[dict[str, Any]]]:
        results: list[Any] = []
        missing: list[dict[str, Any]] = []
        failure: Exception | None = None
        for shard, host in enumerate(self.hosts):
            try:
                results.append(host.invoke(method, args))
            except CorruptionError as exc:
                results.append(None)
                missing.append(
                    {
                        "shard": shard,
                        "state": "degraded",
                        "reason": str(exc),
                        "last_quarter": host.counters()[0],
                    }
                )
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return results, missing

    def counters(self) -> list[list[int]]:
        return [host.counters() for host in self.hosts]

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "workers": len(self.hosts),
            "pids": [],
            "restarts": 0,
            "rpc_round_trips": 0,
            "queue_high_water": [0] * len(self.hosts),
            "health": ["healthy"] * len(self.hosts),
        }

    def close(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "drained": len(self.hosts),
            "reaped": [],
            "doomed": {},
        }
