"""The shard backend the sharded cube dispatches through.

:class:`InprocBackend` holds N engines in this process and runs every
shard call on the caller's thread: no serialization, no thread hand-off,
and a fan-out is a loop over the shards.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any

from repro.cluster.worker import ShardHost
from repro.errors import CorruptionError
from repro.stream.engine import StreamCubeEngine

__all__ = ["InprocBackend", "ShardBackend"]


class ShardBackend:
    """The base of :class:`InprocBackend`, a class of its own because the
    frozen ``benchmarks/e2e`` hook table wraps ``ShardBackend.broadcast``:
    ``map`` with the same arguments for every shard.
    """

    def broadcast(self, method: str, *args: Any) -> list:
        return self.map(method, [args] * self.n_shards)


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
        """``call`` as an already-resolved future (its exception, if the
        call raised).  Nothing in the package calls it: it exists because
        the frozen ``benchmarks/e2e`` hook table wraps it by name, and it
        goes when that table drops it."""
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
        """Broadcast an idempotent read, tolerating quarantined shards.

        Returns ``(results, missing)``: a shard whose read raised
        :class:`CorruptionError` leaves a ``None`` hole in ``results`` and
        a descriptor in ``missing`` (shard index, state, reason,
        ``last_quarter`` staleness bound).  Any other failure raises.
        """
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
