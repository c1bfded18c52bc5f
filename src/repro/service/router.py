"""Query serving over a sharded cube: merged views plus an LRU result cache.

The router owns the read path, and it is deliberately small: it manages
merged-view refreshes per analysis window, resolves each incoming
:class:`~repro.query.spec.QuerySpec` (filling the default window), and
memoizes the :class:`~repro.query.exec.QueryResult` in a bounded LRU keyed
on ``spec.cache_key()`` — the canonical plan identity, so equivalent plans
built by any surface share one cache line.  A result memoizes its own JSON
bytes (:attr:`~repro.query.exec.QueryResult.wire`), so a line carries the
answer's encoding too, and every hit and push reuses it.  Execution itself
is the single engine in :mod:`repro.query.exec`.

Concurrency: the router is safe for parallel callers and its hit path is
completely lock-free on the cube.  Every cached entry is stored together
with the cube's :meth:`~repro.service.sharding.ShardedStreamCube.
epoch_vector` at computation time — ``(cell_events, quarter)``, the same
pair at every shard count — and is served iff a fresh lock-free vector
read matches it, so "invalidation" is a comparison, not a big-lock clear.
Answers derive from sealed quarters over the tracked cell set, so the
vector changes exactly when one could change: a quarter seals, or a cell
is born or pruned.  Cache *misses* compute under the cube's read cut, and
identical concurrent misses are collapsed to one execution
(single-flight): followers wait for the leader's entry and re-validate
instead of stampeding the engines.

A partial answer carries its holes.  Views and cache lines remember the
shards their merged reads skipped (the cube's degraded-read descriptors)
and re-report them to the cube each time they are served, so a hit or a
single-flight joiner is annotated exactly like the read that computed it.

There is one query surface: :meth:`QueryRouter.execute` (with its
``_versioned`` and ``_batch`` forms) over specs.  ``exceptions`` and
``change_exceptions`` are specs like any other, so they share the versioned
cache, the single-flight and the batch/subscription paths.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterable, Mapping

from repro.cube.schema import CubeSchema
from repro.cubing.result import CubeResult
from repro.errors import ServiceError
from repro.query.exec import (
    BatchItem,
    QueryResult,
    RegressionCubeView,
    execute,
    run_batch,
    wire_encodes,
)
from repro.query.spec import BatchQuery, Q, QuerySpec, spec_from_dict
from repro.regression.isb import ISB
from repro.service.sharding import ShardedStreamCube

__all__ = ["LRUCache", "QueryRouter"]

Values = tuple[Hashable, ...]
Coord = tuple[int, ...]


def _older(old: tuple[int, ...], new: tuple[int, ...]) -> bool:
    """True iff version ``old`` precedes ``new``: every component is a
    monotone counter, so ``old`` can never be current again."""
    return old != new and all(a <= b for a, b in zip(old, new))


class LRUCache:
    """A small bounded LRU of ``(version, value)`` entries with hit/miss
    accounting (thread-safe).

    A version is a tuple of monotone counters (the cube's epoch vector).
    Storing a line at a newer version drops every line at an older one:
    those can never be served again, and waiting for each to be looked up
    or pushed out by capacity would leave never-repeated lines (and the
    bytes they carry) squatting on slots.  A line stored at a version
    older than one already stored is dead on arrival and not kept.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._mu = threading.Lock()
        self._newest: tuple[int, ...] | None = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._mu:
            return len(self._data)

    def get_versioned(self, key: Any, version: Any) -> Any | None:
        """The ``(version, value)`` entry under ``key``, iff it was stored
        at exactly ``version``.

        A present-but-stale entry counts as a miss *and is evicted on the
        spot*: it can never be served again (versions are monotone), so
        letting it squat on an LRU slot would push live lines out under
        seal-heavy, key-diverse load.
        """
        with self._mu:
            entry = self._data.get(key)
            if entry is not None:
                if entry[0] == version:
                    self._data.move_to_end(key)
                    self.hits += 1
                    return entry
                del self._data[key]
            self.misses += 1
            return None

    def put(self, key: Any, entry: tuple[tuple[int, ...], Any]) -> None:
        """Store ``entry = (version, value)`` under ``key``."""
        version = entry[0]
        with self._mu:
            newest = self._newest
            if newest is not None and _older(version, newest):
                return  # a late leader's cut: the newer lines stay
            if newest is not None and _older(newest, version):
                self._data = OrderedDict(
                    (k, e)
                    for k, e in self._data.items()
                    if not _older(e[0], version)
                )
            self._newest = version
            self._data[key] = entry
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._mu:
            self._data.clear()


class _Flight:
    """One in-flight cache-miss computation; followers await the leader."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = threading.Event()


class _CutView:
    """The execution context for one spec at the current read cut.

    Layers, schema and the change source come straight off the cube; the
    merged ``result`` is refreshed (or reused) only when the operation reads
    it.  ``change_exceptions`` compares two windows on the cube itself and
    must neither pay for nor wait on a merged-view refresh.
    """

    def __init__(self, router: "QueryRouter", window: int) -> None:
        self.layers = router.cube.layers
        self.schema = self.layers.schema
        self.lattice = self.layers.lattice
        self.changes = router.cube
        self._router = router
        self._window = window

    @functools.cached_property
    def result(self) -> CubeResult:
        return self._router._view_locked(self._window).result


class QueryRouter:
    """Cached execution of query specs over a sharded cube.

    Parameters
    ----------
    cube:
        The sharded cube being served.
    window_quarters:
        Default analysis window for specs that do not name one.
    cache_size:
        LRU capacity for individual query results.

    Merged refreshes always run m/o-cubing, on the cube's held plan.
    """

    def __init__(
        self,
        cube: ShardedStreamCube,
        window_quarters: int = 4,
        cache_size: int = 1024,
    ) -> None:
        if window_quarters < 1:
            raise ServiceError(
                f"window_quarters must be >= 1, got {window_quarters}"
            )
        self.cube = cube
        self.window_quarters = window_quarters
        self.cache = LRUCache(cache_size)
        self._mu = threading.Lock()
        # window -> (epoch vector, view, holes its refresh skipped)
        self._views: dict[
            int, tuple[tuple[int, ...], RegressionCubeView, list]
        ] = {}
        self._flights: dict[Any, _Flight] = {}
        self._view_flights: dict[int, _Flight] = {}
        self.refreshes = 0
        self.batches = 0
        self.specs_executed = 0
        self.single_flight_joins = 0
        self.single_flight_fallbacks = 0

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The cube's quarter clock — the headline component of the epoch
        vector every cached answer is validated against."""
        return self.cube.current_quarter

    @property
    def schema(self) -> CubeSchema:
        return self.cube.layers.schema

    def view(self, window_quarters: int | None = None) -> RegressionCubeView:
        """The merged cube view for one window, refreshed at most once per
        (window, epoch vector)."""
        window = self._window(window_quarters)
        with self.cube.read_lock():
            return self._view_locked(window)

    def _view_locked(self, window: int) -> RegressionCubeView:
        """The memoized view for ``window`` at the *current* read cut.

        The caller holds the cube's read lock, which freezes the epoch
        vector (it can only move under the lock's write side) — so every
        concurrent read-cut holder sees one vector, and
        the single-flight below means one of them refreshes while the
        rest wait and reuse.
        """
        vector = self.cube.epoch_vector()
        while True:
            with self._mu:
                entry = self._views.get(window)
                if entry is not None and entry[0] == vector:
                    self.cube.report_degraded(entry[2])
                    return entry[1]
                flight = self._view_flights.get(window)
                leader = flight is None
                if leader:
                    flight = self._view_flights[window] = _Flight()
            if leader:
                try:
                    with self.cube.collect_degraded() as holes:
                        result = self.cube.refresh(window)
                    view = RegressionCubeView(result, self.cube)
                    with self._mu:
                        # A line at any other vector can never be served
                        # again (the vector only moves forward): drop them
                        # all, or a client sweeping windows pins one stale
                        # cube per window for the life of the process.
                        self._views = {
                            w: entry
                            for w, entry in self._views.items()
                            if entry[0] == vector
                        }
                        self._views[window] = (vector, view, holes)
                        self.refreshes += 1
                    return view
                finally:
                    with self._mu:
                        self._view_flights.pop(window, None)
                    flight.done.set()
            else:
                # Waiting while holding the read cut is safe: the leader
                # holds the same (shared) cut and needs no further locks.
                flight.done.wait()

    def _window(self, window_quarters: int | None) -> int:
        return (
            self.window_quarters
            if window_quarters is None
            else window_quarters
        )

    def _single_flight_entry(self, key: Any, compute) -> tuple[Any, Any]:
        """Serve ``key`` from the versioned cache, computing at most once.
        Returns ``(epoch_vector, value)``.

        The hit path takes no cube locks at all: a cached entry whose
        stored epoch vector equals a fresh lock-free vector read is
        returned as-is.  The racy read is sound because the vector's
        counters are monotone and move only under the cube lock's write
        side, and lines are stored only at consistent cuts: a matching
        comparison proves the entry's cut was current during the read (a
        torn mid-write vector matches no stored cut and simply misses).
        On a miss, the first
        thread in (the leader) computes under the cube's read cut and
        fills the cache; concurrent identical misses wait for the leader
        and re-validate instead of stampeding the engines.  Errors are
        never cached: each follower retries and surfaces its own.  A line
        is ``(epoch_vector, value, holes)``; serving it re-reports the
        holes its computation hit.
        """
        for _ in range(16):
            vector = self.cube.epoch_vector()
            entry = self.cache.get_versioned(key, vector)
            if entry is not None:
                self.cube.report_degraded(entry[2])
                return entry[:2]
            with self._mu:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = self._flights[key] = _Flight()
                else:
                    self.single_flight_joins += 1
            if leader:
                try:
                    with (
                        self.cube.read_lock() as cut,
                        self.cube.collect_degraded() as holes,
                    ):
                        value = compute()
                    self.cache.put(key, (cut, value, holes))
                    return cut, value
                finally:
                    with self._mu:
                        self._flights.pop(key, None)
                    flight.done.set()
            else:
                flight.done.wait()
                # Loop: re-validate against the (possibly moved) vector.
        # A seal storm kept invalidating this line while we waited;
        # answer directly from one read cut without caching.
        with self._mu:
            self.single_flight_fallbacks += 1
        with self.cube.read_lock() as cut:
            return (cut, compute())

    # ------------------------------------------------------------------
    # Spec execution (the primary interface)
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec | Mapping[str, Any]) -> QueryResult:
        """Execute one spec, memoized on its canonical cache key.

        The spec's window defaults to the router's; names are resolved
        against the cube's schema *before* the cache lookup, so equivalent
        plans (level names vs indices, dict-ordered slices) hit one line.
        """
        return self.execute_versioned(spec)[1]

    def execute_versioned(
        self, spec: QuerySpec | Mapping[str, Any]
    ) -> tuple[tuple[int, ...], QueryResult]:
        """Like :meth:`execute`, but also returns the epoch vector of the
        read cut the answer is valid at — cache hits return the stored
        cut, fresh computations the cut they ran under.  The subscription
        dispatcher stamps pushed updates with this vector so delivery
        ordering is checkable against the cube's monotone clocks.
        """
        if isinstance(spec, BatchQuery):
            raise ServiceError("a BatchQuery must go through execute_batch")
        if isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        window = self._window(spec.window_quarters)
        resolved = spec.window(window).resolve(self.schema)
        key = resolved.cache_key()

        def compute() -> QueryResult:
            # Executions are counted where they happen: a cache hit (or a
            # single-flight follower reusing the leader's entry) is *not*
            # an execution, and `/stats` must not claim it was.
            with self._mu:
                self.specs_executed += 1
            return execute(
                _CutView(self, window), resolved, pre_resolved=True
            )

        return self._single_flight_entry(key, compute)

    def execute_batch(
        self,
        batch: BatchQuery | Iterable[QuerySpec | Mapping[str, Any]],
    ) -> list[BatchItem]:
        """Execute many specs, sharing refreshes and the result cache.

        All specs of one window share a single merged-view refresh (the
        per-window view is memoized per epoch).  Returns one
        :class:`BatchItem` per entry, in order; a domain error on one entry
        is recorded there and does not stop the rest.
        """
        entries = batch.specs if isinstance(batch, BatchQuery) else tuple(batch)
        with self._mu:
            self.batches += 1
        return run_batch(entries, self.execute)

    # ------------------------------------------------------------------
    # Harness seam.  The frozen benchmarks/e2e harness wraps ``exceptions``
    # and ``change_exceptions`` by name and audits through ``result``;
    # nothing else calls them, and they go when a benchmark PR re-points it
    # at ``execute`` / ``view``.
    # ------------------------------------------------------------------
    def exceptions(
        self, window_quarters: int | None = None
    ) -> dict[Coord, dict[Values, ISB]]:
        return self.execute(Q.exceptions(window=window_quarters)).value

    def change_exceptions(
        self, quarters_apart: int = 1, layer: str = "m"
    ) -> dict[Values, ISB]:
        return self.execute(Q.change_exceptions(quarters_apart, layer)).value

    def result(self, window_quarters: int | None = None) -> CubeResult:
        return self.view(window_quarters).result

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cache and refresh counters (served by the HTTP ``/stats``).

        ``wire_encodes`` counts answers encoded to JSON bytes in this
        process: one per result a client read as bytes, not one per read.
        """
        return {
            "epoch": self.epoch,
            "cache_entries": len(self.cache),
            "cache_capacity": self.cache.capacity,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "refreshes": self.refreshes,
            "plan_builds": self.cube.plan_builds,
            "plan_reuses": self.cube.plan_reuses,
            "views": len(self._views),
            "batches": self.batches,
            "specs_executed": self.specs_executed,
            "single_flight_joins": self.single_flight_joins,
            "single_flight_fallbacks": self.single_flight_fallbacks,
            "wire_encodes": wire_encodes(),
        }
