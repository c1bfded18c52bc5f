"""Hash-partitioned stream cubing: N independent shard engines, one cube.

Theorem 3.2 makes regression cells losslessly mergeable, so a stream cube can
be *partitioned by m-layer key*: each key's whole history lives on exactly one
:class:`~repro.stream.engine.StreamCubeEngine` shard, shards never exchange
state during ingestion, and any global view is an exact disjoint-union merge
(see :mod:`repro.service.merge`).  The shards run in this process, on the
caller's thread (:class:`~repro.cluster.backends.InprocBackend`).

The cube is the one owner of everything above the shards: the journal, the
held cubing plan, the refresh, the change exceptions and read consistency —
one phase-fair reader-writer lock and one epoch, ``(cell_events,
quarter)``, that is the same at every shard count.  A cube over one engine
is ``ShardedStreamCube(..., n_shards=1)``.

Equivalence guarantee (property-tested in ``tests/service``, and pinned by
the chaos catalogue): for any quarter-ordered workload, a
:class:`ShardedStreamCube` with *any* shard count produces bit-identical
m-layer ISBs, refreshes and exception sets to one shard fed the same
records — each cell's per-tick sums, sealing boundaries and tilt frame
evolve on its owner shard exactly as they would on the one shard.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Hashable, Iterable, Iterator, Mapping

import numpy as np

from repro.cluster.backends import InprocBackend
from repro.cube.layers import CriticalLayers
from repro.cubing.mo_cubing import CubePlan, PlannedCells
from repro.cubing.policy import ExceptionPolicy
from repro.cubing.result import CubeResult
from repro.errors import CodecError, CorruptionError, ServiceError, StorageError
from repro.io import (
    STATE_VERSION,
    check_format,
    decoding,
    engine_state_from_dict,
    payload_checksum,
    write_atomic,
)
from repro.regression import kernels
from repro.regression.isb import ISB
from repro.service.locks import RWLock
from repro.service.merge import disjoint_union
from repro.storage import (
    BACKEND,
    StorageConfig,
    open_shard_stores,
    prune_stale_generations,
)
from repro.stream.engine import (
    KeyFn,
    Segment,
    StreamCubeEngine,
    change_window_bounds,
    check_seal_horizon,
    group_segments,
    recent_window_bounds,
    run_cubing,
    validate_batch,
    window_change_exceptions,
)
from repro.stream.records import RecordColumns, StreamRecord
from repro.stream.state import EngineState
from repro.stream.wal import QuarterWAL
from repro.tilt.frame import TiltLevelSpec, TiltPages

__all__ = ["ShardedStreamCube", "stable_shard_index"]

Values = tuple[Hashable, ...]

_MANIFEST = "manifest.json"
_SNAPSHOT_FORMAT = "repro-snapshot"

#: Bound on the parent-side key -> shard routing cache (cleared wholesale
#: when exceeded).  An entry memoizes validate-then-route, a pure function
#: of the schema and the shard count: a key is in it only after it passed
#: schema validation, so the batch path validates each key once, not once
#: per batch — dropping entries only costs a re-validation and a blake2b.
_ROUTE_CACHE_LIMIT = 1 << 20


def stable_shard_index(values: Values, n_shards: int) -> int:
    """The owning shard of one m-layer key.

    Python's built-in ``hash`` is salted per process for strings, which would
    scatter the same key to different shards across restarts.  An unkeyed
    blake2b digest over a canonical encoding is stable everywhere and cheap
    enough for the ingest path.
    """
    digest = hashlib.blake2b(
        b"\x1f".join(repr(value).encode("utf-8") for value in values)
        + b"\x1f",
        digest_size=8,
    )
    return int.from_bytes(digest.digest(), "big") % n_shards


def _count(
    fields: Mapping[str, Any],
    name: str,
    minimum: int = 0,
    default: int | None = None,
) -> int:
    """A manifest's integer field, at least ``minimum``; a missing field is
    ``default`` when one is given, else a :class:`CodecError` too."""
    value = fields.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise CodecError(
            f"snapshot: manifest field {name!r} is {value!r}, not an "
            f"integer >= {minimum}"
        )
    return value


def _n_records(segments: list[Segment]) -> int:
    return sum(len(group) for _, _, group, _, _ in segments)


def _split(
    segment: Segment, part_of: kernels.Column, n_parts: int
) -> list[Segment | None]:
    """``segment`` split by a per-*key* part assignment: one segment a part
    (``None`` for a part no key goes to), groups whole, key order and record
    order kept (:func:`repro.regression.kernels.split_groups`)."""
    quarter, keys, group, ticks, z = segment
    return [
        part
        and (
            quarter,
            [keys[g] for g in part[0]],
            part[2],
            ticks[part[1]],
            z[part[1]],
        )
        for part in kernels.split_groups(group, part_of, n_parts)
    ]


def _repartition_states(
    states: list[EngineState], new_n: int
) -> list[EngineState]:
    """Re-partition aligned per-shard states over a new shard count.

    Each cell's :class:`~repro.stream.state.CellSnapshot` and its row of
    every page move wholesale to the new owner (``stable_shard_index``
    over the new count), so no ISB arithmetic happens at all — the
    re-partitioned cube is bit-identical by construction.  The lifetime
    record counter is a cube-level statistic whose per-shard split is
    meaningless after moving cells between shards; the aggregate is
    preserved by assigning it to shard 0.  Demoted spans (``cold_spans``)
    are level-granular and identical on every aligned shard, so they
    transfer to every new shard verbatim — the cold *pages* are
    re-partitioned separately by :func:`repro.storage.open_shard_stores`.
    """
    template = states[0]
    total_records = sum(state.records_ingested for state in states)
    cells: list[dict[Values, Any]] = [{} for _ in range(new_n)]
    # rows[i][s]: the rows of source state s that new shard i takes.
    rows: list[list[list[int]]] = [[[] for _ in states] for _ in range(new_n)]
    for s, state in enumerate(states):
        for row, (key, cell) in enumerate(state.cells.items()):
            owner = stable_shard_index(key, new_n)
            cells[owner][key] = cell
            rows[owner][s].append(row)
    return [
        EngineState(
            ticks_per_quarter=template.ticks_per_quarter,
            frame_levels=template.frame_levels,
            current_quarter=template.current_quarter,
            records_ingested=total_records if i == 0 else 0,
            tilt=TiltPages.gather(
                [(state.tilt, rows[i][s]) for s, state in enumerate(states)]
            ),
            cells=cells[i],
            cold_spans=template.cold_spans,
        )
        for i in range(new_n)
    ]


class _HeldCells:
    """One merged cell set, in canonical order, and what is built from it.

    ``version`` is the per-shard cell generation, ``None`` for a shard a
    degraded read lost; ``keys`` the merged keys in canonical order and
    ``order`` the permutation taking the concatenated rows of the
    answering shards (``present``, one key list each) there —
    :func:`~repro.service.merge.disjoint_union`'s order and its
    disjointness check.  ``plan``, the cubing plan of the set, is built by
    the first refresh that asks for it.  Never patched: a moved version
    gets a new one.
    """

    def __init__(
        self,
        layers: CriticalLayers,
        version: tuple[str | None, ...],
        present: list[list[Values]],
    ) -> None:
        offsets = itertools.accumulate(map(len, present), initial=0)
        row_of = disjoint_union(
            dict(zip(keys, itertools.count(offset)))
            for keys, offset in zip(present, offsets)
        )
        self.layers = layers
        self.version = version
        self.keys = list(row_of)
        self.order = np.fromiter(row_of.values(), dtype=np.int64, count=len(row_of))

    @functools.cached_property
    def plan(self) -> CubePlan:
        return CubePlan(self.layers, self.keys)


class ShardedStreamCube:
    """One logical stream cube partitioned across N independent engines.

    Parameters mirror :class:`~repro.stream.engine.StreamCubeEngine`, plus:

    n_shards:
        Number of engine shards keys are hash-partitioned over.
    wal:
        Optional :class:`~repro.stream.wal.QuarterWAL` journaling the
        *cube-level* ingestion stream (batches before routing, explicit
        advances).  Shards never journal individually — replaying the cube
        journal re-routes every record to the same owner shard, so one log
        covers the whole cube.
    storage:
        Optional :class:`~repro.storage.StorageConfig`.  When given, each
        shard engine gets its own cold store under ``storage.root`` (one
        generation-tagged partition set per shard count — opening an
        existing set written under a *different* shard count re-partitions
        the cold pages, so resharding carries deep history along), sealed
        history past ``storage.hot_quarters`` spills to disk, and deep
        windows fault it back transparently.
    hot_quarters:
        Overrides ``storage.hot_quarters`` when given (the config default
        serves the common case).  Ignored without ``storage``.

    Concurrency discipline (the HTTP layer does not serialize access):
    *mutators* (ingest / advance / prune / snapshot) are serialized by one
    write mutex — WAL appends and the quarter clock stay totally ordered —
    and additionally hold the write side of one phase-fair
    :class:`~repro.service.locks.RWLock` while engine state actually
    changes.  *Merged reads* hold its read side for the duration of the
    fan-out — a consistent cut — and may run concurrently with each other
    and with the mutator's lock-free prelude (validation, routing,
    journaling).  :meth:`epoch_vector` names the cut: a reader that
    records the vector under the read side can later validate a cached
    answer with one lock-free comparison.  Shards are kept
    quarter-aligned: any ingestion or advance that moves one shard's clock
    moves every shard's, exactly as one shard seals every cell's quarter
    when any record crosses a boundary.
    """

    def __init__(
        self,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        n_shards: int = 4,
        key_fn: KeyFn | None = None,
        ticks_per_quarter: int = 15,
        frame_levels: Iterable[TiltLevelSpec] | None = None,
        wal: QuarterWAL | None = None,
        storage: StorageConfig | None = None,
        hot_quarters: int | None = None,
    ) -> None:
        if n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
        self.layers = layers
        self.policy = policy
        self.wal = wal
        self.key_fn = key_fn
        self.ticks_per_quarter = ticks_per_quarter
        levels = list(frame_levels) if frame_levels is not None else None
        self._storage_config = storage
        self._storage_generation = 0
        self.hot_quarters = (
            hot_quarters
            if hot_quarters is not None
            else (storage.hot_quarters if storage is not None else None)
        )
        self._validate_values = layers.schema.values_validator(layers.m_coord)
        self._route_cache: dict[Values, int] = {}
        self._snapshots_taken = 0
        #: When True, merged reads tolerate quarantined shards and record
        #: what was missing instead of raising — the service layer's
        #: degraded-serving mode.  Off by default so
        #: library callers keep strict all-shards-or-error semantics.
        self.degraded_reads = False
        # Degraded-read holes accumulate per *thread*: concurrent queries
        # each drain only the holes their own merged reads produced, so one
        # response can never report (or steal) another's.
        self._degraded_local = threading.local()
        # One write mutex serializes mutators end to end (WAL order, the
        # quarter clock); the RW lock fences readers from the engine
        # mutation window only.
        self._write_mutex = threading.RLock()
        self._lock = RWLock()
        # Cell events before this cube's shards took over (a restore or a
        # reshard carries the count on); see epoch_vector.
        self._cell_events_base = 0
        # The current merged cell set and its cubing plan (see
        # _merged_columns): replaced whole, never patched, so concurrent
        # reads may share it; the lock only keeps the two counters exact.
        self._held: _HeldCells | None = None
        self._plan_mu = threading.Lock()
        #: Merged reads that had to rebuild the held cell set (and so the
        #: plan) / ran on the held one.
        self.plan_builds = 0
        self.plan_reuses = 0
        # Seal listeners fire after a sealing mutator has released the
        # write side (still under the write mutex, so notifications
        # are totally ordered with the seals they announce).  Listeners
        # must be cheap and non-blocking — the subscription dispatcher
        # just flips an event; the seal path never waits on delivery.
        self._seal_listeners: list[Any] = []
        stores = None
        if storage is not None:
            self._storage_generation, stores = open_shard_stores(
                storage, n_shards, stable_shard_index
            )
        self._backend = InprocBackend(
            [
                StreamCubeEngine(
                    layers,
                    policy,
                    key_fn=key_fn,
                    ticks_per_quarter=ticks_per_quarter,
                    frame_levels=levels,
                    storage=stores[i] if stores else None,
                    hot_quarters=self.hot_quarters,
                )
                for i in range(n_shards)
            ]
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: in-process shards hold no thread or
        process, and the WAL belongs to its opener."""

    def __enter__(self) -> "ShardedStreamCube":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[StreamCubeEngine]:
        """The live shard engines (diagnostics and the test suite)."""
        return self._backend.engines

    @property
    def n_shards(self) -> int:
        return self._backend.n_shards

    @property
    def current_quarter(self) -> int:
        """The global quarter clock (shards are kept aligned)."""
        return max(c[0] for c in self._backend.counters())

    @property
    def records_ingested(self) -> int:
        return sum(c[1] for c in self._backend.counters())

    @property
    def tracked_cells(self) -> int:
        return sum(c[2] for c in self._backend.counters())

    @property
    def shard_cells(self) -> list[int]:
        """Tracked-cell count per shard (partition-balance diagnostics)."""
        return [c[2] for c in self._backend.counters()]

    def shard_index(self, values: Values) -> int:
        """The shard owning an m-layer key (routing is pure)."""
        key = tuple(values)
        idx = self._route_cache.get(key)
        if idx is None:
            idx = stable_shard_index(key, self._backend.n_shards)
        return idx

    def _admit(self, key: Values) -> int:
        """Schema-validate a key the batch path has not routed before, then
        route it and remember both (see :data:`_ROUTE_CACHE_LIMIT`)."""
        self._validate_values(key)
        cache = self._route_cache
        if len(cache) >= _ROUTE_CACHE_LIMIT:
            cache.clear()
        idx = cache[key] = stable_shard_index(key, self._backend.n_shards)
        return idx

    def storage_stats(self) -> dict[str, Any] | None:
        """The cube's tiered-storage picture, or ``None`` without storage.

        Aggregates the per-shard engine counters (pages, rows, bytes on
        disk, spill/fault activity) and names the backend, partition-set
        generation and hot horizon — the ``/stats`` endpoint's ``storage``
        block.
        """
        if self._storage_config is None:
            return None
        per_shard = self._backend.broadcast("storage_stats")
        totals = {
            key: sum(stats[key] for stats in per_shard)
            for key in (
                "pages",
                "rows",
                "bytes_on_disk",
                "puts",
                "gets",
                "hot_cells",
                "cold_slots",
                "pages_spilled",
                "spill_failures",
                "cold_faults",
                "read_retries",
                "write_repairs",
                "quarantined",
            )
        }
        totals.update(
            backend=BACKEND,
            generation=self._storage_generation,
            hot_quarters=self.hot_quarters,
            shards=per_shard,
        )
        return totals

    def compact_storage(self) -> int:
        """Compact every shard's cold store; returns total bytes reclaimed.

        Rewrites file partitions around superseded pages and removes
        partition sets left behind by earlier shard counts — safe here
        because this cube's generation is the newest by construction.
        The periodic-checkpoint path calls this after each WAL truncation,
        so cold storage is groomed on the same cadence as the journal.
        """
        if self._storage_config is None:
            return 0
        freed = sum(self._backend.broadcast("compact_storage"))
        prune_stale_generations(
            self._storage_config, self._storage_generation
        )
        return freed

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, record: StreamRecord) -> None:
        """Ingest one record: :meth:`ingest_batch` of a batch of one."""
        self.ingest_batch([record])

    def ingest_batch(
        self, records: RecordColumns | Iterable[StreamRecord]
    ) -> int:
        """Route a quarter-ordered batch per shard and apply it on each.

        The batch obeys the contract of
        :func:`~repro.stream.engine.validate_batch` — every ``z`` finite,
        quarters non-decreasing, none sealed, the last within the seal
        horizon — checked against the *global* order, and every cell key
        this cube has not routed before is schema-validated, all before the
        journal or any shard is touched: a bad batch mutates nothing (with
        or without a WAL), so a client can fix and resend it, and a
        rejected batch can never poison the log.  Records are converted to
        columns here, at the door; a caller that already holds
        :class:`~repro.stream.records.RecordColumns` (the HTTP edge) passes
        them as they are.  Returns the number of records ingested.
        """
        batch = RecordColumns.of(records)
        if not len(batch):
            return 0
        with self._write_mutex:
            return self._ingest_batch_locked(batch)

    def _ingest_batch_locked(self, batch: RecordColumns) -> int:
        backend = self._backend
        current = self.current_quarter
        quarters = validate_batch(batch, current, self.ticks_per_quarter)
        top = int(quarters[-1])
        grouped = group_segments(
            batch.keys(self.key_fn), batch.ticks, batch.z, quarters
        )
        segments = self._route(grouped)
        if self.wal is not None:
            self.wal.append_batch(batch, top, None if self.key_fn else grouped)
        # Readers are fenced out only while engine state actually changes.
        # A sealing batch (its top quarter passes the cube clock) moves
        # every shard's clock: shards the batch missed are aligned under
        # the same write hold.  Past validation, nothing here can fail: a
        # journaled batch is never answered with an error.
        sealing = top > current
        with self._lock.write():
            backend.map(
                "apply_segments",
                [
                    (shard_segments, _n_records(shard_segments))
                    for shard_segments in segments
                ],
            )
            if sealing:
                self._align(top)
        if sealing:
            self._notify_seal()
        return len(batch)

    def _route(self, batch_segments: list[Segment]) -> list[list[Segment]]:
        """Split a batch's coded segments into one segment list per shard.

        Routing runs once per *distinct* key, through the route cache; a
        key the cache has not seen is schema-validated first
        (:meth:`_admit`), so a batch with an out-of-schema key raises here,
        before the journal or any shard sees it.  The records follow their
        key's group code (:func:`repro.regression.kernels.split_groups`),
        keeping arrival order within every shard and first-seen key order
        — so each shard bears its cells and folds its sums exactly as one
        shard fed the whole batch would.
        """
        n_shards = self._backend.n_shards
        cache = self._route_cache
        routed: list[list[Segment]] = [[] for _ in range(n_shards)]
        for segment in batch_segments:
            keys = segment[1]
            try:
                owners = kernels.int_column(map(cache.get, keys))
            except TypeError:  # a None: some of the keys are new to the cube
                owners = kernels.int_column(
                    [
                        cache[key] if key in cache else self._admit(key)
                        for key in keys
                    ]
                )
            if n_shards == 1:
                routed[0].append(segment)
                continue
            for shard, part in enumerate(_split(segment, owners, n_shards)):
                if part is not None:
                    routed[shard].append(part)
        return routed

    def advance_to(self, t: int) -> None:
        """Seal quiet quarters on every shard (each runs
        :meth:`~repro.stream.engine.StreamCubeEngine.advance_to`)."""
        with self._write_mutex:
            quarter = t // self.ticks_per_quarter
            current = self.current_quarter
            sealing = quarter > current
            if sealing:
                check_seal_horizon(t, quarter, current)
            if self.wal is not None and sealing:
                self.wal.append_advance(t, quarter)
            if sealing:
                with self._lock.write():
                    self._backend.broadcast("advance_to", t)
                self._notify_seal()
            else:
                # Nothing can move (engines ignore a non-advancing t);
                # broadcast outside the lock so the no-op — and any
                # validation error it raises — stays off the read path.
                self._backend.broadcast("advance_to", t)

    def prune_idle(self, idle_quarters: int) -> int:
        """Drop idle cells on every shard; returns the total dropped.

        Each dropped cell is a cell event, so the epoch moves with it."""
        with self._write_mutex, self._lock.write():
            return sum(self._backend.broadcast("prune_idle", idle_quarters))

    def _align(self, quarter: int) -> None:
        """Bring every shard's clock to ``quarter`` (a no-op on shards
        already there)."""
        t = quarter * self.ticks_per_quarter
        self._backend.broadcast("advance_to", t)

    # ------------------------------------------------------------------
    # Seal notifications (continuous queries)
    # ------------------------------------------------------------------
    def add_seal_listener(self, listener) -> None:
        """Register ``listener(quarter)`` to fire after each seal commits.

        The callback runs on the sealing thread *outside* the write side of
        the lock (the fleet is already aligned and readable) but inside the
        write mutex, so calls arrive in seal order with monotone quarters.
        It must not block: signal a worker thread and return.  A raising
        listener is detached rather than allowed to poison ingest.
        """
        with self._write_mutex:
            self._seal_listeners.append(listener)

    def remove_seal_listener(self, listener) -> None:
        """Detach a listener registered by :meth:`add_seal_listener`."""
        with self._write_mutex:
            try:
                self._seal_listeners.remove(listener)
            except ValueError:
                pass

    def _notify_seal(self) -> None:
        if not self._seal_listeners:
            return
        quarter = self.current_quarter
        for listener in list(self._seal_listeners):
            try:
                listener(quarter)
            except Exception:  # noqa: BLE001 - never poison the seal path
                self.remove_seal_listener(listener)

    # ------------------------------------------------------------------
    # Merged analysis (exact, Theorem 3.2 / 3.3)
    # ------------------------------------------------------------------
    def _fanout(self, method: str, *args: Any) -> list:
        """One per-shard read across the fleet: a result per shard.

        Strict mode (the default) is the original behavior: every shard
        must answer or the error propagates.  With :attr:`degraded_reads`
        set, quarantined shards become ``None`` holes and each hole's
        descriptor accumulates for :meth:`consume_degraded` — partial
        results are exact for the shards present, since shards own
        disjoint key sets.  The caller holds the read cut.
        """
        backend = self._backend
        if not self.degraded_reads:
            return backend.broadcast(method, *args)
        results, missing = backend.broadcast_partial(method, *args)
        self.report_degraded(missing)
        return results

    def report_degraded(self, missing: list[dict[str, Any]]) -> None:
        """Add holes to this thread's accumulator, one per shard.  Merged
        reads report what they skipped; the router re-reports the holes
        of a cached partial answer each time it serves one."""
        if not missing:
            return
        holes = self._degraded_holes()
        seen = {entry["shard"] for entry in holes}
        for entry in missing:
            if entry["shard"] not in seen:
                seen.add(entry["shard"])
                holes.append(entry)

    @contextmanager
    def collect_degraded(self) -> Iterator[list[dict[str, Any]]]:
        """Yield a list that ends up holding the holes of the merged reads
        run inside the block; they are also reported to the enclosing
        accumulator as usual."""
        outer = self._degraded_holes()
        inner = self._degraded_local.holes = []
        try:
            yield inner
        finally:
            self._degraded_local.holes = outer
            self.report_degraded(inner)

    def _degraded_holes(self) -> list[dict[str, Any]]:
        holes = getattr(self._degraded_local, "holes", None)
        if holes is None:
            holes = self._degraded_local.holes = []
        return holes

    def consume_degraded(self) -> list[dict[str, Any]]:
        """Drain the holes accumulated by *this thread's* merged reads.

        Each descriptor names the missing shard, its state, why it was
        skipped, and ``last_quarter`` — the staleness bound: data in
        that shard's keys is current only up to that quarter.  Holes are
        tracked per thread, so under concurrent queries each response
        drains exactly the holes its own reads produced.  Empty when every
        read since the last drain was complete.
        """
        drained = self._degraded_holes()
        self._degraded_local.holes = []
        return drained

    def epoch_vector(self) -> tuple[int, int]:
        """The cube's read-consistency version: one lock-free pair.

        ``(cell_events, quarter)`` — the cells born plus the cells pruned
        so far, summed over the shards (each cell lives on one shard, so
        the sum is the same at every width), then the cube's quarter
        clock; ``ETag`` values spell it out.  Any merged answer is a pure
        function of the pair: answers read sealed quarters over the
        tracked cell set, and the set moves only by births and prunes.
        Both counters only move under the write side, so a pair recorded
        inside :meth:`read_lock` names the exact cut an answer was
        computed at, and a cached answer is still valid iff a later
        lock-free read returns the same pair.

        A torn read (counters read one by one while a write moves them)
        can only miss: the counters are monotone and cache lines are
        stored only at consistent cuts, so a torn pair that equals a
        stored one names a cut that was current at some instant during
        the read itself; any other torn pair matches nothing.
        """
        counters = self._backend.counters()
        return (
            self._cell_events_base + sum(c[3] for c in counters),
            max(c[0] for c in counters),
        )

    @contextmanager
    def read_lock(self) -> Iterator[tuple[int, int]]:
        """Hold the merged-read cut; yields its :meth:`epoch_vector`.

        Reentrant per thread, so composite reads (a refresh plus change
        windows, say) share one consistent cut.
        """
        with self._lock.read():
            yield self.epoch_vector()

    def window_isbs(self, t_b: int, t_e: int) -> dict[Values, ISB]:
        """The merged m-layer over an arbitrary sealed window, boxed."""
        return self._boxed((t_b, t_e))

    def m_cells(self, window_quarters: int = 4) -> dict[Values, ISB]:
        """The merged m-layer over the last ``window_quarters`` quarters,
        boxed: ``{values: isb}`` in canonical order, identical for every
        shard count."""
        with self._lock.read():
            return self._boxed(self._recent_window(window_quarters))

    def _boxed(self, window: tuple[int, int]) -> dict[Values, ISB]:
        with self._lock.read():
            held, (isbs,) = self._merged_columns(window)
        return dict(zip(held.keys, isbs.to_isbs()))

    def _recent_window(self, window_quarters: int) -> tuple[int, int]:
        return recent_window_bounds(
            self.current_quarter, self.ticks_per_quarter, window_quarters
        )

    def refresh(self, window_quarters: int = 4) -> CubeResult:
        """A global cube refresh over the merged m-layer.

        The merge is the only cross-shard step: once the m-layer union is
        assembled, m/o-cubing runs on it unchanged — coarser cuboids are
        re-aggregated from the union exactly as they would be from one
        shard's m-layer.  The union goes in as columns under the held plan
        of its cell set.  Another algorithm runs on
        ``m_cells(window_quarters)``.
        """
        with self._lock.read():
            window = self._recent_window(window_quarters)
            held, (isbs,) = self._merged_columns(window)
        return run_cubing(self.layers, PlannedCells(held.plan, isbs), self.policy)

    def _merged_columns(
        self, *windows: tuple[int, int]
    ) -> tuple[_HeldCells, list[kernels.ISBColumns]]:
        """The merged m-layer over each ``(t_b, t_e)`` window as columns in
        canonical key order, and the held cell set they are rows of (the
        caller holds the read cut).  Every merged read goes through here.

        The window bounds are fixed parent-side under the read cut, so every
        shard answers for the *same* windows by construction — even one
        mid-recovery with a lagging clock (it raises for an uncovered
        window instead of answering for an older one).  Each shard answers
        ``(generation, keys, columns)`` per window — rows in its birth
        order.  The held set stands while the per-shard generations stand:
        then the shard columns are concatenated, gathered through its
        canonical permutation and that is all.  When one moved — a birth,
        a prune, a state load, a shard lost to or back from a degraded
        read — it is rebuilt from the shards' keys, never patched.
        """
        held = self._held
        answers = [
            self._fanout("window_columns", t_b, t_e) for t_b, t_e in windows
        ]
        # A shard lost between two fan-outs is a hole in all of them.
        parts = [None if None in shard else shard for shard in zip(*answers)]
        if any(part and len({answer[0] for answer in part}) > 1 for part in parts):
            raise ServiceError("a shard's cell set moved within one read; retry")
        version = tuple(None if part is None else part[0][0] for part in parts)
        stale = held is None or held.version != version
        if stale:
            held = _HeldCells(
                self.layers,
                version,
                [part[0][1] for part in parts if part is not None],
            )
        with self._plan_mu:
            if stale:
                self._held = held
                self.plan_builds += 1
            else:
                self.plan_reuses += 1
        merged = []
        for w, (t_b, t_e) in enumerate(windows):
            answered = [part[w][2] for part in parts if part is not None]
            isbs = (
                kernels.ISBColumns.concat(answered)
                if answered
                else kernels.ISBColumns.over(t_b, t_e, np.zeros(0), np.zeros(0))
            )
            merged.append(isbs.take(held.order))
        return held, merged

    # ------------------------------------------------------------------
    # Durability and elasticity: snapshot / restore / reshard
    # ------------------------------------------------------------------
    def snapshot(
        self, directory: str | Path, extra: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Write a complete cube snapshot into ``directory``; return the
        manifest.

        Layout: one ``shard-<i>-<generation>.json`` engine-state file per
        shard plus a ``manifest.json`` naming them.  The manifest is
        written *last*, through a temp file +
        ``os.replace``, so a crash mid-snapshot leaves the previous
        snapshot fully intact — the generation tag in the shard filenames
        keeps new files from overwriting the ones the old manifest still
        references.  Stale shard files from earlier generations are
        removed after the manifest lands.

        ``extra``, when given, is stored under the manifest's ``"app"`` key
        — the serving CLI records its schema flags there so ``--restore``
        can rebuild an identical service without re-specifying them.

        Holds the write mutex (no mutator can move state mid-snapshot)
        but only the *read* side of the lock — state extraction is a pure
        read, so queries keep flowing while a snapshot is written.
        """
        with self._write_mutex, self._lock.read():
            return self._snapshot_locked(directory, extra)

    def _snapshot_locked(
        self, directory: str | Path, extra: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        wal_seq = self.wal.last_seq if self.wal is not None else 0
        # The generation tag makes each snapshot's shard filenames unique:
        # a counter monotonic across both this cube's snapshots and
        # whatever earlier process wrote into the directory (scanned from
        # the existing filenames), so no snapshot ever overwrites files a
        # live manifest still references — not even after prune_idle (which
        # changes state the other markers cannot see) or a restart.  A
        # crash mid-snapshot therefore always leaves the previous snapshot
        # fully intact.
        on_disk = (
            int(m.group(1))
            for p in target.glob("shard-*-g*.json")
            if (m := re.search(r"-g(\d+)\.json$", p.name))
        )
        self._snapshots_taken = max(
            [self._snapshots_taken, *on_disk], default=0
        ) + 1
        generation = (
            f"q{self.current_quarter}-s{wal_seq}"
            f"-r{self.records_ingested}-g{self._snapshots_taken}"
        )
        n_shards = self._backend.n_shards
        names = [
            f"shard-{i:02d}-{generation}.json" for i in range(n_shards)
        ]
        self._backend.map(
            "snapshot_to_file",
            [(str(target / name),) for name in names],
        )
        manifest: dict[str, Any] = {
            "format": _SNAPSHOT_FORMAT,
            "version": STATE_VERSION,
            "n_shards": n_shards,
            "ticks_per_quarter": self.ticks_per_quarter,
            "current_quarter": self.current_quarter,
            "records_ingested": self.records_ingested,
            "tracked_cells": self.tracked_cells,
            "cell_events": self.epoch_vector()[0],
            "wal_seq": wal_seq,
            "shards": names,
        }
        if self._storage_config is not None:
            # The cold pages themselves live in the storage root, not the
            # snapshot directory; the manifest records how to reopen them.
            manifest["storage"] = {
                "backend": BACKEND,
                "hot_quarters": self.hot_quarters,
                "generation": self._storage_generation,
                "n_shards": n_shards,
            }
        if extra:
            manifest["app"] = dict(extra)
        # Self-checksum (computed over everything else, see payload_checksum)
        # so a bit-flipped or hand-mangled manifest is caught at restore
        # time instead of silently restoring the wrong shard files.
        manifest["checksum"] = payload_checksum(manifest)
        write_atomic(target / _MANIFEST, json.dumps(manifest, indent=1))
        referenced = set(names)
        for stale in target.glob("shard-*.json"):
            if stale.name not in referenced:
                stale.unlink(missing_ok=True)
        return manifest

    @staticmethod
    def read_manifest(directory: str | Path) -> dict[str, Any]:
        """The validated manifest of a snapshot directory.

        Every field a restore reads is checked here, so a malformed
        manifest is a :class:`CodecError` and nothing else: ``n_shards`` a
        positive count naming as many ``shards`` files, ``wal_seq`` and
        ``cell_events`` counts (0 when absent), ``app`` and ``storage``
        objects when present.
        """
        path = Path(directory) / _MANIFEST
        if not path.exists():
            raise CodecError(f"snapshot: no {_MANIFEST} in {directory}")
        payload = decoding("snapshot", lambda: json.loads(path.read_text()))
        check_format("snapshot", payload, _SNAPSHOT_FORMAT, STATE_VERSION)
        # Manifests written before the checksum field are accepted as-is;
        # a present-but-wrong checksum is corruption, not version drift.
        recorded = payload.get("checksum")
        if recorded is not None and recorded != payload_checksum(payload):
            raise CorruptionError(
                f"snapshot: {path} manifest failed its checksum "
                f"(recorded {recorded}, computed "
                f"{payload_checksum(payload)}); the snapshot directory "
                "is corrupt — do not restore from it"
            )
        n_shards = _count(payload, "n_shards", minimum=1)
        names = payload.get("shards")
        if not isinstance(names, list) or not all(
            isinstance(name, str) for name in names
        ):
            raise CodecError(
                f"snapshot: manifest 'shards' is {names!r}, not a list of "
                "file names"
            )
        if len(names) != n_shards:
            raise CodecError(
                f"snapshot: manifest lists {len(names)} shard files for "
                f"{n_shards} shards"
            )
        payload["wal_seq"] = _count(payload, "wal_seq", default=0)
        payload["cell_events"] = _count(payload, "cell_events", default=0)
        for field in ("app", "storage"):
            if not isinstance(payload.get(field, {}), dict):
                raise CodecError(
                    f"snapshot: manifest {field!r} is {payload[field]!r}, "
                    "not an object"
                )
        recorded = payload.get("storage")
        if recorded is not None:
            _count(recorded, "hot_quarters", minimum=1)
            backend = decoding("snapshot", lambda: recorded["backend"])
            if backend != BACKEND:
                raise StorageError(
                    f"snapshot: {path} was taken over {backend!r} cold "
                    f"stores; only {BACKEND!r} stores can be restored"
                )
        return payload

    @classmethod
    def restore(
        cls,
        directory: str | Path,
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None = None,
        n_shards: int | None = None,
        wal: QuarterWAL | None = None,
        storage: StorageConfig | None = None,
        hot_quarters: int | None = None,
    ) -> "ShardedStreamCube":
        """Rebuild a cube from a snapshot directory.

        ``layers`` / ``policy`` / ``key_fn`` are configuration, supplied
        exactly as to the original constructor (cells are re-validated
        against the schema on load).  ``n_shards`` defaults to the
        snapshot's shard count; passing a *different* count re-partitions
        every cell with :func:`stable_shard_index` during the load — online
        resharding is just a restore with a new count.  A snapshot taken
        with tiered storage needs ``storage`` pointing at the same cold
        root (``hot_quarters`` defaults to the snapshot's setting); the
        shard-count change case re-partitions the cold pages on open.
        Follow with ``wal.replay(cube, after_seq=manifest["wal_seq"])`` to
        recover an interrupted run (the serving CLI does this for you).
        """
        target = Path(directory)
        manifest = cls.read_manifest(target)
        if hot_quarters is None and storage is not None:
            recorded = manifest.get("storage")
            if recorded is not None:
                hot_quarters = recorded["hot_quarters"]

        def load(name: str) -> EngineState:
            path = target / name
            if not path.exists():
                raise CodecError(
                    f"snapshot: manifest references missing file {path}"
                )
            payload = decoding(
                "snapshot", lambda: json.loads(path.read_text())
            )
            return engine_state_from_dict(payload)

        return cls._from_states(
            [load(name) for name in manifest["shards"]],
            layers,
            policy,
            key_fn=key_fn,
            n_shards=n_shards,
            wal=wal,
            storage=storage,
            hot_quarters=hot_quarters,
            cell_events=manifest["cell_events"],
        )

    def reshard(self, new_n: int) -> "ShardedStreamCube":
        """A new cube with ``new_n`` shards holding this cube's exact state.

        Every cell's complete streaming state — tilt frame, unsealed
        accumulators, activity marker — is extracted shard by shard and
        re-partitioned with :func:`stable_shard_index` over the new count,
        so the resharded cube's ``window_isbs`` / ``refresh`` / exception
        sets are bit-identical to this cube's and ingestion continues
        seamlessly mid-quarter.  With tiered storage, the new cube reuses
        this cube's storage root: opening it under the new shard count
        re-partitions the cold pages into a fresh generation, so demoted
        history moves with the cells.  This cube is left untouched (close
        it when the cut-over is done); the returned cube shares no mutable
        state with it.
        """
        with self._write_mutex, self._lock.read():
            states = self._backend.broadcast("snapshot")
            cell_events = self.epoch_vector()[0]
        return type(self)._from_states(
            states,
            self.layers,
            self.policy,
            key_fn=self.key_fn,
            n_shards=new_n,
            wal=None,
            storage=self._storage_config,
            hot_quarters=self.hot_quarters,
            cell_events=cell_events,
        )

    @classmethod
    def _from_states(
        cls,
        states: list[EngineState],
        layers: CriticalLayers,
        policy: ExceptionPolicy,
        key_fn: KeyFn | None,
        n_shards: int | None,
        wal: QuarterWAL | None,
        storage: StorageConfig | None = None,
        hot_quarters: int | None = None,
        cell_events: int = 0,
    ) -> "ShardedStreamCube":
        """Build a cube from per-shard engine states, re-partitioning when
        the target shard count differs from ``len(states)``; its epoch
        resumes at ``cell_events``."""
        if not states:
            raise ServiceError("cannot build a cube from zero shard states")
        tpq = states[0].ticks_per_quarter
        quarter = states[0].current_quarter
        for state in states[1:]:
            if (
                state.ticks_per_quarter != tpq
                or state.current_quarter != quarter
            ):
                raise ServiceError(
                    "shard states disagree on ticks_per_quarter / quarter "
                    "clock; snapshot is not from one aligned cube"
                )
            if state.cold_spans != states[0].cold_spans:
                raise ServiceError(
                    "shard states disagree on demoted (cold) spans; "
                    "snapshot is not from one aligned cube"
                )
        target_n = len(states) if n_shards is None else n_shards
        if target_n < 1:
            raise ServiceError(f"n_shards must be >= 1, got {target_n}")
        if target_n != len(states):
            states = _repartition_states(states, target_n)
        cube = cls(
            layers,
            policy,
            n_shards=target_n,
            key_fn=key_fn,
            ticks_per_quarter=tpq,
            frame_levels=states[0].frame_levels,
            wal=wal,
            storage=storage,
            hot_quarters=hot_quarters,
        )
        cube._backend.map("load_state", [(state,) for state in states])
        cube._cell_events_base = cell_events
        return cube

    # ------------------------------------------------------------------
    # Change analysis
    # ------------------------------------------------------------------
    def change_exceptions(self, quarters_apart: int = 1) -> dict[Values, ISB]:
        """Merged m-layer window-over-window change exceptions."""
        return self._changes(quarters_apart, "m")

    def o_layer_change_exceptions(
        self, quarters_apart: int = 1
    ) -> dict[Values, ISB]:
        """O-layer change exceptions over the merged cube."""
        return self._changes(quarters_apart, "o")

    def _changes(self, quarters_apart: int, layer: str) -> dict[Values, ISB]:
        """Both windows merged at the m-layer under one read cut, then
        judged by :func:`~repro.stream.engine.window_change_exceptions` —
        o-layer cells aggregate m-cells that may live on different shards,
        so no per-shard answer could do."""
        with self._lock.read():
            prev_b, cur_b, end = change_window_bounds(
                self.current_quarter, self.ticks_per_quarter, quarters_apart
            )
            held, (prev, cur) = self._merged_columns(
                (prev_b, cur_b - 1), (cur_b, end)
            )
        return window_change_exceptions(
            self.layers, self.policy, held.keys, prev, cur, layer
        )
