"""A stdlib JSON/HTTP front end for the sharded stream cube.

``python -m repro serve --shards N --port P`` binds a
:class:`ShardedStreamCube` + :class:`QueryRouter` pair behind a pooled
``socketserver`` listener and an HTTP/1.1 loop of its own.  The wire
format reuses the
:mod:`repro.io` ISB codecs (``{"t_b", "t_e", "base", "slope"}`` objects,
``{"values", "isb"}`` cell rows), so responses round-trip through the same
loaders the checkpoint files use.

Endpoints
---------
``GET  /health``   liveness + shard/quarter/record counters
``GET  /healthz``  liveness probe: always 200 ``{"status": "ok"}``
``GET  /readyz``   readiness probe: always 200 ``{"ready": true, "shards": N}``
                   (in-process shards cannot die)
``GET  /stats``    router cache/batch counters + partition-balance statistics
                   + durability counters (snapshots written, periodic
                   snapshot failures and the last error, WAL seq)
                   + tiered-storage counters (cold pages, bytes on disk,
                   spill/fault activity; ``null`` without ``--storage-dir``)
``POST /ingest``   ``{"records": [{"values": [...], "t": int, "z": float}]}``
``POST /advance``  ``{"t": int}`` — seal quiet quarters
``POST /admin/snapshot``  write a cube snapshot to the configured
                   ``--snapshot-dir`` now; returns the manifest summary
``POST /query``    one query spec (``{"op": "cell" | "slice" | "roll_up" |
                   "drill_down" | "siblings" | "sibling_deviation" |
                   "top_slopes" | "observation_deck" | "watch_list" |
                   "exceptions" | "change_exceptions", ...spec fields}`` —
                   see :mod:`repro.query.spec`), or a batch
                   ``{"queries": [spec, ...]}`` executed against one merged
                   view refresh with per-spec results and errors.
``POST /subscribe``  register a continuous query: ``{"spec": {...}}`` or
                   ``{"watch": true}`` (o-layer exception alerts), with
                   ``every_seal: true`` / ``every_k_quarters: K`` and an
                   optional ``queue_limit``; returns the subscription id
``DELETE /subscribe/{id}``  drop a subscription
``GET  /subscriptions``  the registered subscriptions + delivery counters
``GET  /updates?subscription=ID&since=SEQ[&timeout=S]``  long-poll pushed
                   updates with ``seq > SEQ``; waits up to ``timeout``
                   seconds for a fresh seal before answering empty

Degraded serving: the service turns on the cube's ``degraded_reads`` mode,
so a query that cannot read every shard (quarantined cold pages) still
answers 200 with the readable shards' exact union plus a ``"degraded"``
block naming each missing shard and the staleness bound — never a 500.
The block travels with the answer: a cache hit or a single-flight joiner
of a partial answer carries the same block, and no ``ETag``.

The query path is a pure decode → execute → encode shim over
:meth:`repro.service.router.QueryRouter.execute_versioned`; all validation
lives in the specs, so the Python API and the wire raise identical errors.
Domain errors map to 400 with ``{"error", "type"}``; unknown routes to 404.

Encode once: a :class:`~repro.query.exec.QueryResult` memoizes its JSON
bytes (``wire``), and the router's cache and every subscription queue hold
the result object, so a cache hit or a pushed update is written from the
bytes encoded when that answer was first sent.  One routing table serves
both senders: ``/query`` and ``/updates`` return a :class:`Reply`, which
:meth:`StreamCubeService.handle` renders as a dict and the socket shell as
bytes — a batch from each item's bytes, a ``degraded`` block spliced on as
the last member — byte-equal to ``json.dumps`` of that dict.  Every other
route is ``json.dumps`` of its dict.  A single-spec ``/query`` 200 that is
not degraded carries ``ETag: "<cell_events>.<quarter>-<cache-key
digest>"``, a strong validator naming the cut the answer was computed at
(the same at every shard count); conditional requests are not
interpreted.

Transport: each connection runs one keep-alive loop
(``socketserver.StreamRequestHandler``, ``TCP_NODELAY``).  A request is
its request line, header lines up to the blank line (at most
``MAX_HEADERS`` lines of at most ``MAX_LINE`` bytes, the limits of
``http.client``) and exactly ``Content-Length`` body bytes; only
``Content-Length``, ``Connection``, ``Expect`` and ``Transfer-Encoding``
are read.  HTTP/1.1 keeps the connection open unless the client sends
``Connection: close``; HTTP/1.0 closes it unless the client sends
``Connection: keep-alive``.  ``Expect: 100-continue`` is answered
``100 Continue`` before the body is read.  Every response carries
``Date``, ``Content-Type``, ``Content-Length``, an ``ETag`` when it has
one and ``Connection: close`` when the server closes, and leaves with its
body in one ``sendmsg``.  Every error is a JSON ``{"error", "type"}``
body, the transport's as well as the routes': 400 for a malformed request
or header line, 411 for a ``Transfer-Encoding`` body, 413 for a body over
``MAX_BODY_BYTES`` (refused unread), 414 / 431 for a request line / header
block over the limits, 501 for a method other than GET, POST and DELETE
and 500 for an exception that escapes the routes (logged to stderr) each
close the connection; a bad ``Content-Length`` or JSON body is a 400 that
keeps it.  EOF inside a request closes the connection unanswered.

Concurrency: requests are handled in parallel on a bounded thread pool
(``--request-threads``).  Only the *mutators* — ingest, advance, and the
snapshot admin route — serialize on the service's mutator lock (WAL
appends, snapshot triggers and WAL compaction stay totally ordered);
queries run lock-free against the router's epoch-vector-validated cache,
and the probes (``/health``, ``/healthz``, ``/readyz``, ``/stats``) touch
no lock at all, so they answer promptly even while a heavy ingest batch
is applying.  Shard work runs on the request thread that asked for it (the
shard backend has no threads of its own).  Consistency under this
parallelism lives in the cube's one reader-writer lock and the
router's single-flight cache — see :mod:`repro.service.sharding` and
:mod:`repro.service.router`.
"""

from __future__ import annotations

import gc
import json
import signal
import socket
import socketserver
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from typing import Any, Mapping
from urllib.parse import parse_qsl

from repro.errors import ReproError, ServiceError
from repro.query.exec import BatchItem
from repro.regression import kernels
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube
from repro.service.subscriptions import SubscriptionRegistry
from repro.stream.records import RecordColumns

__all__ = ["Reply", "StreamCubeService", "make_server", "serve"]

#: Largest request body the handler will read; a longer ``Content-Length``
#: is answered 413 without reading it.  (A 2,000-record ingest batch is
#: ~100 KB; this leaves three orders of magnitude of headroom.)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest request or header line, and most header lines, a request may
#: carry: ``http.client``'s own limits (``_MAXLINE``, ``_MAXHEADERS``).
MAX_LINE = 65536
MAX_HEADERS = 100

#: The only request headers the loop keeps: those that frame a request.
_FRAMING_HEADERS = frozenset(
    (b"content-length", b"connection", b"expect", b"transfer-encoding")
)
_METHODS = frozenset(("GET", "POST", "DELETE"))
_STATUS_LINES = {
    status.value: b"HTTP/1.1 %d %s\r\n" % (status.value, status.phrase.encode())
    for status in HTTPStatus
}


def _record_columns(rows: list[Any]) -> RecordColumns:
    """The parsed ``records`` rows of an ``/ingest`` body as columns.

    This is where rows stop: three column extractions and one bulk
    coercion, no per-record object.  The bulk form takes only what needs no
    coercion — ``values`` a list, ``t`` an ``int`` (not a ``bool``), ``z``
    an ``int`` or ``float``; any other batch re-runs row by row through
    ``int()`` / ``float()``, which accepts what those accept (``"7"``,
    ``7.9``, ``true``) and answers the rest with the typed 400 and message
    it always had.  A tick outside int64 is refused by the coercion.
    """
    try:
        values = [row["values"] for row in rows]
        ticks = [row["t"] for row in rows]
        zs = [row["z"] for row in rows]
        plain = (
            set(map(type, values)) <= {list}
            and set(map(type, ticks)) <= {int}
            and set(map(type, zs)) <= {int, float}
        )
    except (KeyError, TypeError):
        plain = False
    try:
        if not plain:
            values, ticks, zs = [], [], []
            for row in rows:
                if not isinstance(row["values"], list):
                    raise ServiceError(
                        "'values' must be a list, got "
                        f"{type(row['values']).__name__}"
                    )
                values.append(row["values"])
                ticks.append(int(row["t"]))
                zs.append(float(row["z"]))
        return RecordColumns(
            list(map(tuple, values)),
            kernels.int_column(ticks),
            kernels.float_column(zs),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"malformed record in batch: {exc}") from exc


def _json(body: Any) -> bytes:
    return json.dumps(body).encode("utf-8")


@dataclass(frozen=True)
class _Batch:
    """A ``{"queries": [...]}`` answer: per-spec results and errors."""

    items: list[BatchItem]

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": len(self.items),
            "results": [item.to_dict() for item in self.items],
        }

    @property
    def wire(self) -> bytes:
        return b'{"count": %d, "results": [%s]}' % (
            len(self.items),
            b", ".join(item.wire for item in self.items),
        )


@dataclass(frozen=True)
class Reply:
    """A ``/query`` or ``/updates`` answer, rendered by whoever sends it.

    ``body`` is a :class:`~repro.query.exec.QueryResult`, a batch of them or
    an :class:`~repro.service.subscriptions.Updates` page: each has
    ``to_dict()`` and ``wire``, the bytes of ``json.dumps(to_dict())``
    built around the results' own memoized encodings.
    :meth:`StreamCubeService.handle` renders :meth:`to_dict`; the socket
    shell writes :attr:`wire` and sends :attr:`etag`.
    """

    body: Any
    degraded: dict[str, Any] | None = None
    #: The epoch vector a single spec's answer is valid at.
    cut: tuple[int, ...] | None = None

    def to_dict(self) -> dict[str, Any]:
        out = self.body.to_dict()
        if self.degraded is not None:
            out["degraded"] = self.degraded
        return out

    @property
    def wire(self) -> bytes:
        data = self.body.wire
        if self.degraded is None:
            return data
        # Spliced in as the last member, where to_dict puts it.
        return data[:-1] + b', "degraded": ' + _json(self.degraded) + b"}"

    @property
    def etag(self) -> str | None:
        """A strong validator of a single spec's complete answer: its
        epoch vector plus a digest of its cache key.  ``None`` for batches,
        updates and degraded answers (the holes the merged reads skipped
        can differ at one vector)."""
        if self.cut is None or self.degraded is not None:
            return None
        cut = ".".join(map(str, self.cut))
        return '"%s-%s"' % (cut, self.body.spec.key_digest)


class StreamCubeService:
    """The transport-free application object behind the HTTP handler.

    Keeping request dispatch off the socket (``handle(method, path,
    payload)`` → ``(status, body)``) makes the whole service unit-testable
    without binding a port; the HTTP handler below is a thin shell.

    Durability configuration (all optional):

    snapshot_dir:
        Where ``POST /admin/snapshot``, the periodic trigger, and the
        graceful-shutdown hook write cube snapshots.  ``None`` disables
        all three.
    snapshot_every_quarters:
        Write a snapshot automatically whenever the quarter clock has
        advanced this many quarters since the last one (checked after each
        ingest/advance; 0 disables the periodic trigger).  Each snapshot
        compacts the cube's WAL through the sequence number the snapshot
        captured.
    app_config:
        Recorded verbatim under the manifest's ``"app"`` key — the serving
        CLI stores its schema flags there so ``--restore`` can rebuild an
        identical service.
    subscription_queue:
        Per-subscription update-queue bound for the continuous-query
        registry (drop-oldest beyond it; ``--subscription-queue`` on the
        serving CLI).
    """

    #: ``(method, path)`` -> ``(handler method name, mutates)``.  Looked up
    #: by name per request, so a handler patched onto the instance serves.
    _ROUTES = {
        ("GET", "/health"): ("health", False),
        ("GET", "/healthz"): ("healthz", False),
        ("GET", "/readyz"): ("readyz", False),
        ("GET", "/stats"): ("stats", False),
        ("GET", "/subscriptions"): ("list_subscriptions", False),
        ("GET", "/updates"): ("updates", False),
        ("POST", "/ingest"): ("ingest", True),
        ("POST", "/advance"): ("advance", True),
        ("POST", "/query"): ("query", False),
        ("POST", "/subscribe"): ("subscribe", False),
        ("POST", "/admin/snapshot"): ("admin_snapshot", True),
    }

    def __init__(
        self,
        cube: ShardedStreamCube,
        router: QueryRouter,
        snapshot_dir: str | Path | None = None,
        snapshot_every_quarters: int = 0,
        app_config: Mapping[str, Any] | None = None,
        subscription_queue: int = 16,
    ) -> None:
        if snapshot_every_quarters < 0:
            raise ServiceError(
                "snapshot_every_quarters must be >= 0, got "
                f"{snapshot_every_quarters}"
            )
        if snapshot_every_quarters and snapshot_dir is None:
            raise ServiceError(
                "snapshot_every_quarters needs a snapshot_dir to write to"
            )
        self.cube = cube
        # The service prefers answering with what it has over refusing:
        # merged reads tolerate lost shards and annotate the response.
        cube.degraded_reads = True
        self.router = router
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.snapshot_every_quarters = snapshot_every_quarters
        self.app_config = dict(app_config) if app_config else None
        self.snapshots_written = 0
        #: Periodic snapshots that failed, and the last such error: the
        #: request that triggered one still answers its normal body.
        self.snapshot_failures = 0
        self.last_snapshot_error: str | None = None
        self._last_snapshot_quarter = cube.current_quarter
        # Serializes the *mutating* routes only (WAL appends, snapshot
        # triggers, WAL compaction happen in one total order); reads and
        # probes never take it.
        self._mutator_lock = threading.Lock()
        self.subscriptions = SubscriptionRegistry(
            router, queue_limit=subscription_queue
        )

    def close(self) -> None:
        """Stop the subscription dispatcher, close the cube and release the
        WAL file handle."""
        self.subscriptions.close()
        self.cube.close()
        if self.cube.wal is not None:
            self.cube.wal.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Route one request; returns ``(http_status, json_body)``.

        The body is a JSON-serializable dict for every route: a
        ``/query`` or ``/updates`` :class:`Reply` is rendered with
        ``to_dict``.  ``json.dumps`` of it is byte-equal to what the
        socket shell writes.
        """
        status, body = self.route(method, path, payload)
        if isinstance(body, Reply):
            return status, body.to_dict()
        return status, body

    def route(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any] | Reply]:
        """Route one request; returns ``(http_status, body)``, where the
        body is a dict, or a :class:`Reply` for ``/query`` and
        ``/updates`` that its sender renders (:meth:`handle` as a dict,
        the socket shell as bytes).

        Query-string parameters (``/updates?subscription=...&since=N``)
        are merged into the payload dict; an explicit payload key wins.
        """
        path, _, query = path.partition("?")
        if query:
            payload = {**dict(parse_qsl(query)), **(payload or {})}
        route = self._ROUTES.get((method, path))
        if route is not None:
            name, mutates = route
            handler = getattr(self, name)
        elif method == "DELETE" and path.startswith("/subscribe/"):
            sub_id = path[len("/subscribe/"):]
            handler, mutates = (lambda _payload: self.unsubscribe(sub_id)), False
        else:
            return 404, {"error": f"no route {method} {path}", "type": "NotFound"}
        try:
            if mutates:
                with self._mutator_lock:
                    body = handler(payload or {})
            else:
                body = handler(payload or {})
            # A handler may pick its own status (an unknown
            # subscription's 404); a body dict is wrapped in 200.
            if isinstance(body, tuple):
                return body
            return 200, body
        except ReproError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}
        except (KeyError, TypeError, ValueError) as exc:
            # Missing / mistyped payload fields that slipped past explicit
            # validation: still the client's fault, never a dead socket.
            return 400, {
                "error": f"malformed request payload: {exc!r}",
                "type": "BadRequest",
            }

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def health(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "status": "ok",
            "shards": self.cube.n_shards,
            "current_quarter": self.cube.current_quarter,
            "records_ingested": self.cube.records_ingested,
            "tracked_cells": self.cube.tracked_cells,
        }

    def healthz(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Always 200 and ``ok``: in-process shards cannot die (a
        quarantined one shows in the answers' ``degraded`` blocks)."""
        return {"status": "ok"}

    def readyz(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Readiness: always ready.  A quarantined shard makes answers
        partial (a ``degraded`` block) without taking the service out of
        rotation."""
        return {"ready": True, "shards": self.cube.n_shards}

    def _degraded_block(self) -> dict[str, Any] | None:
        """The response annotation for a partially-answered query.

        The holes this request's answers carry
        (:meth:`ShardedStreamCube.consume_degraded` — also drains them, so
        holes never leak into an unrelated response): those its merged
        reads skipped, and those of the cached answers and views it was
        served (the router re-reports them).  ``staleness_bound`` is the
        oldest ``last_quarter`` across the missing shards: data owned by
        them is current only up to that quarter.
        """
        missing = self.cube.consume_degraded()
        if not missing:
            return None
        rows = sorted(missing, key=lambda row: row["shard"])
        return {
            "missing": rows,
            "staleness_bound": min(row["last_quarter"] for row in rows),
        }

    def stats(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {
            "router": self.router.stats(),
            "subscriptions": self.subscriptions.stats(),
            "shard_cells": self.cube.shard_cells,
            "ticks_per_quarter": self.cube.ticks_per_quarter,
            "storage": self.cube.storage_stats(),
            "durability": {
                "snapshot_dir": (
                    str(self.snapshot_dir) if self.snapshot_dir else None
                ),
                "snapshot_every_quarters": self.snapshot_every_quarters,
                "snapshots_written": self.snapshots_written,
                "last_snapshot_quarter": self._last_snapshot_quarter,
                "snapshot_failures": self.snapshot_failures,
                "last_snapshot_error": self.last_snapshot_error,
                "wal_seq": (
                    self.cube.wal.last_seq
                    if self.cube.wal is not None
                    else None
                ),
            },
        }

    def ingest(self, payload: dict[str, Any]) -> dict[str, Any]:
        rows = payload.get("records")
        if not isinstance(rows, list):
            raise ServiceError("ingest payload needs a 'records' list")
        count = self.cube.ingest_batch(_record_columns(rows))
        self._maybe_snapshot()
        return {
            "ingested": count,
            "current_quarter": self.cube.current_quarter,
        }

    def advance(self, payload: dict[str, Any]) -> dict[str, Any]:
        try:
            t = int(payload["t"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ServiceError("advance payload needs an integer 't'") from exc
        self.cube.advance_to(t)
        self._maybe_snapshot()
        return {"current_quarter": self.cube.current_quarter}

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def admin_snapshot(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self.write_snapshot()

    def write_snapshot(self) -> dict[str, Any]:
        """Snapshot the cube to ``snapshot_dir`` and compact the WAL.

        The WAL is truncated through the sequence number the snapshot
        captured — everything at or below it is durable in the snapshot,
        so the active segment is sealed and every covered segment
        unlinked, leaving a fresh, empty active segment.  Callers hold
        the mutator lock (the HTTP route) or own the service exclusively
        (the shutdown hook), so no ingest can land between the snapshot
        and the truncation; the cube's own write mutex + read lock give
        the snapshot its quiescent cut, with queries still flowing.
        """
        if self.snapshot_dir is None:
            raise ServiceError(
                "no snapshot directory configured (serve with --snapshot-dir)"
            )
        manifest = self.cube.snapshot(self.snapshot_dir, extra=self.app_config)
        if self.cube.wal is not None:
            self.cube.wal.truncate_through(manifest["wal_seq"])
        # Groom cold storage on the checkpoint cadence: superseded page
        # versions and stale partition generations go when the journal does.
        self.cube.compact_storage()
        self.snapshots_written += 1
        self._last_snapshot_quarter = self.cube.current_quarter
        return {
            "path": str(self.snapshot_dir),
            "shards": manifest["n_shards"],
            "current_quarter": manifest["current_quarter"],
            "tracked_cells": manifest["tracked_cells"],
            "records_ingested": manifest["records_ingested"],
            "wal_seq": manifest["wal_seq"],
        }

    def _maybe_snapshot(self) -> None:
        """The periodic trigger: snapshot when K quarters sealed since the
        last one (runs under the service lock, after ingest/advance).

        The request that fires it is already applied and journaled, so a
        failed snapshot must not turn its answer into an error: a client
        that resent the batch would apply it twice.  The failure is
        counted in ``/stats`` instead, and because the last snapshot
        quarter does not move, the next mutating request tries again.
        """
        if self.snapshot_dir is None or not self.snapshot_every_quarters:
            return
        elapsed = self.cube.current_quarter - self._last_snapshot_quarter
        if elapsed >= self.snapshot_every_quarters:
            try:
                self.write_snapshot()
            except ReproError as exc:
                self.snapshot_failures += 1
                self.last_snapshot_error = f"{type(exc).__name__}: {exc}"

    def query(self, payload: dict[str, Any]) -> Reply:
        # Batch form: N specs, one merged view refresh per window/epoch,
        # per-spec results *and* errors.
        if "queries" in payload:
            entries = payload["queries"]
            if not isinstance(entries, list):
                raise ServiceError("'queries' must be a list of query specs")
            batch = _Batch(self.router.execute_batch(entries))
            return Reply(batch, self._degraded_block())

        # Everything else is one spec: decode -> execute; the sender
        # encodes (or reuses the cache line's bytes).
        cut, result = self.router.execute_versioned(payload)
        return Reply(result, self._degraded_block(), cut)

    # ------------------------------------------------------------------
    # Continuous queries (subscription push)
    # ------------------------------------------------------------------
    def subscribe(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Register a continuous query; delivery starts at the next seal."""
        sub_id = self.subscriptions.subscribe_payload(payload)
        return {"subscription": sub_id}

    def unsubscribe(
        self, sub_id: str
    ) -> dict[str, Any] | tuple[int, dict[str, Any]]:
        if not self.subscriptions.unsubscribe(sub_id):
            return 404, {
                "error": f"unknown subscription {sub_id!r}",
                "type": "NotFound",
            }
        return {"removed": sub_id}

    def list_subscriptions(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"subscriptions": self.subscriptions.describe_all()}

    def updates(self, payload: dict[str, Any]) -> Reply:
        """Long-poll one subscription's queue.

        Runs without the mutator lock (and without any cube lock): the
        wait is on the registry's own condition, so a parked long-poll
        never delays ingest, sealing, or other requests beyond occupying
        one pool thread.
        """
        sub_id = payload.get("subscription")
        if not sub_id:
            raise ServiceError(
                "updates needs a ?subscription=ID query parameter"
            )
        since = int(payload.get("since", 0))
        timeout = float(payload.get("timeout", 0.0))
        return Reply(self.subscriptions.updates(str(sub_id), since, timeout))


class _Handler(socketserver.StreamRequestHandler):
    """The HTTP/1.1 keep-alive loop around a :class:`StreamCubeService`.

    One request at a time per connection: the request line, then header
    lines up to the blank line, keeping only the four headers framing
    needs, then exactly ``Content-Length`` body bytes.  Every answer is a
    JSON body, errors included, and leaves in one send.
    """

    service: StreamCubeService  # injected by make_server
    server: "_PooledHTTPServer"
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the client went away mid-exchange: nobody to answer

    def _serve_one(self) -> bool:
        """Read and answer one request; ``False`` ends the connection."""
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False  # EOF between requests
        if len(line) > MAX_LINE:
            return self._refuse(
                414, "URITooLong", f"request line over {MAX_LINE} bytes"
            )
        parts = line.split()
        if not parts:
            return True  # a stray blank line between requests (RFC 9112 2.2)
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
            return self._refuse(
                400, "BadRequest", f"malformed request line {line[:200]!r}"
            )
        method, target = parts[0].decode("latin-1"), parts[1].decode("latin-1")
        http10 = parts[2] == b"HTTP/1.0"

        fields: dict[bytes, bytes] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE + 1)
            if not line:
                return False  # EOF inside the header block
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > MAX_LINE:
                return self._refuse(
                    431,
                    "RequestHeaderFieldsTooLarge",
                    f"header line over {MAX_LINE} bytes",
                )
            name, colon, value = line.partition(b":")
            if not colon:
                return self._refuse(
                    400, "BadRequest", f"malformed header line {line[:200]!r}"
                )
            name = name.strip().lower()
            if name in _FRAMING_HEADERS:
                fields.setdefault(name, value.strip())
        else:
            return self._refuse(
                431,
                "RequestHeaderFieldsTooLarge",
                f"more than {MAX_HEADERS} header lines",
            )

        tokens = {
            token.strip()
            for token in fields.get(b"connection", b"").lower().split(b",")
        }
        keep = b"keep-alive" in tokens if http10 else b"close" not in tokens
        if b"transfer-encoding" in fields:
            # No delimited body: whatever follows cannot be framed.
            return self._refuse(
                411,
                "LengthRequired",
                "Transfer-Encoding "
                f"{fields[b'transfer-encoding'].decode('latin-1')!r} is not "
                "supported: send the body with a Content-Length",
            )
        if method not in _METHODS:
            return self._refuse(
                501, "NotImplemented", f"unsupported method {method!r}"
            )
        header = fields.get(b"content-length", b"0").decode("latin-1")
        try:
            length = int(header)
            if length < 0:
                raise ValueError(header)
        except ValueError:
            # No usable length means no delimited body: nothing is read,
            # so the connection stays in step for the next request.
            return self._error(
                400, "BadRequest", f"invalid Content-Length {header!r}", keep
            )
        if length > MAX_BODY_BYTES:
            # Refused unread; the unread body makes the stream unusable.
            return self._refuse(
                413,
                "PayloadTooLarge",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        if (
            length
            and not http10
            and fields.get(b"expect", b"").lower() == b"100-continue"
        ):
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        if len(raw) < length:
            return False  # EOF inside the body: nothing to answer

        payload = None
        if method == "POST":
            try:
                payload = json.loads(raw or b"{}")
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, UnicodeDecodeError (bytes that are not
                # UTF-8) and the decoder's nesting limit alike.
                return self._error(
                    400, "BadRequest", f"invalid JSON body: {exc}", keep
                )
            if not isinstance(payload, dict):
                return self._error(
                    400, "BadRequest", "JSON body must be an object", keep
                )
        try:
            status, body = self.service.route(method, target, payload)
            if isinstance(body, Reply):
                data, etag = body.wire, body.etag
            else:
                data, etag = _json(body), None
        except Exception as exc:  # noqa: BLE001 - the connection's boundary
            print(
                f"{method} {target} failed:\n{traceback.format_exc()}",
                end="",
                file=sys.stderr,
            )
            return self._refuse(
                500, "InternalServerError", f"{type(exc).__name__}: {exc}"
            )
        self._send(status, data, etag, keep)
        return keep

    def _error(self, status: int, kind: str, message: str, keep: bool) -> bool:
        """Answer a typed error; the connection lives on if ``keep``."""
        self._send(status, _json({"error": message, "type": kind}), None, keep)
        return keep

    def _refuse(self, status: int, kind: str, message: str) -> bool:
        """Answer a typed error and end the connection."""
        return self._error(status, kind, message, keep=False)

    def _send(
        self, status: int, data: bytes, etag: str | None, keep: bool
    ) -> None:
        """Send one response as ONE send: status line, headers and body.

        Two sends would put two segments on the wire, and a response that
        trails its own headers waits on the client's delayed ACK (~40 ms)
        wherever Nagle is on.  ``sendmsg`` gathers both buffers, so a
        cached answer's bytes are not copied to prepend its headers.
        """
        head = b"".join((
            _STATUS_LINES[status],
            self.server.date_line(),
            b"Content-Type: application/json\r\n",
            b"Content-Length: %d\r\n" % len(data),
            b"" if etag is None else b"ETag: %s\r\n" % etag.encode("ascii"),
            b"\r\n" if keep else b"Connection: close\r\n\r\n",
        ))
        sent = self.request.sendmsg([head, data])
        if sent < len(head) + len(data):  # a short send: finish the rest
            self.request.sendall((head + data)[sent:])


class _PooledHTTPServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server with a *bounded* worker pool.

    ``ThreadingTCPServer`` spawns one thread per connection, which under
    a query storm means unbounded threads all contending for the cube's
    read lock.  This subclass routes each accepted connection to a
    fixed-size :class:`ThreadPoolExecutor` instead: up to
    ``request_threads`` connections are served concurrently (cache hits
    in parallel, reads sharing the read lock) and the rest queue at the
    accept backlog — backpressure instead of thread explosion.

    The server keeps its open connections, so that closing it ends the
    keep-alive ones a client leaves idle (see :meth:`server_close`).
    """

    allow_reuse_address = True

    def __init__(
        self,
        server_address: tuple[str, int],
        handler_class: type[_Handler],
        request_threads: int = 8,
    ) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(request_threads)),
            thread_name_prefix="repro-http",
        )
        self._date = (0, b"")
        self._open: set[socket.socket] = set()
        self._open_mu = threading.Lock()
        super().__init__(server_address, handler_class)

    def date_line(self) -> bytes:
        """The ``Date`` header line, formatted at most once a second."""
        now = int(time.time())
        stamp, line = self._date
        if stamp != now:
            line = b"Date: %s\r\n" % formatdate(now, usegmt=True).encode()
            self._date = (now, line)
        return line

    def process_request(self, request: Any, client_address: Any) -> None:
        # ThreadingMixIn would start a fresh thread here; reuse the pool.
        with self._open_mu:
            self._open.add(request)
        self._pool.submit(self._connection, request, client_address)

    def _connection(self, request: Any, client_address: Any) -> None:
        try:
            self.process_request_thread(request, client_address)
        finally:
            with self._open_mu:
                self._open.discard(request)

    def server_close(self) -> None:
        """Stop listening, end idle connections, then drain.

        Every open connection's read side is shut, so a handler waiting
        for a keep-alive client's next request reads EOF and ends; a
        request whose body has been read still gets its answer.  Then every
        submitted connection finishes before close returns.
        """
        super().server_close()
        with self._open_mu:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # already gone
        self._pool.shutdown(wait=True)


def make_server(
    service: StreamCubeService,
    host: str = "127.0.0.1",
    port: int = 8000,
    request_threads: int = 8,
) -> socketserver.TCPServer:
    """A bound (not yet serving) pooled HTTP server for the service."""
    handler = type("ReproHandler", (_Handler,), {"service": service})
    return _PooledHTTPServer((host, port), handler, request_threads)


def serve(
    service: StreamCubeService,
    host: str = "127.0.0.1",
    port: int = 8000,
    request_threads: int = 8,
) -> None:
    """Serve until SIGTERM / SIGINT (Ctrl-C), then shut down gracefully.

    The serving loop runs on a background thread while the main thread
    waits for a stop signal; on SIGTERM/SIGINT the listener stops
    accepting, idle keep-alive connections end, in-flight requests drain
    (``server_close`` joins the request threads), and — when the service
    has a ``snapshot_dir`` — a final snapshot is written so a clean
    shutdown is always restorable from disk, WAL already compacted.
    """
    server = make_server(service, host, port, request_threads)
    address = f"http://{server.server_address[0]}:{server.server_address[1]}"
    print(
        f"repro stream-cube service on {address} "
        f"({service.cube.n_shards} shards, "
        f"{request_threads} request threads)"
    )
    stop = threading.Event()
    previous: list[tuple[signal.Signals, Any]] = []
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous.append(
                (sig, signal.signal(sig, lambda *_: stop.set()))
            )
    except ValueError:  # pragma: no cover - not the main thread (tests)
        pass
    # Free the startup garbage cycles, then move everything that survived
    # import and the service build out of the collector's reach: a full
    # collection no longer walks ~28k import-time objects on every pass.
    gc.collect()
    gc.freeze()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    finally:
        print("shutting down: draining in-flight requests")
        server.shutdown()
        thread.join()
        server.server_close()  # joins request threads: the drain
        try:
            if service.snapshot_dir is not None:
                summary = service.write_snapshot()
                print(
                    f"final snapshot: {summary['path']} "
                    f"(quarter {summary['current_quarter']}, "
                    f"{summary['tracked_cells']} cells)"
                )
        except (ReproError, OSError) as exc:  # pragma: no cover - disk trouble
            print(f"final snapshot failed: {exc}", file=sys.stderr)
        finally:
            service.close()
            for sig, handler in previous:
                signal.signal(sig, handler)
