"""Seal-driven continuous queries: a subscription registry on the router.

The paper's monitoring story is continuous — an analyst registers "watch
this window / alert me on o-layer exceptions" once and the stream *pushes*
results as quarters seal (the "trigger once every 15 minutes" reading).
This module is that surface:

- A client registers any :class:`~repro.query.spec.QuerySpec` with a
  delivery policy: ``every_seal`` or ``every_k_quarters=K``.  The wire
  shorthand ``{"watch": true}`` (o-layer exception alerts) is rewritten to
  a ``watch_list`` spec in :meth:`SubscriptionRegistry.subscribe_payload`.
- The sealed cube signals the registry via a listener the cube invokes
  right after a seal commits (outside the cube lock's write side).  The
  listener is deliberately trivial — record the quarter, set an event — so
  the seal path can never stall on subscribers.
- A single dispatcher thread wakes on that event and evaluates *due*
  subscriptions through :meth:`QueryRouter.execute_versioned` — the
  versioned cache plus single-flight, so N subscribers to one spec cost
  one execution per seal — and enqueues the result into each subscriber's
  bounded queue (drop-oldest, with a ``dropped`` counter; backpressure
  never reaches the seal path).  Queues hold the shared result object, not
  a per-subscriber copy: its JSON bytes are encoded on the first
  ``/updates`` that reads them and reused by every other subscriber.
- Consumers long-poll :meth:`poll` with their last-seen sequence number;
  delivery order is checkable: per-subscription ``seq`` is strictly
  increasing and each update's epoch vector is componentwise >= its
  predecessor's (the cube's clocks are monotone and every delivered entry
  was validated current at delivery time).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ReproError, ServiceError
from repro.query.exec import QueryResult
from repro.query.spec import Q, QuerySpec, spec_from_dict

__all__ = ["Subscription", "SubscriptionRegistry", "Update", "Updates"]


@dataclass(frozen=True)
class Update:
    """One pushed answer: a small header plus the shared result.

    Every subscriber of one spec at one seal holds the same
    :class:`QueryResult` (the router's cache line), so the answer is
    encoded at most once however many subscribers read it, and not at all
    when none does.
    """

    seq: int
    quarter: int
    epoch: tuple[int, ...]
    result: QueryResult

    def _header(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "quarter": self.quarter,
            "epoch": list(self.epoch),
            "op": self.result.op,
        }

    def to_dict(self) -> dict[str, Any]:
        return {**self._header(), "result": self.result.to_dict()}

    @property
    def wire(self) -> bytes:
        """:meth:`to_dict` as JSON bytes, around the result's own."""
        head = json.dumps(self._header()).encode("utf-8")
        return head[:-1] + b', "result": ' + self.result.wire + b"}"


@dataclass(frozen=True)
class Updates:
    """One long-poll answer: a subscription's fresh updates and counters."""

    subscription: str
    updates: list[Update]
    last_seq: int
    dropped: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "subscription": self.subscription,
            "updates": [update.to_dict() for update in self.updates],
            "last_seq": self.last_seq,
            "dropped": self.dropped,
        }

    @property
    def wire(self) -> bytes:
        """:meth:`to_dict` as JSON bytes, each update around its result's."""
        return (
            b'{"subscription": %s, "updates": [%s], '
            b'"last_seq": %d, "dropped": %d}'
        ) % (
            json.dumps(self.subscription).encode("utf-8"),
            b", ".join(update.wire for update in self.updates),
            self.last_seq,
            self.dropped,
        )


@dataclass
class Subscription:
    """One registered continuous query (internal bookkeeping)."""

    sub_id: str
    spec: QuerySpec
    every_k: int
    queue_limit: int
    created_quarter: int
    seq: int = 0
    dropped: int = 0
    delivered: int = 0
    last_quarter: int = -1
    last_epoch: tuple[int, ...] | None = None
    queue: list[Update] = field(default_factory=list)

    def describe(self) -> dict[str, Any]:
        return {
            "id": self.sub_id,
            "op": self.spec.op,
            "window_quarters": self.spec.window_quarters,
            "every_k_quarters": self.every_k,
            "queue_limit": self.queue_limit,
            "queued": len(self.queue),
            "seq": self.seq,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "last_quarter": self.last_quarter,
        }


def _parse_every_k(payload: Mapping[str, Any]) -> int:
    """The delivery cadence from a wire payload: ``every_seal`` (default)
    or ``every_k_quarters=K``."""
    if "every_k_quarters" in payload:
        if payload.get("every_seal"):
            raise ServiceError(
                "pass either every_seal or every_k_quarters, not both"
            )
        k = payload["every_k_quarters"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ServiceError(
                f"every_k_quarters must be an int >= 1, got {k!r}"
            )
        return k
    every_seal = payload.get("every_seal", True)
    if every_seal is not True:
        raise ServiceError(
            "every_seal must be true when every_k_quarters is absent"
        )
    return 1


class SubscriptionRegistry:
    """Bounded push delivery of query results on each seal.

    Parameters
    ----------
    router:
        The query router updates are evaluated through.  The registry
        attaches itself to ``router.cube`` as a seal listener.
    queue_limit:
        Default per-subscription queue bound.  When a queue is full the
        *oldest* update is dropped (and counted) — a slow consumer loses
        history, never blocks the stream.
    poll_cap:
        Upper bound on any single long-poll wait, seconds.
    """

    def __init__(
        self,
        router: Any,
        queue_limit: int = 16,
        poll_cap: float = 30.0,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.router = router
        self.queue_limit = queue_limit
        self.poll_cap = poll_cap
        self._subs: dict[str, Subscription] = {}
        self._ids = itertools.count(1)
        self._cond = threading.Condition()
        self._wake = threading.Event()
        self._stop = False
        # Written by the seal path (listener), read by the dispatcher.
        # Plain attribute on purpose: the listener must never take a lock
        # the dispatcher (or a poller) could be holding.
        self._sealed_through = -1
        self._dispatched_through = -1
        self.seals_signaled = 0
        self.dispatch_rounds = 0
        self.updates_enqueued = 0
        self.updates_dropped = 0
        self.eval_errors = 0
        self.created = 0
        self._thread = threading.Thread(
            target=self._run, name="subscription-dispatcher", daemon=True
        )
        self._thread.start()
        router.cube.add_seal_listener(self._on_seal)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def subscribe(
        self,
        spec: QuerySpec | Mapping[str, Any],
        *,
        every_k: int = 1,
        queue_limit: int | None = None,
    ) -> str:
        """Register one continuous query; returns its subscription id.

        Subscribers to equal specs share one cache line, hence one
        execution per seal.
        """
        if isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        if every_k < 1:
            raise ServiceError(f"every_k must be >= 1, got {every_k}")
        limit = self.queue_limit if queue_limit is None else queue_limit
        if limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {limit}")
        # Pin the window now so every update of this subscription answers
        # the same question, and validate eagerly so a bad spec fails the
        # subscribe call, not a background dispatch.
        window = self.router._window(spec.window_quarters)
        spec = spec.window(window)
        spec.resolve(self.router.schema)
        with self._cond:
            if self._stop:
                raise ServiceError("subscription registry is closed")
            sub_id = f"sub-{next(self._ids)}"
            self._subs[sub_id] = Subscription(
                sub_id=sub_id,
                spec=spec,
                every_k=every_k,
                queue_limit=limit,
                created_quarter=self.router.cube.current_quarter,
            )
            self.created += 1
        return sub_id

    def subscribe_payload(self, payload: Mapping[str, Any]) -> str:
        """Register from the HTTP wire form.

        ``{"spec": {...}}`` or ``{"watch": true, "window_quarters": W}``,
        plus ``every_seal: true`` / ``every_k_quarters: K`` and an optional
        ``queue_limit``.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("subscribe body must be a JSON object")
        every_k = _parse_every_k(payload)
        queue_limit = payload.get("queue_limit")
        if queue_limit is not None and (
            not isinstance(queue_limit, int)
            or isinstance(queue_limit, bool)
            or queue_limit < 1
        ):
            raise ServiceError(
                f"queue_limit must be an int >= 1, got {queue_limit!r}"
            )
        if payload.get("watch"):
            if "spec" in payload:
                raise ServiceError("pass either spec or watch, not both")
            spec = Q.watch_list(window=payload.get("window_quarters"))
        else:
            spec = payload.get("spec")
            if spec is None:
                raise ServiceError(
                    'subscribe body needs "spec" or "watch": true'
                )
        return self.subscribe(
            spec, every_k=every_k, queue_limit=queue_limit
        )

    def unsubscribe(self, sub_id: str) -> bool:
        """Remove a subscription; wakes its pollers.  False if unknown."""
        with self._cond:
            sub = self._subs.pop(sub_id, None)
            self._cond.notify_all()
        return sub is not None

    def describe_all(self) -> list[dict[str, Any]]:
        with self._cond:
            return [
                self._subs[sub_id].describe()
                for sub_id in sorted(self._subs)
            ]

    # ------------------------------------------------------------------
    # Seal signal (runs on the ingest thread — must never block)
    # ------------------------------------------------------------------
    def _on_seal(self, quarter: int) -> None:
        # Monotone under the cube's write mutex; no registry lock taken.
        self._sealed_through = quarter
        self.seals_signaled += 1
        self._wake.set()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        # Seals are *coalesced*: if several quarters seal while a round is
        # in flight, the next round evaluates once at the newest sealed
        # quarter.  That is the queue's drop-oldest policy applied at the
        # source — a subscriber always converges on the freshest answer,
        # and a seal storm can never build an unbounded dispatch backlog.
        while True:
            self._wake.wait()
            with self._cond:
                if self._stop:
                    return
            self._wake.clear()
            target = self._sealed_through
            if target <= self._dispatched_through:
                continue
            self._dispatch(target)
            self._dispatched_through = max(self._dispatched_through, target)

    def _dispatch(self, quarter: int) -> None:
        """Evaluate every subscription due at ``quarter`` and enqueue."""
        self.dispatch_rounds += 1
        with self._cond:
            due = [
                sub
                for sub in self._subs.values()
                if sub.last_quarter < 0
                or quarter - sub.last_quarter >= sub.every_k
            ]
        for sub in due:
            try:
                cut, result = self.router.execute_versioned(sub.spec)
            except ReproError:
                # Typically: the window is not sealed yet this early in
                # the stream.  The subscription simply isn't due until it
                # can be answered.
                self.eval_errors += 1
                continue
            self._deliver(sub.sub_id, cut, cut[1], result)

    def _deliver(
        self,
        sub_id: str,
        cut: tuple[int, ...],
        quarter: int,
        result: QueryResult,
    ) -> None:
        with self._cond:
            sub = self._subs.get(sub_id)
            if sub is None:  # unsubscribed while we computed
                return
            sub.seq += 1
            sub.delivered += 1
            sub.last_quarter = quarter
            sub.last_epoch = cut
            sub.queue.append(Update(sub.seq, quarter, cut, result))
            while len(sub.queue) > sub.queue_limit:
                sub.queue.pop(0)
                sub.dropped += 1
                self.updates_dropped += 1
            self.updates_enqueued += 1
            self._cond.notify_all()

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until every announced seal has been dispatched (test/
        scenario hook).  True on idle, False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (
                not self._wake.is_set()
                and self._dispatched_through >= self._sealed_through
            ):
                return True
            time.sleep(0.005)
        return False

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def poll(
        self, sub_id: str, since_seq: int = 0, timeout: float = 0.0
    ) -> dict[str, Any]:
        """Updates with ``seq > since_seq``, long-polling up to ``timeout``
        seconds (capped at ``poll_cap``).

        Acknowledged entries (``seq <= since_seq``) are pruned from the
        queue.  Returns ``{"subscription", "updates", "last_seq",
        "dropped"}``; an empty ``updates`` list means the wait timed out.
        """
        return self.updates(sub_id, since_seq, timeout).to_dict()

    def updates(
        self, sub_id: str, since_seq: int = 0, timeout: float = 0.0
    ) -> Updates:
        """:meth:`poll` before rendering: the queued :class:`Update`
        objects themselves, which ``GET /updates`` writes as bytes."""
        deadline = time.monotonic() + max(0.0, min(timeout, self.poll_cap))
        with self._cond:
            while True:
                sub = self._subs.get(sub_id)
                if sub is None:
                    raise ServiceError(f"unknown subscription {sub_id!r}")
                if since_seq:
                    sub.queue = [u for u in sub.queue if u.seq > since_seq]
                fresh = [u for u in sub.queue if u.seq > since_seq]
                remaining = deadline - time.monotonic()
                if fresh or self._stop or remaining <= 0:
                    return Updates(sub_id, fresh, sub.seq, sub.dropped)
                self._cond.wait(remaining)

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._cond:
            queued = sum(len(s.queue) for s in self._subs.values())
            return {
                "active": len(self._subs),
                "created": self.created,
                "queued": queued,
                "queue_limit": self.queue_limit,
                "seals_signaled": self.seals_signaled,
                "dispatch_rounds": self.dispatch_rounds,
                "updates_enqueued": self.updates_enqueued,
                "updates_dropped": self.updates_dropped,
                "eval_errors": self.eval_errors,
            }

    def close(self) -> None:
        """Detach from the cube, stop the dispatcher, wake all pollers."""
        try:
            self.router.cube.remove_seal_listener(self._on_seal)
        except Exception:  # noqa: BLE001 - cube may already be closed
            pass
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._wake.set()
        self._thread.join(timeout=10.0)
