"""The load generator: two sender threads, one keep-alive connection each.

Accounting rules (choosing-metrics guide, section 5):

* an **open-loop** sender works through a schedule of due times and never
  slows down for the server; each request's latency runs **from its due
  time**, so a server stall is charged to every request that fell due
  during it (no coordinated omission), and how late the sender itself ran
  is reported as ``lateness``.  Every batch due inside the window is sent,
  however late (up to a minute past its end, so that a run on a stalled
  host still ends): a server that cannot keep up shows as a backlog, in
  the latencies and in a delivered rate below the offered one, not as
  failed requests;
* the **closed-loop** sender (``ingest_firehose`` only) sends the next
  batch when the previous one is acknowledged — capacity, not latency;
* a query that was on the wire while a quarter sealed is tagged
  ``straddle`` and kept out of the hit / miss / fresh populations.

Nothing is aggregated while the clock runs: senders append raw
:class:`Sample` rows and :func:`summarize` reduces them afterwards.
"""

from __future__ import annotations

import http.client
import json
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from server import Connection
from workloads import Stream, Workload

__all__ = ["LoadPhase", "Sample", "SealEvent", "percentile", "summarize"]

#: Dashboard pulls are offset from the ingest ticks so the two open-loop
#: senders are not phase-locked.
_READER_PHASE_S = 0.037
_READER_PERIOD_S = 0.1
#: An open-loop sender still behind this long after the window stops; what
#: it had not sent is counted as ``unsent`` (reported, not failed).
_DRAIN_LIMIT_S = 60.0
_PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass(slots=True)
class Sample:
    """One request: ``latency`` runs from ``due`` (== ``sent`` when the
    request had no schedule to be late against)."""

    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    tick: int = -1
    seals: bool = False
    #: Sent after the timed window (the unsnapshotted WAL tail a recovery
    #: replays): acknowledged and audited, but in no latency metric.
    tail: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass(slots=True)
class SealEvent:
    """A sealing batch was acknowledged: ``quarter`` quarters are sealed."""

    quarter: int
    due: float
    sent: float
    done: float


def percentile(ordered: list[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summarize(values: list[float]) -> dict[str, Any] | None:
    """Median, sample count, and the highest percentile of the ladder that
    still has at least ten samples beyond it (``tail`` is ``None`` when the
    sample is too small to support any)."""
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for p in _PERCENTILE_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= 10.0:  # 100 - 99.9 is not exactly 0.1
            tail = {"p": p, "value": percentile(ordered, p)}
            break
    return {"p50": statistics.median(ordered), "n": n, "tail": tail}


def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _timed(conn: Connection, method: str, path: str, body: bytes | None) -> tuple[float, float, bool, bytes]:
    sent = time.perf_counter()
    try:
        status, data = conn.request(method, path, body)
    except (OSError, http.client.HTTPException):  # timeout, reset or torn answer: failed, not a crash
        return sent, time.perf_counter(), False, b""
    return sent, time.perf_counter(), status == 200, data


@dataclass
class LoadPhase:
    """Shared state of one load window."""

    workload: Workload
    stream: Stream
    ingest_conn: Connection
    reader_conn: Connection
    seconds: float
    #: The subscription the push reader long-polls (``push`` reader only).
    poll_subscription: str | None = None

    samples: list[Sample] = field(default_factory=list)
    acked_ticks: list[int] = field(default_factory=list)
    seal_events: list[SealEvent] = field(default_factory=list)
    #: (receive time, update dict) for every pushed update the poller got.
    updates: list[tuple[float, dict[str, Any]]] = field(default_factory=list)
    #: Due time of a sealing batch -> its fresh pull answered, in ms.
    fresh_lags_ms: list[float] = field(default_factory=list)
    unsent: int = 0
    errors: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._seal_queue: queue.Queue[SealEvent | None] = queue.Queue()
        self._last_tick = self.stream.prefill_ticks[-1]
        self._misses_sent = 0
        self._last_seq = 0
        self._polling = threading.Event()

    # ------------------------------------------------------------------
    # Load window
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run both senders for ``seconds``; returns when both are done."""
        readers: dict[str, Callable[[], None]] = {
            "dashboard": self._dashboard_reader,
            "deep": self._seal_reader,
            "push": self._poll_updates,
        }
        reader = readers.get(self.workload.reader)
        if self.workload.reader == "push":
            self._polling.set()
        self.t0 = time.perf_counter() + 0.05
        self.t_end = self.t0 + self.seconds
        threads = [threading.Thread(target=self._guard(self._ingest_sender), name="e2e-ingest")]
        if reader is not None:
            threads.append(threading.Thread(target=self._guard(reader), name="e2e-reader"))
        for thread in threads:
            thread.start()
        threads[0].join()
        self._seal_queue.put(None)  # ingest is done: readers drain and stop
        if self._polling.is_set() and self.seal_events:
            self._await_update(self.seal_events[-1].quarter)
        self._polling.clear()
        for thread in threads[1:]:
            thread.join()

    def _guard(self, target: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                target()
            except Exception as exc:  # noqa: BLE001 - surfaced as a failed run
                with self._lock:
                    self.errors.append(f"{threading.current_thread().name}: {exc!r}")

        return run

    def _record(self, sample: Sample) -> None:
        with self._lock:
            self.samples.append(sample)

    def _send_batch(self, tick: int, due: float | None, tail: bool = False) -> Sample:
        """POST one ingest batch; a batch of the load window that crossed a
        quarter boundary publishes a :class:`SealEvent` (and snapshots on
        the durable cadence)."""
        body = self.stream.body(tick)
        if due is not None:
            _sleep_until(due)
        sent, done, ok, _ = _timed(self.ingest_conn, "POST", "/ingest", body)
        seals = self.stream.seals(tick, self._last_tick)
        sample = Sample(
            "seal_ack" if seals else "ingest_ack",
            sent if due is None else due, sent, done, ok, tick, seals, tail,
        )
        self._record(sample)
        if not ok:
            return sample
        self.acked_ticks.append(tick)
        self._last_tick = tick
        if seals and not tail:
            quarter = tick // self.stream.ticks_per_quarter
            event = SealEvent(quarter, sample.due, sent, done)
            self.seal_events.append(event)
            self._seal_queue.put(event)
            every = self.workload.snapshot_every
            if every and quarter % every == 0:
                s_sent, s_done, s_ok, _ = _timed(
                    self.ingest_conn, "POST", "/admin/snapshot", b"{}"
                )
                self._record(Sample("snapshot", s_sent, s_sent, s_done, s_ok))
        return sample

    def _ingest_sender(self) -> None:
        tick_s = self.workload.tick_s
        for i, tick in enumerate(self.stream.load_ticks()):
            if tick_s is None:
                if time.perf_counter() >= self.t_end:
                    return
                self._send_batch(tick, None)
                continue
            due = self.t0 + i * tick_s
            if due >= self.t_end:
                return
            if time.perf_counter() > self.t_end + _DRAIN_LIMIT_S:
                self.unsent = int((self.t_end - due) / tick_s) + 1
                return
            self._send_batch(tick, due)

    def _pull(self, kind: str, due: float) -> Sample:
        """One ``/query`` on the reader connection, timed from ``due``."""
        if kind == "miss":
            spec = self.workload.miss_query(self._misses_sent)
            self._misses_sent += 1
        else:
            spec = self.workload.hit_query
        body = json.dumps(spec).encode()
        _sleep_until(due)
        sent, done, ok, _ = _timed(self.reader_conn, "POST", "/query", body)
        sample = Sample(kind, due, sent, done, ok)
        self._record(sample)
        return sample

    def _fresh_pull(self, event: SealEvent) -> None:
        """The first pull after a seal, sent as soon as the seal is acked."""
        sample = self._pull("fresh", event.done)
        if sample.ok:
            self.fresh_lags_ms.append((sample.done - event.due) * 1000.0)

    def _dashboard_reader(self) -> None:
        """10 pulls/s (every 5th a miss) plus one fresh pull per seal ack.

        A seal event pre-empts the schedule; scheduled pulls that fall due
        while the fresh pull is on the wire are sent late and carry the
        wait, as a single-connection dashboard would see it.
        """
        slot = 0
        ingest_done = False
        while True:
            due: float | None = self.t0 + _READER_PHASE_S + slot * _READER_PERIOD_S
            if due >= self.t_end:
                if ingest_done:
                    return
                due = None
            try:
                event = self._seal_queue.get(
                    timeout=None if due is None else max(0.0, due - time.perf_counter())
                )
            except queue.Empty:
                assert due is not None
                self._pull("miss" if slot % 5 == 4 else "hit", due)
                slot += 1
                continue
            if event is None:
                ingest_done = True
            else:
                self._fresh_pull(event)

    def _seal_reader(self) -> None:
        """One fresh pull per seal ack, nothing else (``durable_deep``)."""
        while (event := self._seal_queue.get()) is not None:
            self._fresh_pull(event)

    def _await_update(self, quarter: int, timeout: float = 10.0) -> bool:
        """Wait until the poller holds an update at or past ``quarter``
        (a coalesced dispatch round skips straight to the newest seal)."""
        deadline = time.perf_counter() + timeout
        while not any(u["quarter"] >= quarter for _, u in self.updates):
            if time.perf_counter() > deadline or self.errors:
                return False
            time.sleep(0.002)
        return True

    def _poll_updates(self) -> None:
        """Long-poll ``poll_subscription`` until told to stop, acking with
        ``since`` so the server prunes what was delivered."""
        while self._polling.is_set():
            path = (
                f"/updates?subscription={self.poll_subscription}"
                f"&since={self._last_seq}&timeout=1"
            )
            _, done, ok, data = _timed(self.reader_conn, "GET", path, None)
            if not ok:
                self.errors.append("long-poll failed")
                return
            for update in json.loads(data)["updates"]:
                self._last_seq = update["seq"]
                self.updates.append((done, update))

    # ------------------------------------------------------------------
    # After the window
    # ------------------------------------------------------------------
    def seal_one_more(self) -> None:
        """Seal one more quarter with a single ``tail`` batch at the next
        boundary (the unsnapshotted WAL tail a recovery replays)."""
        tick = self.stream.next_sealing_tick(self._last_tick)
        if not self._send_batch(tick, None, tail=True).ok:
            raise RuntimeError("tail batch was not acknowledged")
