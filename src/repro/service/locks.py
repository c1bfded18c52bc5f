"""Reader-writer locking for the concurrent query path.

The sharded cube's consistency discipline (see
:class:`~repro.service.sharding.ShardedStreamCube`) is one
:class:`RWLock`: every merged read holds its read side, every mutation
of engine state its write side.  The lock is phase-fair: a waiting
writer blocks *new* readers (a stream of merged reads cannot starve
ingest), and a releasing writer admits the readers that were waiting on
it before the next writer may enter (a hot ingest loop cannot starve
queries — without the reader turn, a tight writer loop re-acquires
before any waiting reader is scheduled, and reads stall for the writer
stream's whole lifetime).

Read acquisition through :meth:`RWLock.read` is *reentrant per thread*
(a thread-local depth counter), so a merged read that calls another
merged read (``m_cells`` builds on the boxed window read) does not
self-deadlock or release early.  Writers are never reentrant — mutators
are already serialized by the cube's write mutex, so at most one thread
holds the write side at a time and it never nests it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["RWLock"]


class RWLock:
    """A phase-fair reader-writer lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Fairness runs both ways:

    * a *waiting* writer blocks new readers (write preference), so
      sealing ingest cannot starve behind a continuous stream of merged
      reads;
    * a *releasing* writer grants one admission turn per reader then
      waiting on it, and the next writer may not enter until those turns
      are consumed (reader turn).  Without this, a back-to-back writer
      stream — exactly what a hot ingest loop is — re-acquires before
      any waiting reader gets scheduled, and under the GIL that is not a
      tail latency but a full stall.

    Turns are granted from the live waiting count at each release, so
    every waiting reader is admitted after finitely many writer rounds
    and every writer waits on at most one bounded reader batch.  The raw
    ``acquire_*`` / ``release_*`` calls are not reentrant; :meth:`read`
    is, per thread, and :meth:`write` is the write side as a context.
    """

    __slots__ = (
        "_cond",
        "_readers",
        "_writer",
        "_writers_waiting",
        "_readers_waiting",
        "_reader_turns",
        "_local",
    )

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._readers_waiting = 0
        self._reader_turns = 0
        self._local = threading.local()

    def acquire_read(self) -> None:
        with self._cond:
            if not (
                self._writer or self._writers_waiting or self._reader_turns
            ):
                self._readers += 1
                return
            self._readers_waiting += 1
            try:
                while True:
                    if not self._writer and self._reader_turns:
                        self._reader_turns -= 1
                        break
                    if not (
                        self._writer
                        or self._writers_waiting
                        or self._reader_turns
                    ):
                        break
                    self._cond.wait()
            finally:
                self._readers_waiting -= 1
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers or self._reader_turns:
                    if self._reader_turns and not self._readers_waiting:
                        # Safety net: a granted turn whose reader vanished
                        # (interrupted mid-wait) must not wedge writers.
                        self._reader_turns = 0
                        continue
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            if self._readers_waiting:
                self._reader_turns = self._readers_waiting
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the read side; nested calls on the same thread are free."""
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            self.acquire_read()
        self._local.depth = depth + 1
        try:
            yield
        finally:
            self._local.depth = depth
            if depth == 0:
                self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the write side (mutators, which never nest it)."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
