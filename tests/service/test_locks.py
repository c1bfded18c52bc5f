"""RWLock edge cases: vanished-waiter safety net, bounded reader turns."""

from __future__ import annotations

import threading
import time

from repro.service.locks import RWLock


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


class TestVanishedWaiterSafetyNet:
    def test_orphaned_turns_do_not_wedge_writers(self):
        # A releasing writer grants one admission turn per waiting
        # reader.  If a granted turn's reader vanishes (interrupted
        # mid-wait, e.g. the thread was killed), the turn would block
        # every future writer forever without the safety net that
        # clears turns no waiting reader is left to consume.
        lock = RWLock()
        with lock._cond:
            lock._reader_turns = 3  # orphaned turns, nobody waiting
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert acquired.wait(5.0), "writer wedged behind orphaned turns"
        thread.join(5.0)
        assert lock._reader_turns == 0

    def test_safety_net_spares_live_waiters(self):
        # The net only fires when *no* reader is waiting: with a live
        # waiter present the writer must keep waiting for the turn to
        # be consumed, not confiscate it.
        lock = RWLock()
        lock.acquire_write()
        reader_in = threading.Event()
        release_reader = threading.Event()

        def reader():
            lock.acquire_read()
            reader_in.set()
            release_reader.wait(10.0)
            lock.release_read()

        reader_thread = threading.Thread(target=reader, daemon=True)
        reader_thread.start()
        assert _wait_until(lambda: lock._readers_waiting == 1)
        lock.release_write()  # grants the waiting reader one turn

        writer_in = threading.Event()

        def writer():
            lock.acquire_write()
            writer_in.set()
            lock.release_write()

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        assert reader_in.wait(5.0), "live waiter lost its granted turn"
        assert not writer_in.is_set() or lock._readers == 0
        release_reader.set()
        assert writer_in.wait(5.0)
        reader_thread.join(5.0)
        writer_thread.join(5.0)


class TestBoundedReaderTurns:
    def test_turns_granted_from_live_waiting_count_and_drained(self):
        # Turns come from the waiting count at release time — a bounded
        # batch, not an open-ended reader phase — and are fully consumed
        # by the admitted readers, so the next writer waits on at most
        # that batch.
        lock = RWLock()
        lock.acquire_write()
        release_readers = threading.Event()
        admitted = []
        mu = threading.Lock()

        def reader(i):
            lock.acquire_read()
            with mu:
                admitted.append(i)
            release_readers.wait(10.0)
            lock.release_read()

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        assert _wait_until(lambda: lock._readers_waiting == 3)
        lock.release_write()
        assert _wait_until(lambda: len(admitted) == 3)
        # Every granted turn was consumed by an admitted reader.
        assert lock._reader_turns == 0

        # A writer arriving now waits only on this bounded batch; once
        # the batch drains it enters with no leftover turns in its way.
        writer_in = threading.Event()

        def writer():
            lock.acquire_write()
            writer_in.set()
            lock.release_write()

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        assert _wait_until(lambda: lock._writers_waiting == 1)
        assert not writer_in.is_set()
        release_readers.set()
        assert writer_in.wait(5.0)
        for thread in threads:
            thread.join(5.0)
        writer_thread.join(5.0)

    def test_waiting_writer_blocks_new_readers(self):
        # Write preference: while a writer waits, a fresh reader may not
        # slip past it (a continuous read stream cannot starve sealing).
        lock = RWLock()
        lock.acquire_read()
        writer_in = threading.Event()

        def writer():
            lock.acquire_write()
            writer_in.set()
            lock.release_write()

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        assert _wait_until(lambda: lock._writers_waiting == 1)

        late_reader_in = threading.Event()

        def late_reader():
            lock.acquire_read()
            late_reader_in.set()
            lock.release_read()

        reader_thread = threading.Thread(target=late_reader, daemon=True)
        reader_thread.start()
        time.sleep(0.05)
        assert not late_reader_in.is_set(), "reader jumped a waiting writer"
        lock.release_read()
        assert writer_in.wait(5.0)
        assert late_reader_in.wait(5.0)
        writer_thread.join(5.0)
        reader_thread.join(5.0)


class TestReentrantRead:
    def test_read_is_reentrant_per_thread(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                assert lock._readers == 1
            assert lock._readers == 1
        assert lock._readers == 0

    def test_nested_read_does_not_queue_behind_a_waiting_writer(self):
        # A waiting writer blocks *new* readers; a nested read on a thread
        # that already holds the read side must not count as one, or the
        # thread would wait on a writer that waits on it.
        lock = RWLock()
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()

        with lock.read():
            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            assert _wait_until(lambda: lock._writers_waiting == 1)
            with lock.read():
                assert lock._readers == 1
            assert not writer_in.is_set()
        assert writer_in.wait(5.0)
        thread.join(5.0)
