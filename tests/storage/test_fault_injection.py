"""The cold store under injected faults: retry, repair, quarantine.

The ladder: a transient read fault is retried away, a transient write
fault is rolled back and retried, and persistent corruption (a bit
flipped *before* the bytes hit disk) ends in quarantine plus a typed
:class:`CorruptionError` that names the rebuild path.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.errors import CorruptionError, StorageError
from repro.storage import FileColdStore

from tests.storage.test_stores import page


@pytest.fixture(autouse=True)
def disarm():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def store(tmp_path):
    return FileColdStore(tmp_path / "store")


def arm(site, kind, **kwargs):
    faults.install(
        {"seed": 13, "rules": [{"site": site, "kind": kind, **kwargs}]}
    )


class TestReadFaults:
    def test_transient_eio_is_retried(self, store):
        store.put_segment(page())
        arm("store.read", "eio", count=1)
        assert store.get_segment(0, 0, 3) == page()
        assert store.stats().read_retries == 1
        assert store.stats().quarantined == 0

    def test_transient_bitflip_is_retried(self, store):
        store.put_segment(page())
        arm("store.read", "bitflip", count=1)
        assert store.get_segment(0, 0, 3) == page()
        assert store.stats().read_retries == 1

    def test_persistent_failure_quarantines(self, store):
        store.put_segment(page())
        arm("store.read", "eio", count=0)  # unlimited: retry fails too
        with pytest.raises(CorruptionError, match="quarantined"):
            store.get_segment(0, 0, 3)
        faults.clear()
        # The poisoned page is gone: a healthy re-read cannot resurrect
        # it; recovery is an idempotent re-put (snapshot + WAL replay).
        with pytest.raises(StorageError, match="no page"):
            store.get_segment(0, 0, 3)
        assert store.stats().quarantined == 1
        store.put_segment(page())
        assert store.get_segment(0, 0, 3) == page()

    def test_quarantine_error_names_the_rebuild_path(self, store):
        store.put_segment(page())
        arm("store.read", "eio", count=0)
        with pytest.raises(CorruptionError, match="snapshot \\+ WAL replay"):
            store.get_segment(0, 0, 3)


class TestWriteFaults:
    def test_transient_eio_write_is_repaired(self, store):
        arm("store.write", "eio", count=1)
        store.put_segment(page())
        assert store.stats().write_repairs == 1
        faults.clear()
        assert store.get_segment(0, 0, 3) == page()

    def test_torn_write_is_rolled_back_and_retried(self, store):
        store.put_segment(page(0, 0, 3))
        arm("store.write", "torn", count=1)
        store.put_segment(page(0, 4, 7))
        faults.clear()
        # Both the pre-existing and the repaired page read back clean.
        assert store.get_segment(0, 0, 3) == page(0, 0, 3)
        assert store.get_segment(0, 4, 7) == page(0, 4, 7)
        assert store.stats().write_repairs == 1

    def test_write_bitflip_is_caught_at_read_time(self, store):
        """Silent on-disk corruption: the write succeeds, the checksum
        catches it on first read, and quarantine makes re-put possible."""
        arm("store.write", "bitflip", count=1)
        store.put_segment(page())
        faults.clear()
        with pytest.raises(CorruptionError, match="quarantined"):
            store.get_segment(0, 0, 3)
        store.put_segment(page())  # the rebuild path: idempotent re-put
        assert store.get_segment(0, 0, 3) == page()

    def test_double_write_failure_raises_storage_error(self, store):
        arm("store.write", "eio", count=2)
        # "even after rollback", naming the first and final error.
        with pytest.raises(StorageError, match="even after"):
            store.put_segment(page())

    def test_double_torn_write_leaves_no_partial_bytes(self, store):
        store.put_segment(page(0, 0, 3))
        (path,) = store.root.glob("L*.seg")
        size = path.stat().st_size
        arm("store.write", "torn", count=2)
        with pytest.raises(StorageError, match="even after"):
            store.put_segment(page(0, 4, 7))
        faults.clear()
        assert path.stat().st_size == size
        assert FileColdStore(store.root).scan() == [(0, 0, 3)]


class TestLatency:
    def test_latency_rule_neither_raises_nor_corrupts(self, store):
        arm("*", "latency", count=0, seconds=0.0)
        store.put_segment(page())
        assert store.get_segment(0, 0, 3) == page()
