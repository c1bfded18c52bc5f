"""The cold store against its contract, plus the shard layout.

Durability quirks of append-only segments (torn tails) get their own
tests.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.errors import CorruptionError, StorageError
from repro.storage import (
    ColdPage,
    FileColdStore,
    StorageConfig,
    open_shard_stores,
    prune_stale_generations,
    shard_store_path,
)


def page(level=0, t_b=0, t_e=3, rows=((0, 0), (1, 1)), bump=0.0) -> ColdPage:
    keys = [tuple(k) for k in rows]
    return ColdPage(
        level,
        t_b,
        t_e,
        keys,
        [float(i) + bump for i in range(len(keys))],
        [0.5 * i - bump for i in range(len(keys))],
        zero_base=1.5,
        zero_slope=-0.25,
    )


@pytest.fixture
def store(tmp_path):
    return FileColdStore(tmp_path / "store")


class TestContract:
    def test_put_get_round_trip(self, store):
        p = page()
        store.put_segment(p)
        assert store.get_segment(0, 0, 3) == p

    def test_missing_key_is_an_error_not_empty(self, store):
        store.put_segment(page())
        with pytest.raises(StorageError, match="no page"):
            store.get_segment(0, 4, 7)

    def test_reput_is_idempotent_latest_wins(self, store):
        store.put_segment(page(bump=0.0))
        store.put_segment(page(bump=7.0))  # crash-recovery re-derivation
        got = store.get_segment(0, 0, 3)
        assert got == page(bump=7.0)
        assert store.stats().pages == 1

    def test_scan_is_sorted(self, store):
        for level, t_b in ((1, 16), (0, 4), (0, 0), (2, 0)):
            store.put_segment(page(level, t_b, t_b + 3))
        assert store.scan() == [(0, 0, 3), (0, 4, 7), (1, 16, 19), (2, 0, 3)]

    def test_stats_counters(self, store):
        assert store.stats().pages == 0
        store.put_segment(page(0, 0, 3))
        store.put_segment(page(0, 4, 7, rows=((2, 2),)))
        store.get_segment(0, 0, 3)
        stats = store.stats()
        assert stats.to_dict()["backend"] == "file"
        assert stats.pages == 2
        assert stats.rows == 3
        assert stats.puts == 2
        assert stats.gets == 1
        assert stats.bytes_on_disk > 0
        assert stats.to_dict()["pages"] == 2

    def test_persistence_across_reopen(self, store, tmp_path):
        p = page(1, 8, 11)
        store.put_segment(p)
        reopened = FileColdStore(tmp_path / "store")
        assert reopened.scan() == [(1, 8, 11)]
        assert reopened.get_segment(1, 8, 11) == p
        # Operation counters are per-instance, not historical.
        assert reopened.stats().puts == 0

    def test_compact_reclaims_superseded_pages(self, store):
        for bump in (0.0, 1.0, 2.0, 3.0):
            store.put_segment(page(bump=bump))
        store.put_segment(page(0, 4, 7))
        before = store.stats().bytes_on_disk
        freed = store.compact()
        # Append-only segments really hold the three superseded
        # occurrences until compaction rewrites the partition.
        assert freed > 0
        assert store.stats().bytes_on_disk < before
        assert store.compact() == 0  # nothing left to reclaim
        # Live content is untouched.
        assert store.get_segment(0, 0, 3) == page(bump=3.0)
        assert store.get_segment(0, 4, 7) == page(0, 4, 7)


    def test_empty_page_round_trips(self, store):
        """Reshard writes row-less pages (only the zero row) for shards
        that held nothing in an interval; they must store like any other."""
        empty = page(rows=())
        store.put_segment(empty)
        assert store.get_segment(0, 0, 3) == empty
        assert store.stats().pages == 1
        assert store.stats().rows == 0

    def test_reput_after_reopen_latest_wins_on_the_next_reopen(self, tmp_path):
        """Crash recovery re-derives pages in a *new* process: the re-put
        occurrence, not the original, is what a later open indexes."""
        FileColdStore(tmp_path / "s").put_segment(page(bump=0.0))
        FileColdStore(tmp_path / "s").put_segment(page(bump=5.0))
        reopened = FileColdStore(tmp_path / "s")
        assert reopened.get_segment(0, 0, 3) == page(bump=5.0)
        assert reopened.stats().pages == 1


def _len_prefix(n: int) -> bytes:
    return struct.pack("<I", n)


_BLOB = page(0, 8, 11).encode()

#: Every way a crash can tear the tail of an append: each stops the
#: open-time scan at a different check.
TORN_TAILS = {
    "short-length-prefix": b"\x40\x00",
    "prefix-without-page": _len_prefix(len(_BLOB)),
    "short-page": _len_prefix(len(_BLOB)) + _BLOB[: len(_BLOB) // 2],
    "length-below-header": _len_prefix(8) + _BLOB[:8],
    "garbled-header": _len_prefix(len(_BLOB)) + b"XXXX" + _BLOB[4:],
    "length-disagrees-with-header": _len_prefix(len(_BLOB) - 8) + _BLOB[:-8],
}


class TestFileBackendDurability:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        s = FileColdStore(tmp_path / "s")
        s.put_segment(page(0, 0, 3))
        s.put_segment(page(0, 4, 7))
        # A crash mid-append tears the tail of exactly one segment file.
        (seg,) = sorted((tmp_path / "s").glob("L*.seg"))
        whole = seg.read_bytes()
        seg.write_bytes(whole + b"\x40\x00\x00\x00RCP1torn")
        s = FileColdStore(tmp_path / "s")
        assert s.scan() == [(0, 0, 3), (0, 4, 7)]
        assert s.get_segment(0, 4, 7) == page(0, 4, 7)
        assert seg.read_bytes() == whole  # tail dropped for future appends

    @pytest.mark.parametrize("tail", sorted(TORN_TAILS))
    def test_every_torn_tail_shape_is_truncated_on_open(self, tmp_path, tail):
        s = FileColdStore(tmp_path / "s")
        s.put_segment(page(0, 0, 3))
        s.put_segment(page(0, 4, 7))
        (seg,) = sorted((tmp_path / "s").glob("L*.seg"))
        whole = seg.read_bytes()
        seg.write_bytes(whole + TORN_TAILS[tail])
        s = FileColdStore(tmp_path / "s")
        assert s.scan() == [(0, 0, 3), (0, 4, 7)]
        assert s.get_segment(0, 0, 3) == page(0, 0, 3)
        assert seg.read_bytes() == whole

    def test_append_after_a_truncated_tail_reads_back_after_reopen(
        self, tmp_path
    ):
        s = FileColdStore(tmp_path / "s")
        s.put_segment(page(0, 0, 3))
        (seg,) = sorted((tmp_path / "s").glob("L*.seg"))
        seg.write_bytes(seg.read_bytes() + TORN_TAILS["short-page"])
        s = FileColdStore(tmp_path / "s")
        s.put_segment(page(0, 8, 11))  # the page the crash tore
        s = FileColdStore(tmp_path / "s")
        assert s.scan() == [(0, 0, 3), (0, 8, 11)]
        assert s.get_segment(0, 8, 11) == page(0, 8, 11)

    def test_on_disk_corruption_is_quarantined_not_returned(self, tmp_path):
        s = FileColdStore(tmp_path / "s")
        s.put_segment(page(0, 0, 3))
        s.put_segment(page(0, 4, 7))
        (seg,) = sorted((tmp_path / "s").glob("L*.seg"))
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0x01  # last byte: the second page's slope column
        seg.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="quarantined"):
            s.get_segment(0, 4, 7)
        assert s.scan() == [(0, 0, 3)]
        assert s.stats().quarantined == 1
        with pytest.raises(StorageError, match="no page"):
            s.get_segment(0, 4, 7)
        assert s.get_segment(0, 0, 3) == page(0, 0, 3)

    def test_compact_deletes_a_partition_left_with_no_live_page(
        self, tmp_path
    ):
        s = FileColdStore(tmp_path / "s", partition_ticks=4)
        s.put_segment(page(0, 0, 3))
        s.put_segment(page(0, 4, 7))
        doomed = tmp_path / "s" / "L00-000001.seg"
        size = doomed.stat().st_size
        data = bytearray(doomed.read_bytes())
        data[-1] ^= 0x01
        doomed.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            s.get_segment(0, 4, 7)
        assert s.compact() == size
        assert not doomed.exists()
        assert s.get_segment(0, 0, 3) == page(0, 0, 3)

    def test_compact_leaves_no_temp_file_and_survives_reopen(self, tmp_path):
        s = FileColdStore(tmp_path / "s")
        for bump in (0.0, 1.0):
            s.put_segment(page(bump=bump))
        s.put_segment(page(1, 4, 7))
        assert s.compact() > 0
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["L00-000000.seg", "L01-000000.seg"]
        reopened = FileColdStore(tmp_path / "s")
        assert reopened.scan() == [(0, 0, 3), (1, 4, 7)]
        assert reopened.get_segment(0, 0, 3) == page(bump=1.0)
        assert reopened.compact() == 0

    def test_compact_of_an_empty_store_frees_nothing(self, store):
        assert store.compact() == 0
        assert store.stats().bytes_on_disk == 0

    def test_leftover_compaction_temp_file_is_not_a_partition(self, tmp_path):
        """A crash between writing a compacted partition and the rename
        leaves ``*.seg.tmp`` behind; the original file is authoritative."""
        s = FileColdStore(tmp_path / "s")
        s.put_segment(page())
        on_disk = s.stats().bytes_on_disk
        (tmp_path / "s" / "L00-000000.seg.tmp").write_bytes(b"half-written")
        s = FileColdStore(tmp_path / "s")
        assert s.scan() == [(0, 0, 3)]
        assert s.get_segment(0, 0, 3) == page()
        assert s.stats().bytes_on_disk == on_disk

    def test_store_holds_no_file_descriptor_between_calls(self, tmp_path):
        """Why the store has no ``close``: every call opens and closes its
        own file (and mapping)."""
        fds = os.listdir("/proc/self/fd")
        s = FileColdStore(tmp_path / "s", partition_ticks=4)
        for t_b in range(0, 40, 4):
            s.put_segment(page(0, t_b, t_b + 3))
            s.put_segment(page(0, t_b, t_b + 3, bump=1.0))
        for level, t_b, t_e in s.scan():
            s.get_segment(level, t_b, t_e)
        s.stats()
        s.compact()
        assert len(os.listdir("/proc/self/fd")) == len(fds)


class TestPartitioning:
    def test_partition_ticks_must_be_positive(self, tmp_path):
        with pytest.raises(StorageError, match="partition_ticks"):
            FileColdStore(tmp_path / "s", partition_ticks=0)
        assert not (tmp_path / "s").exists()

    def test_one_file_per_level_and_slot_bucket(self, tmp_path):
        s = FileColdStore(tmp_path / "s", partition_ticks=8)
        for level, t_b in ((0, 0), (0, 4), (0, 8), (1, 0)):
            s.put_segment(page(level, t_b, t_b + 3))
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == ["L00-000000.seg", "L00-000001.seg", "L01-000000.seg"]

    def test_scan_orders_keys_numerically_across_partitions(self, tmp_path):
        s = FileColdStore(tmp_path / "s", partition_ticks=4)
        for level, t_b in ((10, 0), (2, 100), (2, 20)):
            s.put_segment(page(level, t_b, t_b + 3))
        expected = [(2, 20, 23), (2, 100, 103), (10, 0, 3)]
        assert s.scan() == expected
        reopened = FileColdStore(tmp_path / "s", partition_ticks=4)
        assert reopened.scan() == expected


def shard_key(values, n):
    return hash(values) % n


class TestShardLayout:
    def config(self, tmp_path):
        return StorageConfig(root=tmp_path / "root")

    def test_fresh_root_creates_generation_one(self, tmp_path):
        config = self.config(tmp_path)
        generation, stores = open_shard_stores(config, 3, shard_key)
        assert generation == 1
        assert (tmp_path / "root" / "g0001.ok").exists()
        for i in range(3):
            assert shard_store_path(config.root, 1, i, 3).exists()

    def test_reopen_same_shard_count_reuses_generation(self, tmp_path):
        config = self.config(tmp_path)
        generation, stores = open_shard_stores(config, 2, shard_key)
        stores[0].put_segment(page())
        generation2, stores = open_shard_stores(config, 2, shard_key)
        assert generation2 == generation == 1
        assert stores[0].get_segment(0, 0, 3) == page()

    def test_reshard_repartitions_rows_by_key(self, tmp_path):
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        keys = [(i, i + 1) for i in range(6)]
        stores[0].put_segment(
            ColdPage(
                0, 0, 3, keys, [float(i) for i in range(6)], [0.0] * 6,
                zero_base=9.0, zero_slope=-9.0,
            )
        )
        generation, stores = open_shard_stores(config, 3, shard_key)
        assert generation == 2
        seen = {}
        for j, s in enumerate(stores):
            got = s.get_segment(0, 0, 3)  # every shard holds the page
            assert got.zero_isb().base == 9.0  # zero row survives
            for key, base in zip(got.keys, got.base):
                assert shard_key(key, 3) == j
                seen[key] = base
        assert seen == {k: float(i) for i, k in enumerate(keys)}

    def test_prune_stale_generations(self, tmp_path):
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        stores[0].put_segment(page())
        generation, stores = open_shard_stores(config, 2, shard_key)
        assert (tmp_path / "root" / "g0001.ok").exists()
        removed = prune_stale_generations(config, generation)
        assert removed == 1
        assert not (tmp_path / "root" / "g0001.ok").exists()
        assert not shard_store_path(config.root, 1, 0, 1).exists()
        assert (tmp_path / "root" / "g0002.ok").exists()

    @pytest.mark.parametrize("backend", ["shoebox", "", "FILE", "file "])
    def test_marker_of_another_store_is_refused_before_any_write(
        self, tmp_path, backend
    ):
        """A root written by a build with another cold store: the open
        names the generation and creates nothing under the root (a fresh
        shard directory would answer every fault-in with "no page")."""
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0001.ok").write_text(
            json.dumps({"generation": 1, "n_shards": 2, "backend": backend})
        )
        before = sorted(p.name for p in root.iterdir())
        with pytest.raises(StorageError, match="generation 1"):
            open_shard_stores(self.config(tmp_path), 2, shard_key)
        assert sorted(p.name for p in root.iterdir()) == before

    def test_marker_without_a_backend_is_malformed(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0001.ok").write_text(
            json.dumps({"generation": 1, "n_shards": 2})
        )
        with pytest.raises(StorageError, match="malformed"):
            open_shard_stores(self.config(tmp_path), 2, shard_key)
        assert sorted(p.name for p in root.iterdir()) == ["g0001.ok"]

    def test_marker_disagreeing_with_its_name_is_refused(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0002.ok").write_text(
            json.dumps({"generation": 1, "n_shards": 2, "backend": "file"})
        )
        with pytest.raises(StorageError, match="disagrees with its own name"):
            open_shard_stores(self.config(tmp_path), 2, shard_key)

    def test_foreign_older_generation_is_refused_too(self, tmp_path):
        """Not only the newest marker is checked: a root mixing stores is
        refused whole rather than half-trusted."""
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0001.ok").write_text(
            json.dumps({"generation": 1, "n_shards": 1, "backend": "shoebox"})
        )
        (root / "g0002.ok").write_text(
            json.dumps({"generation": 2, "n_shards": 1, "backend": "file"})
        )
        with pytest.raises(StorageError, match="generation 1"):
            open_shard_stores(self.config(tmp_path), 1, shard_key)

    def test_prune_refuses_a_foreign_marker_before_deleting_anything(
        self, tmp_path
    ):
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        stores[0].put_segment(page())
        generation, _ = open_shard_stores(config, 2, shard_key)
        (tmp_path / "root" / "g0003.ok").write_text(
            json.dumps({"generation": 3, "n_shards": 1, "backend": "shoebox"})
        )
        with pytest.raises(StorageError, match="generation 3"):
            prune_stale_generations(config, generation)
        assert (tmp_path / "root" / "g0001.ok").exists()
        assert shard_store_path(config.root, 1, 0, 1).exists()

    def test_marker_bytes_keep_their_format(self, tmp_path):
        """Markers are read by older builds too: same keys, same order,
        same ``"backend"`` value as ever."""
        open_shard_stores(self.config(tmp_path), 3, shard_key)
        assert (tmp_path / "root" / "g0001.ok").read_bytes() == (
            b'{"generation": 1, "n_shards": 3, "backend": "file"}'
        )

    def test_leftover_marker_temp_file_is_not_a_generation(self, tmp_path):
        """A crash before the marker's rename leaves ``gNNNN.ok.tmp``; the
        generation was never committed."""
        root = tmp_path / "root"
        root.mkdir()
        (root / "g0001.ok.tmp").write_text('{"generation": 1, "n_sh')
        generation, stores = open_shard_stores(
            self.config(tmp_path), 2, shard_key
        )
        assert generation == 1
        assert len(stores) == 2
        assert json.loads((root / "g0001.ok").read_text())["n_shards"] == 2

    def test_reshard_writes_zero_row_pages_to_shards_without_rows(
        self, tmp_path
    ):
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        stores[0].put_segment(
            ColdPage(
                0, 0, 3, [(7, 7)], [2.0], [0.5],
                zero_base=9.0, zero_slope=-9.0,
            )
        )
        _, stores = open_shard_stores(config, 3, shard_key)
        owner = shard_key((7, 7), 3)
        for j, s in enumerate(stores):
            got = s.get_segment(0, 0, 3)
            assert got.zero_isb().base == 9.0
            assert got.n_rows == (1 if j == owner else 0)

    def test_reshard_leaves_the_old_generation_readable(self, tmp_path):
        """A live cube may still read the generation a reshard replaces."""
        config = self.config(tmp_path)
        _, stores = open_shard_stores(config, 1, shard_key)
        stores[0].put_segment(page())
        open_shard_stores(config, 2, shard_key)
        assert (tmp_path / "root" / "g0001.ok").exists()
        old = FileColdStore(shard_store_path(config.root, 1, 0, 1))
        assert old.get_segment(0, 0, 3) == page()

    def test_partial_generation_without_marker_is_inert(self, tmp_path):
        """A crash mid-reshard leaves stores without a marker; the next
        open ignores them and starts generation one cleanly."""
        config = self.config(tmp_path)
        orphan = shard_store_path(config.root, 3, 0, 2)
        orphan.mkdir(parents=True)
        generation, stores = open_shard_stores(config, 2, shard_key)
        assert generation == 1

    def test_config_validation(self, tmp_path):
        with pytest.raises(StorageError, match="hot_quarters"):
            StorageConfig(root=tmp_path, hot_quarters=0)
        with pytest.raises(StorageError, match="n_shards"):
            open_shard_stores(self.config(tmp_path), 0, shard_key)
