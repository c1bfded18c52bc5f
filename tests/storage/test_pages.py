"""The packed columnar page codec: bit-exact round trips, hard failures."""

from __future__ import annotations

import struct

import pytest

from repro.errors import StorageError
from repro.storage.pages import (
    PAGE_HEADER_BYTES,
    PAGE_VERSION,
    ColdPage,
    pack_f64,
    read_page_header,
    unpack_f64,
)

AWKWARD = (0.0, -0.0, 0.1 + 0.2, -1e-17, 2.2250738585072014e-308, 1e300)


def sample_page() -> ColdPage:
    return ColdPage(
        level=1,
        t_b=16,
        t_e=31,
        keys=[(0, 0), (1, 2), ("a", 3)],
        base=[0.1 + 0.2, -0.0, 1e300],
        slope=[-1e-17, 4.25, 0.5],
        zero_base=2.5,
        zero_slope=-0.125,
    )


class TestFloatColumns:
    def test_pack_unpack_round_trip_bit_exact(self):
        packed = pack_f64(AWKWARD)
        assert len(packed) == 8 * len(AWKWARD)
        back = unpack_f64(packed, len(AWKWARD))
        assert [struct.pack("<d", x) for x in back] == [
            struct.pack("<d", x) for x in AWKWARD
        ]

    def test_unpack_at_offset(self):
        packed = b"junk" + pack_f64((1.5, -2.5))
        assert unpack_f64(packed, 2, offset=4) == (1.5, -2.5)


class TestColdPage:
    def test_encode_decode_round_trip(self):
        page = sample_page()
        blob = page.encode()
        assert len(blob) == page.encoded_size
        back = ColdPage.decode(blob)
        assert back == page
        # Bit-exact: re-encoding the decoded page reproduces the bytes.
        assert back.encode() == blob

    def test_empty_page_round_trips(self):
        page = ColdPage(0, 0, 3, [], [], [], zero_base=-0.0, zero_slope=0.0)
        back = ColdPage.decode(page.encode())
        assert back.n_rows == 0
        assert back.interval == (0, 3)

    def test_known_key_row(self):
        page = sample_page()
        isb = page.isb((1, 2))
        assert (isb.t_b, isb.t_e) == (16, 31)
        assert isb.base == -0.0 and isb.slope == 4.25

    def test_missing_key_answers_the_zero_row(self):
        """A cell born after the spill reads its zero-backfill, not an error."""
        page = sample_page()
        assert page.isb((7, 7)) == page.zero_isb()
        assert page.zero_isb().base == 2.5
        assert page.zero_isb().slope == -0.125

    def test_construction_validation(self):
        with pytest.raises(StorageError, match="empty interval"):
            ColdPage(0, 5, 4, [], [], [])
        with pytest.raises(StorageError, match="negative level"):
            ColdPage(-1, 0, 3, [], [], [])
        with pytest.raises(StorageError, match="row mismatch"):
            ColdPage(0, 0, 3, [(0,)], [1.0, 2.0], [0.0])


class TestHeader:
    def test_read_page_header_fields(self):
        page = sample_page()
        level, t_b, t_e, n_rows, keys_len, _, zb, zs = read_page_header(
            page.encode()
        )
        assert (level, t_b, t_e, n_rows) == (1, 16, 31, 3)
        assert keys_len > 0
        assert (zb, zs) == (2.5, -0.125)

    def test_truncated_header_rejected(self):
        with pytest.raises(StorageError, match="header truncated"):
            read_page_header(sample_page().encode()[: PAGE_HEADER_BYTES - 1])

    def test_bad_magic_rejected(self):
        blob = bytearray(sample_page().encode())
        blob[:4] = b"NOPE"
        with pytest.raises(StorageError, match="magic"):
            ColdPage.decode(bytes(blob))

    def test_unknown_version_rejected(self):
        blob = bytearray(sample_page().encode())
        struct.pack_into("<H", blob, 4, PAGE_VERSION + 1)
        with pytest.raises(StorageError, match="version"):
            ColdPage.decode(bytes(blob))


class TestCorruption:
    def test_flipped_body_byte_fails_checksum(self):
        blob = bytearray(sample_page().encode())
        blob[-1] ^= 0xFF
        with pytest.raises(StorageError, match="checksum"):
            ColdPage.decode(bytes(blob))

    def test_truncated_body_rejected(self):
        blob = sample_page().encode()
        with pytest.raises(StorageError, match="truncated"):
            ColdPage.decode(blob[:-8])

    def test_row_count_keys_disagreement_rejected(self):
        """A page declaring more rows than its keys block holds is corrupt
        even when the checksum was forged to match."""
        import zlib

        page = sample_page()
        blob = bytearray(page.encode())
        # Pretend the keys block holds one fewer row than declared, then
        # re-sign the page so only the count check can object.  The crc
        # covers header + body with the crc field zeroed, so the forgery
        # signs exactly the way encode() does.
        keys_blob = b'[[0,0],["a",3]]'
        body = (
            keys_blob
            + pack_f64(page.base)
            + pack_f64(page.slope)
        )
        unsigned = struct.pack(
            "<4sHHqqIIIdd",
            b"RCP1",
            PAGE_VERSION,
            page.level,
            page.t_b,
            page.t_e,
            page.n_rows,  # still claims 3 rows
            len(keys_blob),
            0,
            page.zero_base,
            page.zero_slope,
        )
        crc = zlib.crc32(body, zlib.crc32(unsigned))
        rebuilt = (
            unsigned[:32] + struct.pack("<I", crc) + unsigned[36:] + body
        )
        assert len(rebuilt) != len(blob)
        with pytest.raises(StorageError, match="declares 3 rows"):
            ColdPage.decode(rebuilt)
