import numpy as np
import pytest

from repro.compressors.bitstream import (
    BitReader,
    BitWriter,
    pack_fixed_width,
    unpack_fixed_width,
)
from repro.errors import CompressionError


class TestBitWriterReader:
    def test_roundtrip_mixed_widths(self):
        w = BitWriter()
        values = [(5, 3), (0, 1), (1023, 10), (1, 1), (0xDEADBEEF, 32)]
        for v, n in values:
            w.write(v, n)
        r = BitReader(w.getvalue())
        for v, n in values:
            assert r.read(n) == v

    def test_bit_length_tracking(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b1, 1)
        assert w.bit_length == 4

    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(7, 0)
        assert w.bit_length == 0

    def test_value_masked_to_width(self):
        w = BitWriter()
        w.write(0xFF, 4)
        r = BitReader(w.getvalue())
        assert r.read(4) == 0xF

    def test_unary_roundtrip(self):
        w = BitWriter()
        for v in (0, 1, 5, 13):
            w.write_unary(v)
        r = BitReader(w.getvalue())
        for v in (0, 1, 5, 13):
            assert r.read_unary() == v

    def test_exhausted_stream_raises(self):
        r = BitReader(b"\x01")
        r.read(8)
        with pytest.raises(CompressionError):
            r.read(1)

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00")
        r.read(5)
        assert r.bits_remaining == 11

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(1, -1)
        with pytest.raises(ValueError):
            BitReader(b"\x00").read(-1)


class TestFixedWidthPacking:
    def test_roundtrip(self, rng):
        for width in (1, 3, 7, 8, 13, 31, 33, 64):
            top = min(width, 62)
            values = rng.integers(0, 2**top, size=100).astype(np.uint64)
            blob = pack_fixed_width(values, width)
            out = unpack_fixed_width(blob, width, 100)
            assert np.array_equal(out, values)

    def test_packed_size(self):
        blob = pack_fixed_width(np.zeros(10, dtype=np.uint64), 12)
        assert len(blob) == (10 * 12 + 7) // 8

    def test_overflow_rejected(self):
        with pytest.raises(CompressionError):
            pack_fixed_width(np.array([8], dtype=np.uint64), 3)

    def test_zero_width(self):
        assert pack_fixed_width(np.zeros(5, dtype=np.uint64), 0) == b""
        assert np.array_equal(
            unpack_fixed_width(b"", 0, 5), np.zeros(5, dtype=np.uint64)
        )

    def test_truncated_payload_rejected(self):
        with pytest.raises(CompressionError):
            unpack_fixed_width(b"\x00", 16, 10)

    def test_matches_bitwriter(self):
        values = np.array([3, 1, 7, 5], dtype=np.uint64)
        blob = pack_fixed_width(values, 3)
        r = BitReader(blob)
        for v in values:
            assert r.read(3) == v

    def test_every_width_matches_bitwriter(self, rng):
        """Widths on both sides of every word size (8/16/32/64 bits)."""
        for width in (1, 7, 8, 9, 15, 16, 17, 29, 32, 33, 63, 64):
            values = rng.integers(0, 2 ** min(width, 63), size=37, dtype=np.uint64)
            values[0] = 2**width - 1
            writer = BitWriter()
            for v in values.tolist():
                writer.write(v, width)
            assert pack_fixed_width(values, width) == writer.getvalue()

    def test_rows_pack_like_separate_calls(self, rng):
        """2-D input: one pass, every row the bytes of its own 1-D call."""
        for width, count in ((3, 10), (8, 5), (12, 576), (20, 7), (40, 3)):
            values = rng.integers(0, 2**width, size=(6, count))
            packed = pack_fixed_width(values, width)
            assert packed.dtype == np.uint8
            assert packed.shape == (6, (width * count + 7) // 8)
            for row, row_values in zip(packed, values):
                assert row.tobytes() == pack_fixed_width(row_values, width)
            out = unpack_fixed_width(packed, width, count)
            assert out.dtype == np.uint64 and np.array_equal(out, values)

    def test_rows_zero_width_and_errors(self):
        assert pack_fixed_width(np.zeros((3, 5), dtype=np.int64), 0).shape == (3, 0)
        rows = np.zeros((3, 0), dtype=np.uint8)
        assert unpack_fixed_width(rows, 0, 5).shape == (3, 5)
        with pytest.raises(CompressionError):
            pack_fixed_width(np.array([[1, 2], [3, 8]]), 3)
        with pytest.raises(CompressionError):
            pack_fixed_width(np.array([[1, -2]]), 3)
        with pytest.raises(CompressionError):
            unpack_fixed_width(np.zeros((3, 1), dtype=np.uint8), 16, 10)

    def test_unpack_ignores_trailing_bytes(self, rng):
        values = rng.integers(0, 2**11, size=9)
        blob = pack_fixed_width(values, 11) + b"\xff\xff"
        assert np.array_equal(unpack_fixed_width(blob, 11, 9), values)
