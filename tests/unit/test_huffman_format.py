"""Stream-format stability and malformed-input behaviour of the Huffman stage.

The golden hashes were produced by the per-bit/LUT implementation this
decoder replaced (commit b7c311a): the packer may change, the bytes may
not.  Everything malformed must surface as ``CompressionError`` — never
``struct.error``/``ValueError``/``MemoryError`` — and never as a silent
success that returns the uncorrupted input.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.errors import CompressionError
from tests.huffman_reference import (
    decode_bitwise,
    fibonacci_code,
    golden_inputs,
    parse_stream,
    scrambled,
)

GOLDEN_SHA256 = {
    "peaked_sz_residuals": "5f3406bca41e0e3ddc96f7de92a10bcc3940218cc3f94083012e710ae13c653b",
    "uniform_256": "3996bc2d896b0f7af0ba61b977049310a5966c137b0185f2d681d7ccf1aeb001",
    "fibonacci_depth40": "6e53bbb88076a38ff1d677430aea94287ef1745131590b9453949cba2a2835e8",
}


def _stream(symbols, lengths, count, total_bits, payload, version=1) -> bytes:
    """Hand-assemble a stream, valid or not."""
    return (
        struct.pack("<IQI", version, count, len(symbols))
        + np.asarray(symbols, dtype="<i8").tobytes()
        + np.asarray(lengths, dtype="<u1").tobytes()
        + struct.pack("<Q", total_bits)
        + payload
    )


@pytest.fixture(scope="module")
def small():
    values = np.array([0, 0, 1, 0, -1, 0, 2, 0, 0, -32769, 1, 0, 0], dtype=np.int64)
    return values, huffman_encode(values)


class TestFormatStability:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_bytes_equal_parent_commit(self, name):
        values = golden_inputs()[name]
        if name == "fibonacci_depth40":
            with fibonacci_code():
                blob = huffman_encode(values)
            assert parse_stream(blob)[2].max() == 40
        else:
            blob = huffman_encode(values)
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]
        assert np.array_equal(huffman_decode(blob), values)
        assert np.array_equal(decode_bitwise(blob), values)

    def test_empty_stream_layout(self):
        assert huffman_encode(np.zeros(0)) == struct.pack("<IQ", 0, 0)

    def test_int64_input_is_not_copied(self):
        """The encoder reads int64 input in place and leaves it untouched."""
        values = np.arange(-5, 5, dtype=np.int64).repeat(3)
        before = values.copy()
        blob = huffman_encode(values)
        assert np.array_equal(values, before)
        assert np.array_equal(huffman_decode(blob), before)

    def test_decoder_returns_fresh_writable_array(self, small):
        values, blob = small
        out = huffman_decode(blob)
        out += 1  # callers patch the result in place
        assert np.array_equal(huffman_decode(blob), values)


class TestBoundedTemporaries:
    def test_decoder_transients_do_not_scale_with_the_stream(self):
        """Per-position windows exist for one block at a time: beyond the
        output and a few copies of the payload, peak memory is a constant
        (whole-stream windows would be 8 B per *bit*, ~26 MB here)."""
        values = scrambled(400_000, 8)
        blob = huffman_encode(values)
        tracemalloc.start()
        try:
            out = huffman_decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, values)
        assert peak < out.nbytes + 4 * len(blob) + (8 << 20)


class TestMalformedHeaders:
    def test_every_truncation_is_a_compression_error(self, small):
        _, blob = small
        for cut in range(len(blob)):
            with pytest.raises(CompressionError):
                huffman_decode(blob[:cut])

    def test_absurd_count_fails_before_allocating(self, small):
        _, blob = small
        huge = blob[:4] + struct.pack("<Q", 10**12) + blob[12:]
        with pytest.raises(CompressionError):
            huffman_decode(huge)

    def test_absurd_total_bits_fails_before_allocating(self):
        with pytest.raises(CompressionError):
            huffman_decode(_stream([0, 1], [1, 1], 10**12, 10**13, b"\x00"))

    def test_absurd_symbol_count(self):
        blob = struct.pack("<IQI", 1, 4, 2**32 - 1) + b"\x00" * 64
        with pytest.raises(CompressionError):
            huffman_decode(blob)

    @pytest.mark.parametrize(
        "symbols, lengths",
        [
            ([], []),  # n_symbols == 0
            ([3, 3], [1, 1]),  # duplicate symbol
            ([4, 3], [1, 1]),  # not increasing
            ([0, 1], [0, 1]),  # zero length
            ([0, 1], [1, 49]),  # deeper than supported
        ],
    )
    def test_bad_codebooks(self, symbols, lengths):
        with pytest.raises(CompressionError):
            huffman_decode(_stream(symbols, lengths, 1, 1, b"\x00"))

    def test_unknown_version(self, small):
        _, blob = small
        with pytest.raises(CompressionError):
            huffman_decode(struct.pack("<I", 2) + blob[4:])


class TestMalformedStreams:
    def test_oversubscribed_lengths_rejected(self):
        """Lengths [1, 1, 1] have Kraft sum 1.5: no prefix code exists."""
        with pytest.raises(CompressionError):
            huffman_decode(_stream([0, 1, 2], [1, 1, 1], 8, 8, b"\x00"))

    def test_complete_code_accepted(self):
        """Kraft sum exactly 1 (2^64 left-aligned) is the normal case."""
        out = huffman_decode(_stream([5, 6, 7], [1, 2, 2], 3, 5, bytes([0b01011000])))
        assert out.tolist() == [5, 6, 7]

    def test_incomplete_code_window_rejected(self):
        """A single-symbol code leaves the '1' window unassigned."""
        blob = _stream([9], [1], 8, 8, bytes([0b00010000]))
        with pytest.raises(CompressionError):
            huffman_decode(blob)
        assert huffman_decode(_stream([9], [1], 8, 8, b"\x00")).tolist() == [9] * 8

    def test_count_smaller_than_stream_rejected(self, small):
        """Stopping after ``count`` symbols short of ``total_bits``."""
        values, blob = small
        short = blob[:4] + struct.pack("<Q", values.size - 1) + blob[12:]
        with pytest.raises(CompressionError):
            huffman_decode(short)

    def test_count_larger_than_stream_rejected(self, small):
        values, blob = small
        long = blob[:4] + struct.pack("<Q", values.size + 1) + blob[12:]
        with pytest.raises(CompressionError):
            huffman_decode(long)

    def test_last_codeword_must_end_at_total_bits(self):
        # code: 5 -> '0', 6 -> '10', 7 -> '11'; the payload holds 5, 6 and
        # then a '1' that starts a codeword the stream never finishes
        with pytest.raises(CompressionError):
            huffman_decode(_stream([5, 6, 7], [1, 2, 2], 3, 4, bytes([0b01010000])))

    def test_trailing_bytes_and_set_padding_rejected(self, small):
        _, blob = small
        with pytest.raises(CompressionError):
            huffman_decode(blob + b"\x00")
        total_bits = parse_stream(blob)[3]
        assert total_bits % 8, "fixture must leave padding bits"
        with pytest.raises(CompressionError):
            huffman_decode(blob[:-1] + bytes([blob[-1] | 1]))

    def test_every_single_bit_flip_detected_or_wrong(self, small):
        """Header and payload: a flipped bit raises ``CompressionError`` or
        decodes to something else — never another exception, never the
        original."""
        values, blob = small
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            try:
                decoded = huffman_decode(bytes(flipped))
            except CompressionError:
                continue
            assert not np.array_equal(decoded, values), f"bit {bit} went unnoticed"
