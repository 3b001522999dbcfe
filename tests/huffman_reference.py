"""Independent reference for the Huffman stage (test-only).

``decode_bitwise`` is the per-bit canonical decoder the package shipped
before the data-parallel one: it shares no table, window or walk with
``repro.compressors.huffman`` beyond the stream layout, so agreement
between the two is evidence, not tautology.  ``fibonacci_code`` makes
``huffman_encode`` emit codes of a chosen depth — a real depth-48 code
needs ~10^10 input symbols, so the frequencies are substituted instead.
"""

from __future__ import annotations

import struct
from unittest import mock

import numpy as np

import repro.compressors.huffman as huffman
from repro.errors import CompressionError


def parse_stream(blob: bytes):
    """(count, symbols, lengths, total_bits, payload) of a non-empty stream."""
    version, count, n = struct.unpack_from("<IQI", blob)
    assert version == 1
    symbols = np.frombuffer(blob, dtype="<i8", count=n, offset=16)
    lengths = np.frombuffer(blob, dtype="<u1", count=n, offset=16 + 8 * n)
    (total_bits,) = struct.unpack_from("<Q", blob, 16 + 9 * n)
    return count, symbols, lengths, total_bits, blob[24 + 9 * n :]


def decode_bitwise(blob: bytes) -> np.ndarray:
    """Per-bit canonical decode: grow the code value one bit at a time
    until it falls inside its length's ``[first_code, first_code + n)``."""
    count, symbols, lengths, total_bits, payload = parse_stream(blob)
    order = np.lexsort((symbols, lengths))
    by_rank = symbols[order].tolist()
    max_len = int(lengths.max())
    count_by_len = np.bincount(lengths, minlength=max_len + 1).tolist()
    first_code = [0] * (max_len + 1)
    first_index = [0] * (max_len + 1)
    for ln in range(1, max_len + 1):
        first_code[ln] = (first_code[ln - 1] + count_by_len[ln - 1]) << 1
        first_index[ln] = first_index[ln - 1] + count_by_len[ln - 1]
    bits = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=total_bits, bitorder="big"
    ).tolist()
    out = []
    value = length = 0
    for pos, bit in enumerate(bits):
        value = (value << 1) | bit
        length += 1
        if length > max_len:
            raise CompressionError("invalid Huffman stream")
        offset = value - first_code[length]
        if 0 <= offset < count_by_len[length]:
            out.append(by_rank[first_index[length] + offset])
            value = length = 0
            if len(out) == count:
                if pos + 1 != total_bits:
                    raise CompressionError("Huffman stream not terminated")
                return np.array(out, dtype=np.int64)
    raise CompressionError("Huffman stream truncated")


def fibonacci_code():
    """Context manager: inside it ``huffman_encode`` assigns Fibonacci
    frequencies by symbol rank, so an alphabet of ``d + 1`` symbols gets
    the degenerate code of depth ``d`` (lengths d, d, d-1, ..., 1)
    whatever the data's real histogram is."""
    real = huffman._code_lengths

    def substituted(freqs):
        fib, a, b = {}, 1, 1
        for sym in sorted(freqs):
            fib[sym] = a
            a, b = b, a + b
        return real(fib)

    return mock.patch.object(huffman, "_code_lengths", substituted)


def scrambled(n: int, bits: int) -> np.ndarray:
    """``n`` deterministic pseudo-random ``bits``-bit integers (Fibonacci
    hashing of the index) — independent of NumPy's generator streams, so
    the golden hashes survive NumPy upgrades."""
    h = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    return (h >> np.uint64(64 - bits)).astype(np.int64)


def golden_inputs() -> dict[str, np.ndarray]:
    """The three fixed inputs of the format-stability test."""
    # SZ-like residuals: geometric magnitudes, random signs, and the
    # outlier sentinel -(radius + 1) of the default radius every 997th
    r = scrambled(20_000, 16)
    magnitude = 15 - np.searchsorted(1 << np.arange(15), r >> 1, side="right")  # 15 - bit_length
    peaked = np.where(r & 1, magnitude, -magnitude)
    peaked[::997] = -(32768 + 1)
    return {
        "peaked_sz_residuals": peaked,
        "uniform_256": scrambled(10_000, 8),
        "fibonacci_depth40": scrambled(6_000, 20) % 41,
    }
