"""Bit-level writer/reader used by the entropy and transform coders.

Bits are packed LSB-first within each byte (the convention of most
floating-point compressors, chosen here once and honoured by both
directions — the round-trip property is hypothesis-tested).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CompressionError

__all__ = ["BitWriter", "BitReader", "pack_fixed_width", "unpack_fixed_width"]


class BitWriter:
    """Append-only bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` of ``value``."""
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        if nbits == 0:
            return
        value &= (1 << nbits) - 1
        self._acc |= value << self._nbits
        self._nbits += nbits
        while self._nbits >= 8:
            self._bytes.append(self._acc & 0xFF)
            self._acc >>= 8
            self._nbits -= 8

    def write_unary(self, value: int) -> None:
        """Unary code: ``value`` zero bits then a one bit."""
        if value < 0:
            raise ValueError("unary codes are for non-negative integers")
        self.write(0, value)
        self.write(1, 1)

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Finalise (zero-padding the last byte) and return the bytes."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append(self._acc & 0xFF)
        return bytes(out)


class BitReader:
    """Sequential reader over bytes produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError("nbits must be >= 0")
        if self._pos + nbits > len(self._data) * 8:
            raise CompressionError("bitstream exhausted")
        value = 0
        got = 0
        while got < nbits:
            byte = self._data[self._pos >> 3]
            offset = self._pos & 7
            take = min(8 - offset, nbits - got)
            chunk = (byte >> offset) & ((1 << take) - 1)
            value |= chunk << got
            got += take
            self._pos += take
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read(1) == 0:
            count += 1
        return count

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos


def _word_dtype(width: int) -> str:
    """Smallest little-endian unsigned dtype holding ``width`` bits."""
    return "<u1" if width <= 8 else "<u2" if width <= 16 else "<u4" if width <= 32 else "<u8"


def pack_fixed_width(values: np.ndarray, width: int):
    """Vectorised fixed-width packing of non-negative integers.

    Equivalent to writing each value with ``BitWriter.write(v, width)``;
    used for the bulk payload of the fixed-rate codec.  A 1-D ``values``
    gives ``bytes``; a 2-D one packs every row on its own in the same
    pass and gives a ``(rows, ceil(width * count / 8))`` uint8 array whose
    row ``i`` holds the bytes of ``pack_fixed_width(values[i], width)``.
    """
    values = np.asarray(values)
    if width < 0 or width > 64:
        raise ValueError("width must be within [0, 64]")
    if width == 0 or values.size == 0:
        return b"" if values.ndim == 1 else np.zeros((values.shape[0], 0), np.uint8)
    if int(values.min()) < 0 or int(values.max()) >> width:
        raise CompressionError(f"value exceeds {width} bits")
    # bit expansion in the byte domain, always along one long contiguous
    # axis: every value's little-endian bytes -> their bits, LSB first ->
    # the low `width` of each value -> packed rows
    words = values.astype(_word_dtype(width))
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    bits = bits.reshape(*values.shape, 8 * words.itemsize)[..., :width]
    packed = np.packbits(
        bits.reshape(*values.shape[:-1], -1), axis=-1, bitorder="little"
    )
    return packed.tobytes() if values.ndim == 1 else packed


def unpack_fixed_width(blob, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed_width`: ``bytes`` -> ``(count,)``
    uint64, or a ``(rows, nbytes)`` uint8 array -> ``(rows, count)``."""
    if width < 0 or width > 64:
        raise ValueError("width must be within [0, 64]")
    rows = blob if isinstance(blob, np.ndarray) else np.frombuffer(blob, np.uint8)
    if width == 0 or count == 0:
        return np.zeros((*rows.shape[:-1], count), dtype=np.uint64)
    need_bits = width * count
    if rows.shape[-1] * 8 < need_bits:
        raise CompressionError("fixed-width payload too short")
    bits = np.unpackbits(rows, axis=-1, count=need_bits, bitorder="little")
    # each value's `width` bits, zero-padded to a whole word, -> words
    dtype = np.dtype(_word_dtype(width))
    padded = np.zeros((*rows.shape[:-1], count, 8 * dtype.itemsize), dtype=np.uint8)
    padded[..., :width] = bits.reshape(*rows.shape[:-1], count, width)
    words = np.packbits(
        padded.reshape(*rows.shape[:-1], -1), axis=-1, bitorder="little"
    )
    return words.view(dtype).astype(np.uint64)
