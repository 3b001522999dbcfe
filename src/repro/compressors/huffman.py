"""Canonical Huffman coder for quantisation-code streams.

SZ/cuSZ entropy-code their quantisation bins with Huffman; the bin
distribution is extremely peaked (most residuals quantise to the zero
bin), so average code lengths of 1-2 bits are typical.  The coder here is
canonical: only the per-symbol code lengths are stored in the header and
both sides rebuild identical codebooks from them.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError

__all__ = ["HuffmanCode", "huffman_encode", "huffman_decode"]

_MAX_CODE_LEN = 48


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical code: symbol values and their code lengths."""

    symbols: np.ndarray  # int64, sorted unique symbol values
    lengths: np.ndarray  # uint8 code length per symbol

    def __post_init__(self):
        if len(self.symbols) != len(self.lengths):
            raise CompressionError("symbols/lengths size mismatch")

    def assign_codes(self) -> np.ndarray:
        """Canonical code values (uint64), ordered like ``symbols``.

        Canonical order: ascending code length, then ascending symbol.
        Vectorised via the Kraft-sum identity: at the deepest level every
        length-``l`` code spans ``2^(max_len - l)`` leaves, so each code
        is the exclusive prefix sum of those spans shifted back to its
        own depth — identical to walking the codes one by one.
        """
        order = np.lexsort((self.symbols, self.lengths))
        lens = self.lengths[order].astype(np.int64)
        max_len = int(lens[-1])
        spans = np.left_shift(np.int64(1), max_len - lens)
        prefix = np.concatenate(([0], np.cumsum(spans)[:-1]))
        codes = np.empty(len(self.symbols), dtype=np.uint64)
        codes[order] = (prefix >> (max_len - lens)).astype(np.uint64)
        return codes


def _code_lengths(freqs: dict[int, int]) -> HuffmanCode:
    """Huffman code lengths from symbol frequencies (heap algorithm)."""
    if not freqs:
        raise CompressionError("cannot build a Huffman code for no symbols")
    if len(freqs) == 1:
        sym = next(iter(freqs))
        return HuffmanCode(
            symbols=np.array([sym], dtype=np.int64),
            lengths=np.array([1], dtype=np.uint8),
        )
    # Parent-pointer tree build: merging two nodes is O(1) instead of the
    # O(n) symbol-list concatenation, and depths fall out of one backward
    # sweep (every parent id is larger than its children's).
    n = len(freqs)
    symbols = np.array(sorted(freqs), dtype=np.int64)
    heap: list[tuple[int, int]] = [
        (freqs[int(s)], i) for i, s in enumerate(symbols)
    ]
    heapq.heapify(heap)
    parent = np.zeros(2 * n - 1, dtype=np.int64)
    nxt = n
    while len(heap) > 1:
        f1, i1 = heapq.heappop(heap)
        f2, i2 = heapq.heappop(heap)
        parent[i1] = parent[i2] = nxt
        heapq.heappush(heap, (f1 + f2, nxt))
        nxt += 1
    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = depth[:n].astype(np.uint8)
    if lengths.max() > _MAX_CODE_LEN:
        raise CompressionError("Huffman code deeper than supported")
    return HuffmanCode(symbols=symbols, lengths=lengths)


def _serialize_code(code: HuffmanCode) -> bytes:
    n = len(code.symbols)
    return (
        struct.pack("<I", n)
        + code.symbols.astype("<i8").tobytes()
        + code.lengths.astype("<u1").tobytes()
    )


def _deserialize_code(blob: bytes, off: int) -> tuple[HuffmanCode, int]:
    """Parse and validate the codebook at ``blob[off:]``; returns it and
    the offset just past it."""
    if len(blob) < off + 4:
        raise CompressionError("Huffman header truncated")
    (n,) = struct.unpack_from("<I", blob, off)
    off += 4
    if n < 1 or len(blob) < off + 9 * n:
        raise CompressionError(f"Huffman codebook of {n} symbols is empty or truncated")
    symbols = np.frombuffer(blob, dtype="<i8", count=n, offset=off).astype(np.int64)
    lengths = np.frombuffer(blob, dtype="<u1", count=n, offset=off + 8 * n)
    if (symbols[1:] <= symbols[:-1]).any():
        raise CompressionError("Huffman symbols are not strictly increasing")
    if lengths.min() < 1 or lengths.max() > _MAX_CODE_LEN:
        raise CompressionError(f"Huffman code length outside [1, {_MAX_CODE_LEN}]")
    return HuffmanCode(symbols=symbols, lengths=lengths), off + 9 * n


def huffman_encode(values: np.ndarray) -> bytes:
    """Encode an integer array; returns a self-contained byte string."""
    values = np.asarray(values).astype(np.int64, copy=False).ravel()
    if values.size == 0:
        return struct.pack("<IQ", 0, 0)
    uniq, idx, counts = np.unique(values, return_inverse=True, return_counts=True)
    code = _code_lengths(dict(zip(uniq.tolist(), counts.tolist())))
    lengths = code.lengths[idx]
    codewords = code.assign_codes()[idx]

    # Matrix-free bit packing into big-endian 64-bit words.  A codeword is
    # at most 48 bits, so it touches at most two words and every word holds
    # the start of at least one: the codewords starting in a word form a
    # contiguous run that one segmented OR folds, and at most one of them
    # (the last) spills its low bits into the successor word.
    ends = np.cumsum(lengths, dtype=np.int64)
    total_bits = int(ends[-1])
    offs = ends - lengths
    shift = 64 - (offs & 63) - lengths  # of the codeword's LSB; < 0 = spills
    spill = np.flatnonzero(shift < 0)
    part = codewords << np.maximum(shift, 0).astype(np.uint64)
    part[spill] = codewords[spill] >> (-shift[spill]).astype(np.uint64)
    first = np.flatnonzero(np.diff(offs >> 6, prepend=-1))
    words = np.zeros((total_bits + 63) >> 6, dtype=np.uint64)
    words[: first.size] = np.bitwise_or.reduceat(part, first)
    words[(offs[spill] >> 6) + 1] |= codewords[spill] << (64 + shift[spill]).astype(np.uint64)
    payload = words.astype(">u8").tobytes()[: (total_bits + 7) >> 3]

    return (
        struct.pack("<IQ", 1, values.size)
        + _serialize_code(code)
        + struct.pack("<Q", total_bits)
        + payload
    )


#: payload words whose 64 bit positions are classified per decode step —
#: bounds the decoder's temporaries (1 MiB of windows) whatever the stream
_BLOCK_WORDS = 2048
#: window prefix bits resolved by table; longer codes take the searchsorted
_LUT_BITS = 12
_LUT_SHIFT = np.uint64(64 - _LUT_BITS)
#: length marker of a window no codeword matches (incomplete codes only);
#: non-zero, so the successor walk still advances past it to the check
_INVALID = 255

_BIT = np.arange(64, dtype=np.uint64)
_RSHIFT = (64 - np.arange(_MAX_CODE_LEN + 1)).astype(np.uint64)


def _decode_tables(code: HuffmanCode):
    """Canonical tables over left-aligned 64-bit windows.

    Left-aligned, the first code of each length is the running Kraft sum
    scaled by 2^64, so a window's code length is found by comparing it
    with the last window of each length in use (``last``, ascending), and
    its rank among the symbols in canonical order is
    ``first_index[len] + ((window - base[len]) >> (64 - len))``.
    """
    count_by_len = np.bincount(code.lengths, minlength=_MAX_CODE_LEN + 1)
    present = np.flatnonzero(count_by_len)
    base = np.zeros(_MAX_CODE_LEN + 1, dtype=np.uint64)
    first_index = np.zeros(_MAX_CODE_LEN + 1, dtype=np.int64)
    last = []
    kraft = 0  # Python int: reaches 2**64 exactly for a complete code
    index = 0
    for ln, n in zip(present.tolist(), count_by_len[present].tolist()):
        if kraft + (n << (64 - ln)) > 1 << 64:
            raise CompressionError("Huffman code lengths are over-subscribed")
        base[ln] = kraft
        first_index[ln] = index
        kraft += n << (64 - ln)
        index += n
        last.append(kraft - 1)
    last = np.array(last, dtype=np.uint64)
    lens_of = np.append(present, _INVALID).astype(np.uint8)

    def classify(windows: np.ndarray) -> np.ndarray:
        return lens_of[np.searchsorted(last, windows)]

    # prefix short-cut: a _LUT_BITS prefix whose lowest and highest window
    # classify alike fixes the length; 0 sends the rest to ``classify``
    lo = np.arange(1 << _LUT_BITS, dtype=np.uint64) << _LUT_SHIFT
    hi = lo | ((np.uint64(1) << _LUT_SHIFT) - np.uint64(1))
    len_lo = classify(lo)
    lut = np.where(len_lo == classify(hi), len_lo, 0).astype(np.uint8)
    symbols = code.symbols[np.argsort(code.lengths, kind="stable")]
    return symbols, base, first_index, classify, lut


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode the byte string produced by :func:`huffman_encode`.

    Data-parallel canonical decoding: the code length of the codeword
    that *would* start at every bit position is classified with vector
    operations, the true starts are the orbit of bit 0 under
    ``p -> p + len[p]``, and symbols are gathered at those starts only.
    Any malformed stream raises :class:`CompressionError`.
    """
    if len(blob) < 12:
        raise CompressionError("Huffman header truncated")
    version, count = struct.unpack_from("<IQ", blob)
    if version > 1:
        raise CompressionError(f"unknown Huffman stream version {version}")
    if version == 0 or count == 0:
        return np.zeros(0, dtype=np.int64)
    code, off = _deserialize_code(blob, 12)
    if len(blob) < off + 8:
        raise CompressionError("Huffman header truncated")
    (total_bits,) = struct.unpack_from("<Q", blob, off)
    payload = bytes(blob[off + 8 :])
    if len(payload) != (total_bits + 7) >> 3 or count > total_bits:
        raise CompressionError(
            f"Huffman payload of {len(payload)} bytes does not hold "
            f"{count} symbols in {total_bits} recorded bits"
        )
    symbols, base, first_index, classify, lut = _decode_tables(code)

    n_words = (total_bits + 63) >> 6
    words = np.zeros(n_words + 1, dtype=np.uint64)  # +1: successor of the last
    words[:n_words] = np.frombuffer(payload.ljust(8 * n_words, b"\0"), dtype=">u8")
    if total_bits & 63 and words[n_words - 1] << np.uint64(total_bits & 63):
        raise CompressionError("Huffman payload padding bits are set")

    out = np.empty(count, dtype=np.int64)
    produced = 0
    pos = 0  # bit position of the next codeword start
    for w0 in range(0, n_words, _BLOCK_WORDS):
        blk = words[w0 : w0 + _BLOCK_WORDS + 1]
        bit0 = w0 << 6
        # left-aligned 64-bit window at each of the block's bit positions:
        # bit b of a word onwards, topped up from the successor word (shifted
        # by 1 + (63 - b), since a shift by 64 is undefined)
        windows = (blk[1:, None] >> np.uint64(1)) >> _BIT[::-1]
        windows |= blk[:-1, None] << _BIT
        windows = windows.ravel()
        lens = lut[(windows >> _LUT_SHIFT).astype(np.intp)]
        deep = np.flatnonzero(lens == 0)
        lens[deep] = classify(windows[deep])

        # successor walk: the only per-symbol Python loop, over one block
        step = lens.tobytes()
        end = min(windows.size, total_bits - bit0)
        p = pos - bit0
        starts = []
        while p < end:
            starts.append(p)
            p += step[p]
        pos = p + bit0

        starts = np.array(starts, dtype=np.intp)
        ln = lens[starts]
        if produced + starts.size > count or (ln == _INVALID).any():
            raise CompressionError("invalid Huffman stream")
        rank = first_index[ln] + ((windows[starts] - base[ln]) >> _RSHIFT[ln]).astype(np.int64)
        out[produced : produced + starts.size] = symbols[rank]
        produced += starts.size
    if produced != count or pos != total_bits:
        raise CompressionError(
            f"Huffman stream ended at bit {pos} of {total_bits} "
            f"after {produced} of {count} symbols"
        )
    return out
