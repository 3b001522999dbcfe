"""Differential tests: data-parallel decoder == per-bit oracle == input.

The oracle (``tests/huffman_reference.decode_bitwise``) is the decoder
the package used to ship; it walks the stream one bit at a time and knows
nothing of windows, bounds tables or blocks.  The decode block is shrunk
to one or two 64-bit words in most examples so that codewords straddle
block boundaries even in streams of a few hundred bits.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.compressors.huffman as huffman
from repro.compressors.huffman import huffman_decode, huffman_encode
from tests.huffman_reference import decode_bitwise, fibonacci_code, parse_stream, scrambled

SETTINGS = settings(max_examples=30, deadline=None)
SENTINEL = -(32768 + 1)  # SZCompressor's outlier marker at the default radius

block_words = st.sampled_from([1, 2, 3, huffman._BLOCK_WORDS])


def assert_all_agree(blob: bytes, values: np.ndarray, words: int = 1) -> None:
    with mock.patch.object(huffman, "_BLOCK_WORDS", words):
        decoded = huffman_decode(blob)
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, values)
    assert np.array_equal(decode_bitwise(blob), values)


def deep_alphabet(depth: int, offset: int) -> np.ndarray:
    """``depth + 1`` ascending symbols: a far-off sentinel, then a run
    straddling ``offset`` (negatives and positives when it is small)."""
    return np.concatenate(([SENTINEL], np.arange(depth) - depth // 2)) + offset


class TestDeepCodes:
    @SETTINGS
    @given(
        depth=st.sampled_from([17, 33, 48]),
        offset=st.integers(-(2**40), 2**40),
        picks=st.lists(st.integers(0, 48), min_size=0, max_size=300),
        words=block_words,
    )
    def test_fibonacci_depths(self, depth, offset, picks, words):
        alphabet = deep_alphabet(depth, offset)
        # every symbol once (so the code really has depth + 1 leaves), then
        # the drawn ranks: low ranks are the 48-bit codewords
        drawn = np.array(picks, dtype=np.int64) % (depth + 1)
        values = alphabet[np.concatenate((np.arange(depth + 1), drawn))]
        with fibonacci_code():
            blob = huffman_encode(values)
        assert parse_stream(blob)[2].max() == depth
        assert_all_agree(blob, values, words)

    @pytest.mark.parametrize("start", [0, 16, 17, 40, 63])
    def test_codeword_straddling_a_word(self, start):
        """A 48-bit codeword starting ``start`` bits into a word: from
        bit 17 on it spills into the successor word."""
        alphabet = deep_alphabet(48, 0)
        # rank 48 has the 1-bit codeword, rank 0 a 48-bit one; the other
        # ranks follow once each so the code keeps all 49 leaves
        values = alphabet[np.concatenate((np.full(start, 48), [0], np.arange(1, 49)))]
        with fibonacci_code():
            blob = huffman_encode(values)
        for words in (1, 2, huffman._BLOCK_WORDS):
            assert_all_agree(blob, values, words)

    @pytest.mark.parametrize("boundary", [8, 64])
    @pytest.mark.parametrize("depth", [17, 48])
    def test_stream_ending_on_a_boundary(self, depth, boundary):
        alphabet = deep_alphabet(depth, 0)
        body = alphabet[np.concatenate((np.arange(depth + 1), scrambled(200, 16) % (depth + 1)))]
        with fibonacci_code():
            total_bits = parse_stream(huffman_encode(body))[3]
            # the highest rank has the 1-bit codeword: pad with it
            values = np.concatenate((body, np.full(-total_bits % boundary, alphabet[-1])))
            blob = huffman_encode(values)
        assert parse_stream(blob)[3] % boundary == 0
        for words in (1, huffman._BLOCK_WORDS):
            assert_all_agree(blob, values, words)


class TestDegenerateStreams:
    @SETTINGS
    @given(
        symbol=st.sampled_from([0, 1, -1, SENTINEL, 2**62, -(2**63)]),
        count=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 500]),
        words=block_words,
    )
    def test_single_symbol_alphabet(self, symbol, count, words):
        values = np.full(count, symbol, dtype=np.int64)
        blob = huffman_encode(values)
        assert parse_stream(blob)[3] == count  # one bit each
        assert_all_agree(blob, values, words)

    @SETTINGS
    @given(
        hnp.arrays(np.int64, st.integers(1, 400), elements=st.sampled_from([-3, SENTINEL, 0, 5])),
        block_words,
    )
    def test_tiny_alphabets(self, values, words):
        assert_all_agree(huffman_encode(values), values, words)

    @SETTINGS
    @given(
        hnp.arrays(np.int64, st.integers(1, 400), elements=st.integers(-(2**62), 2**62)),
        block_words,
    )
    def test_wide_sparse_alphabets(self, values, words):
        assert_all_agree(huffman_encode(values), values, words)


class TestMultiBlockStreams:
    """Inputs larger than one decode block at the production block size."""

    def test_uniform_stream_spans_blocks(self):
        values = scrambled(60_000, 8) - 128
        blob = huffman_encode(values)
        assert parse_stream(blob)[3] > 3 * 64 * huffman._BLOCK_WORDS
        assert_all_agree(blob, values, huffman._BLOCK_WORDS)

    def test_deep_stream_spans_blocks(self):
        values = deep_alphabet(40, -20)[scrambled(20_000, 20) % 41]
        with fibonacci_code():
            blob = huffman_encode(values)
        assert parse_stream(blob)[3] > 2 * 64 * huffman._BLOCK_WORDS
        assert_all_agree(blob, values, huffman._BLOCK_WORDS)

    def test_peaked_stream_ends_on_block_boundary(self):
        """A block that ends exactly where the stream does."""
        values = np.zeros(64 * huffman._BLOCK_WORDS, dtype=np.int64)
        blob = huffman_encode(values)
        assert_all_agree(blob, values, huffman._BLOCK_WORDS)
