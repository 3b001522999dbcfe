"""Streaming-assessment benchmarks: chunked throughput and the
bounded-memory claim, plus the data-parallel Huffman decoder."""

import numpy as np
import pytest

from repro.core.streaming import StreamingChecker
from repro.kernels.pattern1 import execute_pattern1
from repro.kernels.pattern3 import Pattern3Config


def test_streaming_wallclock(benchmark, bench_pair):
    orig, dec = bench_pair
    L = float(orig.max() - orig.min())

    def run():
        checker = StreamingChecker(
            orig.shape[1:], max_lag=5,
            ssim=Pattern3Config(window=8, dynamic_range=L),
        )
        for z in range(0, orig.shape[0], 4):
            checker.update(orig[z : z + 4], dec[z : z + 4])
        return checker.finalize()

    result = benchmark(run)
    batch, _ = execute_pattern1(orig, dec)
    assert result.pattern1.mse == pytest.approx(batch.mse, rel=1e-12)


def test_streaming_carry_is_bounded(bench_pair):
    """The checker's state never holds more than max_lag error slices
    plus one SSIM FIFO — independent of how many slices were streamed."""
    orig, dec = bench_pair
    checker = StreamingChecker(orig.shape[1:], max_lag=5)
    for z in range(orig.shape[0]):
        checker.update(orig[z : z + 1], dec[z : z + 1])
        assert len(checker._carry) <= 5
    checker.finalize()


@pytest.mark.parametrize("alphabet", [4, 1024, 1 << 17])
def test_huffman_decode_throughput(benchmark, alphabet, rng_seed=3):
    """Decode rate of the one vectorised canonical decoder across code
    depths: 2 and 10 bits sit below the 16-bit limit of the table decoder
    it replaced, the 2^17-ary alphabet (depth 18, like the default SZ
    configuration) above it, where decoding used to be a per-bit loop."""
    rng = np.random.default_rng(rng_seed)
    values = rng.integers(0, alphabet, size=200_000).astype(np.int64)
    from repro.compressors.huffman import huffman_decode, huffman_encode

    blob = huffman_encode(values)
    out = benchmark(huffman_decode, blob)
    assert np.array_equal(out, values)
