"""Streaming assessment must equal the batch kernels for any chunking."""

import numpy as np
import pytest

from repro.core.streaming import StreamingChecker
from repro.errors import CheckerError, ShapeError
from repro.kernels.pattern1 import execute_pattern1
from repro.kernels.pattern3 import Pattern3Config, execute_pattern3
from repro.metrics.autocorrelation import spatial_autocorrelation


def feed(checker, orig, dec, chunks):
    start = 0
    for size in chunks:
        checker.update(orig[start : start + size], dec[start : start + size])
        start += size
    assert start == orig.shape[0]
    return checker.finalize()


@pytest.fixture(scope="module")
def stream_pair():
    from repro.compressors.sz import SZCompressor
    from repro.datasets.synthetic import spectral_field

    orig = spectral_field((24, 20, 22), slope=3.0, seed=13, mean=2.0)
    comp = SZCompressor(rel_bound=1e-3)
    return orig, comp.decompress(comp.compress(orig))


CHUNKINGS = [
    [24],
    [1] * 24,
    [5, 5, 5, 5, 4],
    [3, 11, 2, 8],
]


class TestStreamingEquivalence:
    @pytest.mark.parametrize("chunks", CHUNKINGS)
    def test_pattern1_exact(self, stream_pair, chunks):
        orig, dec = stream_pair
        checker = StreamingChecker((20, 22), max_lag=0)
        result = feed(checker, orig, dec, chunks)
        batch, _ = execute_pattern1(orig, dec)
        s = result.pattern1
        assert s.min_err == batch.min_err
        assert s.max_err == batch.max_err
        assert s.mse == pytest.approx(batch.mse, rel=1e-12)
        assert s.psnr == pytest.approx(batch.psnr, rel=1e-12)
        assert s.snr == pytest.approx(batch.snr, rel=1e-12)
        assert s.avg_pwr_err == pytest.approx(batch.avg_pwr_err, rel=1e-10)

    @pytest.mark.parametrize("chunks", CHUNKINGS)
    def test_autocorrelation_exact(self, stream_pair, chunks):
        orig, dec = stream_pair
        checker = StreamingChecker((20, 22), max_lag=5)
        result = feed(checker, orig, dec, chunks)
        e = dec.astype(np.float64) - orig.astype(np.float64)
        ref = spatial_autocorrelation(e, 5)
        assert np.allclose(result.autocorrelation, ref, atol=1e-10)

    @pytest.mark.parametrize("chunks", CHUNKINGS)
    def test_ssim_exact_with_fixed_range(self, stream_pair, chunks):
        orig, dec = stream_pair
        L = float(orig.max() - orig.min())
        cfg = Pattern3Config(window=6, step=1, dynamic_range=L)
        checker = StreamingChecker((20, 22), max_lag=0, ssim=cfg)
        result = feed(checker, orig, dec, chunks)
        batch, _ = execute_pattern3(orig, dec, cfg)
        assert result.ssim == pytest.approx(batch.ssim, rel=1e-12)

    def test_everything_at_once(self, stream_pair):
        orig, dec = stream_pair
        L = float(orig.max() - orig.min())
        checker = StreamingChecker(
            (20, 22), max_lag=4,
            ssim=Pattern3Config(window=6, dynamic_range=L),
        )
        result = feed(checker, orig, dec, [7, 9, 8])
        assert result.ssim is not None
        assert result.autocorrelation is not None
        assert "mse" in result.scalars()


class TestStreamingValidation:
    def test_ssim_requires_dynamic_range(self):
        with pytest.raises(CheckerError):
            StreamingChecker((16, 16), ssim=Pattern3Config(window=6))

    def test_chunk_shape_mismatch(self, stream_pair):
        orig, dec = stream_pair
        checker = StreamingChecker((20, 22))
        with pytest.raises(ShapeError):
            checker.update(orig[:2, :, :-1], dec[:2, :, :-1])

    def test_empty_stream_rejected(self):
        checker = StreamingChecker((16, 16))
        with pytest.raises(CheckerError):
            checker.finalize()

    def test_update_after_finalize_rejected(self, stream_pair):
        orig, dec = stream_pair
        checker = StreamingChecker((20, 22))
        checker.update(orig, dec)
        checker.finalize()
        with pytest.raises(CheckerError):
            checker.update(orig[:1], dec[:1])

    def test_stream_shorter_than_window(self, stream_pair):
        orig, dec = stream_pair
        cfg = Pattern3Config(window=8, dynamic_range=1.0)
        checker = StreamingChecker((20, 22), ssim=cfg)
        checker.update(orig[:4], dec[:4])
        with pytest.raises(CheckerError, match="before one full SSIM window"):
            checker.finalize()
        # the failed finalize did not close the stream: feed the rest
        checker.update(orig[4:], dec[4:])
        whole = StreamingChecker((20, 22), ssim=cfg)
        whole.update(orig, dec)
        assert checker.finalize().ssim == whole.finalize().ssim

    def test_lag_exceeding_plane_rejected(self):
        with pytest.raises(ShapeError):
            StreamingChecker((4, 4), max_lag=4)

    def test_carry_memory_bounded(self, stream_pair):
        """The carry never holds more than max_lag slices."""
        orig, dec = stream_pair
        checker = StreamingChecker((20, 22), max_lag=3)
        checker.update(orig, dec)
        assert len(checker._carry) == 3
