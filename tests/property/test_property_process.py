"""Hypothesis properties of the process executor.

The contract under test is *bit-identity*: farming work to spawn-pool
workers over shared memory must reproduce the serial numbers exactly —
same bytes in, same per-slab operation order, same bits out — across
metric subsets, odd field extents, and uneven slab seams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.schema import CheckerConfig
from repro.kernels.pattern2 import Pattern2Config
from repro.kernels.pattern3 import Pattern3Config
from repro.parallel import (
    parallel_compare_pairs,
    parallel_stream_field,
    process_available,
    warm_process_pool,
)

pytestmark = pytest.mark.skipif(
    not process_available(), reason="platform cannot run the process executor"
)

SETTINGS = settings(max_examples=6, deadline=None)

METRIC_SUBSETS = (
    "all",
    ("psnr", "nrmse"),
    ("psnr", "ssim", "autocorrelation"),
    ("min_err", "max_err", "value_range", "pearson"),
)


@pytest.fixture(scope="module", autouse=True)
def warm_pool():
    # one spawn + import per worker, amortised over every example
    warm_process_pool(2)


def _field_pair(seed: int, shape):
    rng = np.random.default_rng(seed)
    orig = rng.normal(size=shape).astype(np.float32)
    dec = (orig + rng.normal(scale=1e-3, size=shape)).astype(np.float32)
    return orig, dec


class TestProcessBatchBitIdentical:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        metrics=st.sampled_from(METRIC_SUBSETS),
        nz=st.integers(8, 13),
    )
    def test_matches_serial(self, seed, metrics, nz):
        config = CheckerConfig(
            metrics=metrics,
            pattern2=Pattern2Config(max_lag=3),
            pattern3=Pattern3Config(window=6),
        )
        pairs = [
            (f"f{i}", *_field_pair(seed + i, (nz, 10, 12))) for i in range(3)
        ]
        serial = parallel_compare_pairs(pairs, config=config, workers=1)
        proc = parallel_compare_pairs(
            pairs, config=config, workers=2, executor="process"
        )
        assert list(proc.reports) == list(serial.reports)
        for name in serial.reports:
            assert serial.reports[name].scalars() == proc.reports[name].scalars()
            s2, p2 = serial.reports[name].pattern2, proc.reports[name].pattern2
            if s2 is not None:
                assert np.array_equal(s2.autocorrelation, p2.autocorrelation)


class TestProcessSlabsBitIdentical:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        nz=st.integers(9, 19),  # odd extents force uneven slab seams
        workers=st.integers(2, 4),
        max_lag=st.integers(1, 4),
    )
    def test_matches_serial_slabs(self, seed, nz, workers, max_lag):
        orig, dec = _field_pair(seed, (nz, 10, 12))
        span = float(orig.max() - orig.min()) or 1.0
        kwargs = dict(
            max_lag=max_lag,
            ssim=Pattern3Config(window=6, dynamic_range=span),
        )
        # executor="serial" runs the *same* slab decomposition in-process,
        # so equality here is exact, not approximate
        serial = parallel_stream_field(
            orig, dec, workers=workers, executor="serial", **kwargs
        )
        proc = parallel_stream_field(
            orig, dec, workers=workers, executor="process", **kwargs
        )
        assert serial.ssim == proc.ssim
        assert serial.pattern1.psnr == proc.pattern1.psnr
        assert serial.pattern1.nrmse == proc.pattern1.nrmse
        assert np.array_equal(serial.autocorrelation, proc.autocorrelation)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        window=st.integers(2, 9),
        step=st.integers(1, 4),
        max_lag=st.integers(0, 4),
        dtype=st.sampled_from((np.float16, np.float32, np.float64)),
    )
    def test_halo_spanning_several_slabs(self, seed, window, step, max_lag, dtype):
        # 4 slabs of 1-3 slices: the halo of a window >= 7 spans 3 slabs
        orig, dec = _field_pair(seed, (window + 3, 10, 12))
        orig, dec = orig.astype(dtype), dec.astype(dtype)
        kwargs = dict(
            max_lag=max_lag,
            ssim=Pattern3Config(window=window, step=step, dynamic_range=8.0),
            workers=4,
        )
        serial = parallel_stream_field(orig, dec, executor="serial", **kwargs)
        proc = parallel_stream_field(orig, dec, executor="process", **kwargs)
        assert serial.scalars() == proc.scalars()
        if max_lag:
            assert np.array_equal(serial.autocorrelation, proc.autocorrelation)
