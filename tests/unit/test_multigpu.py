import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels.pattern1 import Pattern1Config, execute_pattern1
from repro.multigpu.checker import MultiGpuCuZC, merge_pattern1
from repro.multigpu.comm import NVLINK_V100, allreduce_time, halo_exchange_time
from repro.multigpu.partition import partition_z


class TestPartition:
    def test_even_split(self):
        parts = partition_z(100, 4)
        assert [p.owned for p in parts] == [25, 25, 25, 25]
        assert parts[0].z0 == 0 and parts[-1].z1 == 100

    def test_uneven_split_spreads_remainder(self):
        parts = partition_z(10, 3)
        assert [p.owned for p in parts] == [4, 3, 3]

    def test_contiguous_coverage(self):
        parts = partition_z(97, 5, halo=2)
        for a, b in zip(parts, parts[1:]):
            assert a.z1 == b.z0

    def test_halo_clipped_at_edges(self):
        parts = partition_z(20, 2, halo=7)
        assert parts[0].halo_lo == 0
        assert parts[0].halo_hi == 7
        assert parts[-1].halo_hi == 0

    def test_with_halo_extent(self):
        parts = partition_z(20, 2, halo=3)
        assert parts[1].with_halo == (10 - 3, 20)

    def test_too_many_gpus(self):
        with pytest.raises(ShapeError):
            partition_z(3, 4)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            partition_z(10, 0)
        with pytest.raises(ValueError):
            partition_z(10, 2, halo=-1)


class TestCommModel:
    def test_single_gpu_free(self):
        assert allreduce_time(1024, 1) == 0.0

    def test_allreduce_grows_with_size_and_ranks(self):
        assert allreduce_time(10**6, 4) < allreduce_time(10**7, 4)
        assert allreduce_time(10**6, 2) < allreduce_time(10**6, 8)

    def test_ring_model_formula(self):
        t = allreduce_time(8 * 10**6, 4)
        expected = 2 * 3 * (NVLINK_V100.latency + 2 * 10**6 / NVLINK_V100.bandwidth)
        assert t == pytest.approx(expected)

    def test_halo_exchange(self):
        assert halo_exchange_time(0) == 0.0
        assert halo_exchange_time(10**6) > NVLINK_V100.latency


class TestMultiGpuCuZC:
    def test_strong_scaling_speedup(self):
        shape = (512, 512, 512)
        t1 = MultiGpuCuZC(1).estimate(shape).total_seconds
        t4 = MultiGpuCuZC(4).estimate(shape).total_seconds
        assert t4 < t1
        assert MultiGpuCuZC(4).estimate(shape).scaling_efficiency(t1) > 0.5

    def test_halo_from_config(self):
        checker = MultiGpuCuZC(2)
        # max(autocorr lag 10, ssim window-1 = 7) = 10
        assert checker._halo() == 10

    def test_pattern1_merge_matches_single_device(self, banded_pair):
        orig, dec = banded_pair
        multi = MultiGpuCuZC(4).assess_pattern1(orig, dec)
        single, _ = execute_pattern1(orig, dec)
        assert multi.n == single.n
        assert multi.min_err == single.min_err
        assert multi.max_err == single.max_err
        assert multi.mse == pytest.approx(single.mse, rel=1e-12)
        assert multi.psnr == pytest.approx(single.psnr, rel=1e-12)
        assert multi.snr == pytest.approx(single.snr, rel=1e-12)
        assert multi.avg_pwr_err == pytest.approx(single.avg_pwr_err, rel=1e-10)
        assert multi.value_range == pytest.approx(single.value_range)

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_pattern1([])

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            MultiGpuCuZC(0)


class TestMergeDegenerateCases:
    """The cases ``finalize_rate_distortion`` decides, reached through the
    merge: whole-field and merged-from-ranks results must agree on them."""

    @staticmethod
    def _merged_and_whole(orig, dec, config=None, cut=5):
        ranks = [
            execute_pattern1(orig[sl], dec[sl], config)[0]
            for sl in (slice(0, cut), slice(cut, None))
        ]
        return merge_pattern1(ranks), execute_pattern1(orig, dec, config)[0]

    @staticmethod
    def _assert_same(merged, whole):
        got, want = merged.as_dict(), whole.as_dict()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, nan_ok=True), key

    def test_constant_field(self):
        orig = np.full((9, 6, 7), 2.5, np.float32)
        dec = orig + np.float32(1e-3)
        merged, whole = self._merged_and_whole(orig, dec)
        assert np.isnan(merged.psnr) and np.isnan(merged.nrmse)
        assert merged.snr == -np.inf
        self._assert_same(merged, whole)

    def test_one_lossless_rank_and_an_all_lossless_field(self, banded_pair):
        orig, dec = banded_pair
        dec = dec.copy()
        dec[:5] = orig[:5]  # rank 0 reconstructs exactly
        merged, whole = self._merged_and_whole(orig, dec)
        assert np.isfinite(merged.psnr)
        self._assert_same(merged, whole)
        merged, whole = self._merged_and_whole(orig, orig)
        assert merged.psnr == np.inf and merged.snr == np.inf and merged.nrmse == 0.0
        self._assert_same(merged, whole)

    def test_rank_entirely_under_pwr_floor(self, banded_pair):
        orig, dec = banded_pair
        orig, dec = orig.copy(), dec.copy()
        floor = 1e-3 * float(np.abs(orig).max())
        orig[:5] *= 1e-6  # every element of rank 0 falls under the floor
        dec[:5] = orig[:5]
        config = Pattern1Config(pwr_floor=floor)
        merged, whole = self._merged_and_whole(orig, dec, config)
        assert merged.extras["pwr_count"] == whole.extras["pwr_count"] > 0
        self._assert_same(merged, whole)
        # ... and when every rank is: the pwr family is zero, not inf/nan
        merged, whole = self._merged_and_whole(orig[:5], dec[:5], config, cut=2)
        assert merged.extras["pwr_count"] == 0
        assert (merged.min_pwr_err, merged.max_pwr_err, merged.avg_pwr_err) == (0, 0, 0)
        self._assert_same(merged, whole)
