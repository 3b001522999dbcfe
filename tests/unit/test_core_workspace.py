"""The shared metric workspace must equal the independent references.

The workspace is the host-side fusion cache every fused consumer reads
from; the :mod:`repro.metrics` functions are deliberately *not* routed
through it so they stay the oracle these tests compare against.
"""

import numpy as np
import pytest

from repro.core.workspace import MetricWorkspace, finalize_rate_distortion
from repro.errors import ConfigError, ShapeError
from repro.kernels.pattern1 import Pattern1Config, execute_pattern1
from repro.kernels.pattern2 import Pattern2Config, execute_pattern2
from repro.kernels.pattern3 import Pattern3Config, execute_pattern3
from repro.metrics import (
    data_properties,
    error_pdf,
    error_stats,
    pearson,
    pwr_error_stats,
    rate_distortion,
)


class TestWorkspaceVsReferences:
    def test_error_stats(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair)
        ref = error_stats(*noisy_pair)
        got = ws.error_stats()
        assert got.min_err == ref.min_err
        assert got.max_err == ref.max_err
        assert got.avg_err == pytest.approx(ref.avg_err, rel=1e-12, abs=1e-15)
        assert got.avg_abs_err == pytest.approx(ref.avg_abs_err, rel=1e-12)
        assert got.max_abs_err == ref.max_abs_err

    def test_rate_distortion(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair)
        ref = rate_distortion(*noisy_pair)
        got = ws.rate_distortion()
        assert got.mse == pytest.approx(ref.mse, rel=1e-12)
        assert got.rmse == pytest.approx(ref.rmse, rel=1e-12)
        assert got.nrmse == pytest.approx(ref.nrmse, rel=1e-12)
        assert got.psnr == pytest.approx(ref.psnr, rel=1e-12)
        assert got.snr == pytest.approx(ref.snr, rel=1e-12)
        assert got.value_range == ref.value_range

    def test_pwr_error_stats(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair, pwr_floor=0.5)
        ref = pwr_error_stats(*noisy_pair, floor=0.5)
        got = ws.pwr_error_stats()
        assert got.min_pwr_err == pytest.approx(ref.min_pwr_err, rel=1e-12)
        assert got.max_pwr_err == pytest.approx(ref.max_pwr_err, rel=1e-12)
        assert got.avg_pwr_err == pytest.approx(ref.avg_pwr_err, rel=1e-10)
        assert got.excluded == ref.excluded

    def test_pearson(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair)
        assert ws.pearson() == pytest.approx(pearson(*noisy_pair), rel=1e-12)

    def test_data_properties(self, noisy_pair):
        orig, dec = noisy_pair
        ws = MetricWorkspace(orig, dec)
        ref = data_properties(orig)
        got = ws.data_properties()
        assert got.min_value == ref.min_value
        assert got.max_value == ref.max_value
        assert got.mean == pytest.approx(ref.mean, rel=1e-12)
        assert got.std == pytest.approx(ref.std, rel=1e-12)
        assert got.entropy == pytest.approx(ref.entropy, rel=1e-12)
        assert got.zeros == ref.zeros
        assert got.n_elements == ref.n_elements

    def test_err_pdf(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair)
        ref = error_pdf(*noisy_pair)
        got = ws.err_pdf()
        assert np.array_equal(got.bin_edges, ref.bin_edges)
        assert np.allclose(got.density, ref.density, rtol=1e-12)

    def test_identical_inputs_degenerate(self, smooth_field):
        ws = MetricWorkspace(smooth_field, smooth_field.copy())
        assert ws.mse == 0.0
        assert ws.rate_distortion().psnr == np.inf
        assert ws.pearson() == pytest.approx(1.0, rel=1e-12)

    def test_constant_field_degenerate(self):
        orig = np.full((4, 5, 6), 3.0, dtype=np.float32)
        ws = MetricWorkspace(orig, orig + np.float32(0.25))
        rd = ws.rate_distortion()
        assert rd.value_range == 0.0
        assert np.isnan(rd.psnr)


class TestWorkspaceCaching:
    def test_arrays_materialised_once(self, noisy_pair):
        ws = MetricWorkspace(*noisy_pair)
        assert ws.err is ws.err
        assert ws.d64 is ws.d64
        assert ws.o64 is ws.o64
        assert ws.moments is ws.moments

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            MetricWorkspace(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            MetricWorkspace(np.zeros(0), np.zeros(0))

    def test_finalize_rate_distortion_lossless(self):
        rd = finalize_rate_distortion(100, 0.0, 5.0, 1.0)
        assert rd.psnr == np.inf
        assert rd.nrmse == 0.0


class TestFusedKernelsEqualLegacy:
    """Each pattern kernel's workspace fast path equals its blocked path."""

    def test_pattern1(self, banded_pair):
        orig, dec = banded_pair
        ws = MetricWorkspace(orig, dec)
        legacy, _ = execute_pattern1(orig, dec)
        fused, _ = execute_pattern1(orig, dec, workspace=ws)
        assert fused.n == legacy.n
        assert fused.min_err == legacy.min_err
        assert fused.max_err == legacy.max_err
        assert fused.mse == pytest.approx(legacy.mse, rel=1e-12)
        assert fused.psnr == pytest.approx(legacy.psnr, rel=1e-12)
        assert fused.avg_pwr_err == pytest.approx(legacy.avg_pwr_err, rel=1e-10)

    def test_pattern1_pwr_floor_mismatch_rejected(self, banded_pair):
        ws = MetricWorkspace(*banded_pair, pwr_floor=0.1)
        with pytest.raises(ConfigError):
            execute_pattern1(*banded_pair, Pattern1Config(pwr_floor=0.2), workspace=ws)

    def test_pattern2(self, banded_pair):
        orig, dec = banded_pair
        ws = MetricWorkspace(orig, dec)
        cfg = Pattern2Config(max_lag=4)
        legacy, _ = execute_pattern2(orig, dec, cfg)
        fused, _ = execute_pattern2(orig, dec, cfg, workspace=ws)
        for attr in ("der1", "der2", "divergence", "laplacian"):
            lg, fu = getattr(legacy, attr), getattr(fused, attr)
            assert fu.mean_orig == pytest.approx(lg.mean_orig, rel=1e-12)
            assert fu.mean_dec == pytest.approx(lg.mean_dec, rel=1e-12)
            assert fu.rms_diff == pytest.approx(lg.rms_diff, rel=1e-12)
            assert fu.max_diff == lg.max_diff
        assert np.allclose(
            fused.autocorrelation, legacy.autocorrelation, atol=1e-10
        )

    def test_pattern3(self, banded_pair):
        orig, dec = banded_pair
        ws = MetricWorkspace(orig, dec)
        cfg = Pattern3Config(window=6)
        legacy, _ = execute_pattern3(orig, dec, cfg)
        fused, _ = execute_pattern3(orig, dec, cfg, workspace=ws)
        assert fused.n_windows == legacy.n_windows
        assert fused.ssim == pytest.approx(legacy.ssim, rel=1e-9)
        assert fused.min_window_ssim == pytest.approx(
            legacy.min_window_ssim, rel=1e-9
        )
        assert fused.max_window_ssim == pytest.approx(
            legacy.max_window_ssim, rel=1e-9
        )

    def test_modelled_costs_unchanged_by_workspace(self, banded_pair):
        """The fused host path must not alter the paper's modelled numbers."""
        orig, dec = banded_pair
        ws = MetricWorkspace(orig, dec)
        _, stats_legacy = execute_pattern1(orig, dec)
        _, stats_fused = execute_pattern1(orig, dec, workspace=ws)
        assert stats_fused == stats_legacy
        _, s2_legacy = execute_pattern2(orig, dec, Pattern2Config(max_lag=4))
        _, s2_fused = execute_pattern2(
            orig, dec, Pattern2Config(max_lag=4), workspace=ws
        )
        assert s2_fused == s2_legacy
