"""The fused execution engine end to end: the backend choice must be a
pure performance knob — ``fused-host`` and ``metric-oriented`` (unfused)
assessments agree with each other and with the independent metric
references."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.schema import CheckerConfig
from repro.core.compare import compare_data, compare_data_2d
from repro.engine.plan import resolve_backend_name
from repro.kernels.pattern2 import Pattern2Config
from repro.kernels.pattern3 import Pattern3Config


def small_config(**kw):
    return CheckerConfig(
        pattern2=Pattern2Config(max_lag=3),
        pattern3=Pattern3Config(window=6),
        **kw,
    )


class TestFusedEqualsUnfused:
    @pytest.fixture(scope="class")
    def reports(self, banded_pair):
        orig, dec = banded_pair
        fused = compare_data(
            orig, dec, config=small_config(), with_baselines=False
        )
        unfused = compare_data(
            orig, dec, config=small_config(backend="metric-oriented"), with_baselines=False
        )
        return fused, unfused

    def test_scalars_agree(self, reports):
        fused, unfused = reports
        got, want = fused.scalars(), unfused.scalars()
        assert set(got) == set(want)
        for key, val in want.items():
            assert got[key] == pytest.approx(val, rel=1e-9), key

    def test_autocorrelation_agrees(self, reports):
        fused, unfused = reports
        assert np.allclose(
            fused.pattern2.autocorrelation,
            unfused.pattern2.autocorrelation,
            atol=1e-9,
        )

    def test_auxiliary_agrees(self, reports):
        fused, unfused = reports
        for key in ("pearson", "entropy", "mean", "std",
                    "spectral_mean_rel_err", "spectral_noise_frequency"):
            assert fused.auxiliary[key] == pytest.approx(
                unfused.auxiliary[key], rel=1e-9
            ), key

    def test_error_pdfs_agree(self, reports):
        fused, unfused = reports
        assert np.array_equal(
            fused.pattern1.err_pdf.bin_edges, unfused.pattern1.err_pdf.bin_edges
        )
        assert np.allclose(
            fused.pattern1.err_pdf.density,
            unfused.pattern1.err_pdf.density,
            rtol=1e-12,
        )

    def test_modelled_timings_agree(self, reports):
        """Fusion is host-side only: the paper's modelled costs are
        untouched (Fig. 10/11/12 benches keep reproducing)."""
        fused, unfused = reports
        assert (
            fused.timings["cuZC"].pattern_seconds
            == unfused.timings["cuZC"].pattern_seconds
        )

    def test_fused_is_default(self):
        assert resolve_backend_name(CheckerConfig()) == "fused-host"
        unfused = replace(CheckerConfig(), backend="metric-oriented")
        assert resolve_backend_name(unfused) == "metric-oriented"


class TestFusedVsReferences:
    def test_fused_matches_independent_metrics(self, noisy_pair):
        from repro.metrics import (
            SsimConfig,
            error_stats,
            pearson,
            rate_distortion,
            spatial_autocorrelation,
            ssim3d,
        )

        orig, dec = noisy_pair
        report = compare_data(
            orig, dec, config=small_config(), with_baselines=False
        )
        scalars = report.scalars()
        es = error_stats(orig, dec)
        rd = rate_distortion(orig, dec)
        assert scalars["min_err"] == es.min_err
        assert scalars["max_err"] == es.max_err
        assert scalars["mse"] == pytest.approx(rd.mse, rel=1e-12)
        assert scalars["psnr"] == pytest.approx(rd.psnr, rel=1e-12)
        assert scalars["ssim"] == pytest.approx(
            ssim3d(orig, dec, SsimConfig(window=6)).ssim, rel=1e-9
        )
        assert report.auxiliary["pearson"] == pytest.approx(
            pearson(orig, dec), rel=1e-12
        )
        e = dec.astype(np.float64) - orig.astype(np.float64)
        assert np.allclose(
            report.pattern2.autocorrelation,
            spatial_autocorrelation(e, 3),
            atol=1e-9,
        )


class TestCompareData2d:
    @pytest.fixture(scope="class")
    def plane_pair(self):
        rng = np.random.default_rng(17)
        orig = np.cumsum(rng.normal(size=(24, 30)), axis=0).astype(np.float32)
        dec = orig + rng.normal(scale=1e-2, size=orig.shape).astype(np.float32)
        return orig, dec

    def test_matches_independent_metrics(self, plane_pair):
        from repro.metrics import (
            SsimConfig,
            error_stats,
            pearson,
            rate_distortion,
        )
        from repro.metrics.twod import (
            derivative_metrics_2d,
            spatial_autocorrelation_2d,
            ssim2d,
        )

        orig, dec = plane_pair
        out = compare_data_2d(orig, dec, window=6, step=2, max_lag=4)
        es = error_stats(orig, dec)
        rd = rate_distortion(orig, dec)
        assert out["min_err"] == es.min_err
        assert out["max_err"] == es.max_err
        assert out["mse"] == pytest.approx(rd.mse, rel=1e-12)
        assert out["psnr"] == pytest.approx(rd.psnr, rel=1e-12)
        assert out["pearson"] == pytest.approx(pearson(orig, dec), rel=1e-12)
        assert out["ssim"] == pytest.approx(
            ssim2d(orig, dec, SsimConfig(window=6, step=2)).ssim, rel=1e-9
        )
        assert out["derivative_order1"] == pytest.approx(
            derivative_metrics_2d(orig, dec).rms_diff, rel=1e-10
        )
        e = dec.astype(np.float64) - orig.astype(np.float64)
        assert np.allclose(
            out["autocorrelation"], spatial_autocorrelation_2d(e, 4), atol=1e-10
        )
