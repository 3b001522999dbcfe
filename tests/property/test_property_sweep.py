"""Differential suite for the z-slab sweeps (paper §IV-B, host edition).

The SSIM sweep (``kernels.pattern3.ssim_sweep``) must equal both
independent oracles — the cumsum-cascade ``ssim3d`` and the explicit
``ssim3d_naive`` — for every window 2–9 (non powers of two included),
step 1–4, input dtype, and slab depth, with windows straddling every
slab seam; the ``out=`` stencil and the slab-wise slice partials must
equal their whole-array formulas.

``TOLERANCES`` is the one table of per-metric tolerances this suite,
``test_property_streamed_ssim.py`` and ``tests/unit/test_sweeps.py`` rely
on; DESIGN §6 repeats it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workspace import MetricWorkspace, ScratchPool
from repro.kernels.pattern2 import (
    STENCIL_BUFFERS,
    Pattern2Config,
    execute_pattern2,
    stencil_fields_local,
)
from repro.kernels.pattern3 import Pattern3Config, ssim_sweep
from repro.metrics.derivatives import derivative_metrics
from repro.metrics.ssim import SsimConfig, ssim3d, ssim3d_naive

#: absolute tolerances (every quantity is O(1)); ``0.0`` means bit-exact
TOLERANCES = {
    # sweep vs either oracle, ``ssim3d`` (cumsum cascade) or
    # ``ssim3d_naive`` (explicit per-window centring), on zero-mean
    # unit-variance fields; measured worst case over 1500 random cases
    # is 9e-16 / 4e-15
    "ssim_mean": 1e-12,
    "ssim_extrema": 1e-10,
    # sweep at any slab depth vs any other: same per-slice passes
    "ssim_across_depths": 0.0,
    # ``StreamingChecker`` (same slice stage, ring reduced per window and
    # totalled in stream order) vs either oracle, fresh or resumed from a
    # ring the summed-area-table slice stage wrote; and across chunkings /
    # ``state_dict`` round trips (``test_property_streamed_ssim.py``)
    "ssim_streamed": 1e-12,
    "ssim_across_chunkings": 0.0,
    # slab-parallel (`prime -> update -> merge_state`) vs one uninterrupted
    # ``StreamingChecker``: SSIM at the streamed row above, every other
    # scalar and AC(tau) here (relative; sums regroup per slab, measured
    # worst case 1.4e-14 abs); integer registers are exactly equal
    "slab_merge_scalars": 1e-9,
    # pattern-2 comparisons vs ``derivative_metrics`` (relative)
    "pattern2_rel": 1e-10,
    # stencil field values at any block depth vs the one-shot formula
    "stencil_fields": 0.0,
    # slab-wise slice partials vs the whole-array row sums
    "slice_partials": 0.0,
}

SETTINGS = settings(max_examples=60, deadline=None)
DTYPES = (np.float16, np.float32, np.float64)


def _pair(shape, seed, dtype=np.float32, mean=0.0, scale=0.05):
    rng = np.random.default_rng(seed)
    orig = rng.normal(mean, 1.0, size=shape).astype(dtype)
    dec = (orig + rng.normal(scale=scale, size=shape)).astype(dtype)
    return orig, dec


def _sweep(orig, dec, window, step, slab_depth=None, dynamic_range=None):
    config = Pattern3Config(window=window, step=step, yrows=max(12, window))
    if dynamic_range is None:
        dynamic_range = float(orig.max()) - float(orig.min())
    return ssim_sweep(orig, dec, config, dynamic_range, ScratchPool(), slab_depth)


def _values(result):
    return (
        result.ssim,
        result.min_window_ssim,
        result.max_window_ssim,
        result.n_windows,
    )


def _assert_close(got, want, mean_tol, extrema_tol):
    assert got.n_windows == want.n_windows
    assert got.ssim == pytest.approx(want.ssim, abs=mean_tol, rel=0)
    assert got.min_window_ssim == pytest.approx(
        want.min_window_ssim, abs=extrema_tol, rel=0
    )
    assert got.max_window_ssim == pytest.approx(
        want.max_window_ssim, abs=extrema_tol, rel=0
    )


@st.composite
def sweep_cases(draw):
    window = draw(st.integers(2, 9))
    step = draw(st.integers(1, 4))
    # nz == window (a single window slice) up to three windows deep
    nz = window + draw(st.integers(0, 2 * window))
    ny = window + draw(st.integers(0, 6))
    nx = window + draw(st.integers(0, 6))
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(0, 2**16))
    return (nz, ny, nx), window, step, dtype, seed


class TestSweepEqualsOracles:
    @SETTINGS
    @given(sweep_cases())
    def test_every_depth_equals_both_oracles(self, case):
        shape, window, step, dtype, seed = case
        orig, dec = _pair(shape, seed, dtype)
        cfg = SsimConfig(window=window, step=step)
        fast = ssim3d(orig, dec, cfg)
        naive = ssim3d_naive(orig, dec, cfg)
        auto = _sweep(orig, dec, window, step)
        for oracle in (fast, naive):
            _assert_close(
                auto, oracle, TOLERANCES["ssim_mean"], TOLERANCES["ssim_extrema"]
            )
        # forced depths put a slab seam through every window position
        assert TOLERANCES["ssim_across_depths"] == 0.0
        for depth in (1, 2, 3, shape[0]):
            assert _values(_sweep(orig, dec, window, step, depth)) == _values(auto)

    @pytest.mark.parametrize("window", range(2, 10))
    def test_nz_equals_window(self, window):
        orig, dec = _pair((window, window + 3, window + 1), seed=window)
        for step in (1, 3):
            got = _sweep(orig, dec, window, step, slab_depth=2)
            want = ssim3d(orig, dec, SsimConfig(window=window, step=step))
            _assert_close(
                got, want, TOLERANCES["ssim_mean"], TOLERANCES["ssim_extrema"]
            )

    @pytest.mark.parametrize("window", range(2, 10))
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_identical_constant_fields_score_exactly_one(self, window, dtype):
        field = np.full((window + 4, window + 2, window + 3), 3.0, dtype=dtype)
        for depth in (1, 3, None):
            got = _sweep(field, field.copy(), window, 1, depth)
            assert _values(got) == (1.0, 1.0, 1.0, 5 * 3 * 4)

    @pytest.mark.parametrize("window,step", [(8, 1), (5, 2), (3, 3)])
    def test_distinct_constant_fields(self, window, step):
        orig = np.full((12, 11, 10), 2.0, dtype=np.float32)
        dec = np.full((12, 11, 10), 2.5, dtype=np.float32)
        got = _sweep(orig, dec, window, step, slab_depth=2)
        want = ssim3d(orig, dec, SsimConfig(window=window, step=step))
        _assert_close(got, want, TOLERANCES["ssim_mean"], TOLERANCES["ssim_extrema"])

    def test_large_offset_no_worse_than_the_cumsum_cascade(self):
        """mean >> std: a prefix sum runs as long as the axis (300 here)
        before the window difference cancels it, the sweep never adds
        more than ``w`` terms per axis.  Summed over six fields and two
        windows (single cases are dominated by E[x²]-E[x]² noise common
        to both), the sweep must be at least as close to the naive
        oracle — measured ~25x closer."""
        sweep_err = cascade_err = 0.0
        for seed in range(6):
            orig, dec = _pair((16, 24, 300), seed, np.float64, mean=1e4)
            for window, step in ((8, 4), (6, 3)):
                cfg = SsimConfig(window=window, step=step)
                naive = ssim3d_naive(orig, dec, cfg).ssim
                sweep_err += abs(_sweep(orig, dec, window, step).ssim - naive)
                cascade_err += abs(ssim3d(orig, dec, cfg).ssim - naive)
        assert sweep_err <= cascade_err


class TestStencilAndPartials:
    @SETTINGS
    @given(
        st.tuples(st.integers(3, 9), st.integers(3, 8), st.integers(3, 8)),
        st.integers(0, 2**16),
    )
    def test_out_stencil_equals_formula_at_every_depth(self, shape, seed):
        """Block depth must not change a single field value."""
        rng = np.random.default_rng(seed)
        f = rng.normal(size=shape)
        c = f[1:-1, 1:-1, 1:-1]
        dz = (f[2:, 1:-1, 1:-1] - f[:-2, 1:-1, 1:-1]) / 2.0
        dy = (f[1:-1, 2:, 1:-1] - f[1:-1, :-2, 1:-1]) / 2.0
        dx = (f[1:-1, 1:-1, 2:] - f[1:-1, 1:-1, :-2]) / 2.0
        dzz = f[2:, 1:-1, 1:-1] - 2 * c + f[:-2, 1:-1, 1:-1]
        dyy = f[1:-1, 2:, 1:-1] - 2 * c + f[1:-1, :-2, 1:-1]
        dxx = f[1:-1, 1:-1, 2:] - 2 * c + f[1:-1, 1:-1, :-2]
        want = (
            np.sqrt(dx * dx + dy * dy + dz * dz),
            np.sqrt(dxx * dxx + dyy * dyy + dzz * dzz),
            dz + dy + dx,
            dzz + dyy + dxx,
        )
        rows = shape[0] - 2
        assert TOLERANCES["stencil_fields"] == 0.0
        for depth in (1, 2, rows):
            out = np.empty((STENCIL_BUFFERS, depth, shape[1] - 2, shape[2] - 2))
            for r0 in range(0, rows, depth):
                n = min(depth, rows - r0)
                got = stencil_fields_local(f[r0 : r0 + n + 2], out[:, :n])
                for g, w in zip(got, want):
                    assert np.array_equal(g, w[r0 : r0 + n])

    @SETTINGS
    @given(
        st.tuples(st.integers(1, 9), st.integers(1, 7), st.integers(1, 7)),
        st.sampled_from(DTYPES),
        st.integers(0, 2**16),
    )
    def test_slice_partials_bit_exact(self, shape, dtype, seed):
        orig, dec = _pair(shape, seed, dtype)
        o = orig.astype(np.float64).reshape(shape[0], -1)
        d = dec.astype(np.float64).reshape(shape[0], -1)
        e = d - o
        want = {
            "sum_e": e.sum(axis=1),
            "sum_abs_e": np.abs(e).sum(axis=1),
            "sum_sq_e": (e * e).sum(axis=1),
            "sum_o": o.sum(axis=1),
            "sum_sq_o": (o * o).sum(axis=1),
            "sum_d": d.sum(axis=1),
            "sum_sq_d": (d * d).sum(axis=1),
            "sum_od": (o * d).sum(axis=1),
        }
        assert TOLERANCES["slice_partials"] == 0.0
        got = MetricWorkspace(orig, dec, scratch=ScratchPool()).slice_partials
        assert set(got) == set(want)
        for key, values in want.items():
            assert np.array_equal(got[key], values), key

    @pytest.mark.parametrize("nz", (5, 15, 16, 28, 33))
    def test_pattern2_matches_reference_across_sub_slabs(self, nz):
        """Planes of 50x50 float64 fit 13 rows into a slab buffer, so
        these depths end on, before and after a sub-slab seam."""
        orig, dec = _pair((nz, 50, 50), seed=nz, scale=0.01)
        ws = MetricWorkspace(orig, dec, scratch=ScratchPool())
        fused, _ = execute_pattern2(orig, dec, Pattern2Config(max_lag=1), workspace=ws)
        alone, _ = execute_pattern2(orig, dec, Pattern2Config(max_lag=1))
        rel = TOLERANCES["pattern2_rel"]
        for order, name in ((1, "der1"), (2, "der2")):
            ref = derivative_metrics(orig, dec, order)
            for result in (fused, alone):
                got = getattr(result, name)
                for attr in ("mean_orig", "mean_dec", "rms_diff", "max_diff"):
                    assert getattr(got, attr) == pytest.approx(
                        getattr(ref, attr), rel=rel
                    ), (name, attr)
        assert math.isfinite(fused.laplacian.rms_diff)
