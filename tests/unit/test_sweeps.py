"""The z-slab sweeps' contracts beyond value equality (which
``tests/property/test_property_sweep.py`` owns): one non-finite rule on
every SSIM path, a scratch pool bounded by the largest shape seen, no
arena aliasing between threads, and spans that say what the sweep did.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.config.defaults import default_config
from repro.core.compare import compare_data
from repro.core.workspace import (
    SLAB_BYTES,
    ScratchPool,
    clear_scratch_pools,
    default_scratch_pool,
    scratch_pool_bytes,
)
from repro.kernels.pattern3 import Pattern3Config, ssim_sweep
from repro.service.session import CheckerSession
from repro.telemetry.tracer import Tracer

SHAPE = (12, 14, 13)

#: every way an assessment reaches the SSIM sweep.  SSIM runs alone where
#: it can — the pattern-1 histograms and the rate-distortion logs reject
#: non-finite moments before SSIM is reached — but tiling only engages
#: next to a slab pattern, so that path carries the stencil step too
SSIM_PATHS = {
    "whole": dict(tiling="off", patterns=(3,)),
    "tiled": dict(tiling=5, patterns=(2, 3)),
    "metric-oriented": dict(tiling="off", patterns=(3,), backend="metric-oriented"),
}


def _pair(shape=SHAPE, seed=11):
    rng = np.random.default_rng(seed)
    orig = rng.normal(5.0, 2.0, size=shape).astype(np.float32)
    dec = (orig + rng.normal(scale=0.01, size=shape)).astype(np.float32)
    return orig, dec


def _ssim(orig, dec, **overrides):
    config = replace(
        default_config(), calibration="off", auxiliary=False, **overrides
    )
    with np.errstate(all="ignore"):
        report = compare_data(orig, dec, config=config, with_baselines=False)
    return report.pattern3


class TestNonFiniteSsim:
    """Any non-finite window makes ssim and both extrema NaN — on every
    path (the standalone walk used to return nan/inf/-inf)."""

    @pytest.mark.parametrize("path", SSIM_PATHS)
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("which", ("orig", "dec"))
    def test_one_bad_value_poisons_all_three(self, path, bad, which):
        orig, dec = (a.copy() for a in _pair())
        (orig if which == "orig" else dec)[6, 7, 5] = bad
        got = _ssim(orig, dec, **SSIM_PATHS[path])
        assert math.isnan(got.ssim)
        assert math.isnan(got.min_window_ssim)
        assert math.isnan(got.max_window_ssim)
        assert got.n_windows == 5 * 7 * 6

    @pytest.mark.parametrize("path", SSIM_PATHS)
    def test_explicit_range_does_not_hide_a_bad_window(self, path):
        """With a given dynamic range only the windows over the NaN are
        non-finite; the rule still applies."""
        orig, dec = (a.copy() for a in _pair())
        dec[0, 0, 0] = np.nan
        p3 = replace(default_config().pattern3, dynamic_range=10.0)
        got = _ssim(orig, dec, pattern3=p3, **SSIM_PATHS[path])
        assert math.isnan(got.ssim)
        assert math.isnan(got.min_window_ssim)
        assert math.isnan(got.max_window_ssim)

    def test_paths_agree_bitwise_on_finite_input(self):
        orig, dec = _pair()
        results = [_ssim(orig, dec, **kw) for kw in SSIM_PATHS.values()]
        first = results[0]
        for other in results[1:]:
            assert other.ssim == first.ssim
            assert other.min_window_ssim == first.min_window_ssim
            assert other.max_window_ssim == first.max_window_ssim


class TestScratchPoolBounded:
    def test_one_buffer_per_tag(self):
        pool = ScratchPool()
        a = pool.get("buf", (4, 5))
        assert pool.get("buf", (4, 5)) is a
        b = pool.get("buf", (6, 5))
        assert b is not a
        assert pool.nbytes() == b.nbytes  # a's storage was let go
        c = pool.get("buf", (6, 5), dtype=np.float32)
        assert c.dtype == np.float32 and pool.nbytes() == c.nbytes

    def test_arena_grows_to_the_largest_request_only(self):
        pool = ScratchPool()
        x, y = pool.carve((3, 4), (5,))
        assert x.shape == (3, 4) and y.shape == (5,)
        assert not np.shares_memory(x, y)
        big = pool.arena_nbytes()
        (z,) = pool.carve((2, 2))
        assert np.shares_memory(z, x)  # handed out from the start again
        assert pool.arena_nbytes() == big
        pool.carve((100, 100))
        assert pool.arena_nbytes() == 100 * 100 * 8
        pool.clear()
        assert pool.nbytes() == 0

    def test_slab_depth_follows_the_byte_budget(self):
        plane = 64 * 64 * 8
        assert ScratchPool.slab_depth((100, 64, 64)) == SLAB_BYTES // plane
        assert ScratchPool.slab_depth((3, 64, 64)) == 3  # never beyond nz
        assert ScratchPool.slab_depth((64, 512, 512)) == 1  # never below 1
        assert ScratchPool.slab_depth((512, 512)) == 1

    def test_session_footprint_is_the_larger_shape_not_the_sum(self):
        """A, B, A: the parent kept ~10 full-size arrays per distinct
        shape for the life of the session."""
        big, small = (16, 40, 40), (12, 20, 24)
        clear_scratch_pools()
        config = replace(default_config(), calibration="off", tiling="off")
        with CheckerSession(config=config) as session:
            session.assess(*_pair(big, seed=1))
            after_big = scratch_pool_bytes()
            session.assess(*_pair(small, seed=2))
            assert scratch_pool_bytes() <= after_big
            session.assess(*_pair(big, seed=3))
            assert scratch_pool_bytes() == after_big
            assert default_scratch_pool().arena_nbytes() > 0
        assert scratch_pool_bytes() == 0  # close() drops the arena too

    def test_clear_scratch_pools_reports_and_frees_the_arena(self):
        clear_scratch_pools()
        pool = default_scratch_pool()
        pool.carve((10, 16))
        pool.get("x", (5,))
        assert clear_scratch_pools() == 10 * 16 * 8 + 5 * 8
        assert scratch_pool_bytes() == 0


class TestThreadsDoNotShareAnArena:
    def test_concurrent_shapes_equal_serial(self):
        """Four threads, four shapes, one process: a module-level arena
        produced ssim = -4e6 here.  Each thread must carve from its own
        pool."""
        shapes = [(16, 24, 20), (12, 30, 18), (20, 16, 16), (14, 20, 28)]
        pairs = [_pair(shape, seed=i) for i, shape in enumerate(shapes)]
        config = replace(default_config(), calibration="off", tiling="off")

        def assess(pair):
            return compare_data(
                *pair, config=config, with_baselines=False
            ).to_dict()["metrics"]

        serial = [assess(pair) for pair in pairs]
        results: list = [None] * len(pairs)
        errors: list = []
        start = threading.Barrier(len(pairs))

        def worker(i):
            try:
                start.wait(timeout=30)
                for _ in range(6):
                    results[i] = assess(pairs[i])
                    if _comparable(results[i]) != _comparable(serial[i]):
                        raise AssertionError(f"thread {i} diverged")
            except BaseException as exc:  # surfaced below, never swallowed
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(r is not None for r in results)


def _comparable(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("throughput")}


class TestSweepSpans:
    @staticmethod
    def _kernel_spans(backend, tiling="off"):
        orig, dec = _pair((16, 40, 40))
        tracer = Tracer()
        config = replace(default_config(), calibration="off", tiling=tiling,
                         backend=backend)
        compare_data(orig, dec, config=config, with_baselines=False, tracer=tracer)
        return {s.attrs["pattern"]: s for s in tracer.spans if s.category == "kernel"}

    def test_pattern_spans_say_what_the_sweep_did(self):
        kernels = self._kernel_spans("fused-host")
        # 40x40 float64 planes: 20 fit the slab budget, the field has 16
        assert [kernels[p].attrs["slab_depth"] for p in (1, 2, 3)] == [16, 16, 16]
        # one arena shared by the steps: it only ever grows to the largest
        arena = [kernels[p].attrs["scratch_bytes"] for p in (1, 2, 3)]
        assert arena == sorted(arena)
        assert arena[-1] == default_scratch_pool().arena_nbytes() > 0
        # pattern 3 used to be the one kernel span without host attrs
        assert kernels[3].attrs["host_bytes"] > 0
        assert "slab_depth" not in kernels["aux"].attrs

    def test_only_steps_that_swept_report_a_depth(self):
        """The attributes are what the sweep recorded, not a recomputation:
        steps that ran no sweep carry none."""
        standalone = self._kernel_spans("metric-oriented")
        assert "slab_depth" not in standalone[1].attrs  # plain reductions
        assert standalone[2].attrs["slab_depth"] == 16
        assert standalone[3].attrs["slab_depth"] == 16
        tiled = self._kernel_spans("fused-host", tiling=4)
        # the tiled pass runs inside the first pattern step; its stencil
        # sub-slabs follow the (slab + halo)-row block, not the field
        assert tiled[1].attrs["slab_depth"] <= 4 + 2
        assert "slab_depth" not in tiled[2].attrs  # finalises partials only
        assert tiled[3].attrs["slab_depth"] == 16  # whole-array fallback

    def test_forced_depth_is_the_depth_recorded(self):
        orig, dec = _pair((12, 20, 24))
        pool = ScratchPool()
        ssim_sweep(orig, dec, Pattern3Config(window=4, step=2), 1.0, pool,
                   slab_depth=3)
        assert pool.sweep_depth == 3
