"""Differential suite for the streamed SSIM (paper §IV-B on the path that
actually streams).

``StreamingChecker`` feeds every chunk through the sweep's slice stage
(``kernels.pattern3._slab_window_sums``) into its ``w``-deep ring, so it
must equal both independent oracles — ``ssim3d`` and ``ssim3d_naive`` —
for every window 2–9, step 1–4, input dtype and chunking; be
**bit-identical across chunkings**; and resume bit-identically from a
``state_dict`` taken at any chunk boundary, mid-window included.  A ring
written by the summed-area-table slice stage this replaced (what a
checkpoint from commit a06e33c holds) must still resume, within the
oracle tolerance of a fresh run.

The same fold run slab-parallel (``parallel/chunking``: one checker per
slab started at ``z0``, ``prime`` on the halo, one ``update``,
``merge_state`` in z order) must equal one uninterrupted stream, with
every lag pair and SSIM window counted exactly once.

Tolerances come from ``TOLERANCES`` in ``test_property_sweep`` (DESIGN
§6 repeats the table); the golden v1 checkpoint's own resume test is
``tests/unit/test_checkpoint_format.py::TestV1ReadPath``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamingChecker
from repro.errors import CheckerError
from repro.kernels.pattern3 import Pattern3Config
from repro.metrics.ssim import SsimConfig, ssim3d, ssim3d_naive, window_positions
from repro.parallel.chunking import _slab_state, parallel_stream_field, z_chunks
from tests.property.test_property_sweep import DTYPES, TOLERANCES, _pair

SETTINGS = settings(max_examples=60, deadline=None)


def _chunkings(nz, window, ragged):
    """{1, 3, w-1, w, w+1, nz, ragged} as lists of chunk depths."""
    out = {}
    for depth in (1, 3, window - 1, window, window + 1, nz):
        if depth >= 1:
            full, rest = divmod(nz, depth)
            out[depth] = [depth] * full + ([rest] if rest else [])
    assert sum(ragged) == nz
    out["ragged"] = ragged
    return out


@st.composite
def stream_cases(draw):
    window = draw(st.integers(2, 9))
    step = draw(st.integers(1, 4))
    nz = window + draw(st.integers(0, 2 * window))
    ny = window + draw(st.integers(0, 6))
    nx = window + draw(st.integers(0, 6))
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(0, 2**16))
    cuts = draw(st.lists(st.integers(1, nz - 1), unique=True, max_size=5))
    edges = [0, *sorted(cuts), nz]
    ragged = [b - a for a, b in zip(edges, edges[1:])]
    return (nz, ny, nx), window, step, dtype, seed, ragged


def _checker(shape, window, step, dynamic_range):
    config = Pattern3Config(
        window=window, step=step, yrows=max(12, window), dynamic_range=dynamic_range
    )
    return StreamingChecker(shape[1:], max_lag=0, ssim=config)


def _stream(checker, orig, dec, depths, z=0, snapshots=None):
    """Feed ``depths``-sized chunks from slice ``z``; optionally record
    ``(z, state_dict)`` at every chunk boundary."""
    for depth in depths:
        checker.update(orig[z : z + depth], dec[z : z + depth])
        z += depth
        if snapshots is not None and z < orig.shape[0]:
            snapshots.append((z, checker.state_dict()))
    return checker


def _box_sums2d(a, window, step):
    """The summed-area-table slice stage the streamed path used through
    commit a06e33c — kept here as the writer of "old" ring states."""
    ny, nx = a.shape
    sat = np.zeros((ny + 1, nx + 1))
    sat[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    iy = np.arange(window_positions(ny, window, step)) * step
    ix = np.arange(window_positions(nx, window, step)) * step
    y0, y1 = iy[:, None], iy[:, None] + window
    x0, x1 = ix[None, :], ix[None, :] + window
    return sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]


class TestStreamedEqualsOracles:
    @SETTINGS
    @given(stream_cases())
    def test_every_chunking_equals_both_oracles_and_each_other(self, case):
        shape, window, step, dtype, seed, ragged = case
        orig, dec = _pair(shape, seed, dtype)
        L = float(orig.max()) - float(orig.min())
        cfg = SsimConfig(window=window, step=step, dynamic_range=L)
        fast = ssim3d(orig, dec, cfg)
        naive = ssim3d_naive(orig, dec, cfg)

        results = {}
        for name, depths in _chunkings(shape[0], window, ragged).items():
            checker = _stream(_checker(shape, window, step, L), orig, dec, depths)
            assert checker._ssim_count == fast.n_windows
            results[name] = checker.finalize().ssim
        whole = results[shape[0]]
        for oracle in (fast, naive):
            assert whole == pytest.approx(
                oracle.ssim, abs=TOLERANCES["ssim_streamed"], rel=0
            )
        assert TOLERANCES["ssim_across_chunkings"] == 0.0
        assert set(results.values()) == {whole}, results

    @SETTINGS
    @given(stream_cases())
    def test_resume_at_every_chunk_boundary_is_bit_identical(self, case):
        shape, window, step, dtype, seed, ragged = case
        orig, dec = _pair(shape, seed, dtype)
        snapshots = []
        straight = _stream(
            _checker(shape, window, step, 4.0), orig, dec, ragged, snapshots=snapshots
        )
        want = straight.state_dict()
        # every slice boundary, not only the ragged ones: a snapshot is
        # taken mid-window, before the first window and after the last
        _stream(
            _checker(shape, window, step, 4.0), orig, dec, [1] * shape[0],
            snapshots=snapshots,
        )
        for z, state in snapshots:
            resumed = _checker(shape, window, step, 4.0)
            resumed.load_state(state)
            # the rest arrives in chunks that straddle the old boundaries
            rest = shape[0] - z
            _stream(resumed, orig, dec, [rest // 2, rest - rest // 2][rest < 2 :], z=z)
            got = resumed.state_dict()
            assert got["ssim"]["total"] == want["ssim"]["total"]
            assert got["ssim"]["count"] == want["ssim"]["count"]
            assert np.array_equal(got["ssim"]["fifo"]["buf"], want["ssim"]["fifo"]["buf"])
        assert straight.finalize().ssim == want["ssim"]["total"] / want["ssim"]["count"]

    @pytest.mark.parametrize("window,step", [(8, 1), (5, 2), (3, 3), (7, 1)])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_ring_written_by_the_old_slice_stage_still_resumes(
        self, window, step, dtype
    ):
        """Same layout, values off by rounding only: a mid-window ring of
        summed-area-table sums (an a06e33c checkpoint) continues under
        the shifted adds and lands on the oracles."""
        shape = (3 * window, window + 5, window + 4)
        orig, dec = _pair(shape, seed=window * 10 + step, dtype=dtype)
        L = float(orig.max()) - float(orig.min())
        cut = window + window // 2  # mid-window, ring wrapped once
        state = _stream(_checker(shape, window, step, L), orig, dec, [cut]).state_dict()
        o64, d64 = orig.astype(np.float64), dec.astype(np.float64)
        ring = state["ssim"]["fifo"]["buf"]
        for k in range(cut - window, cut):
            old = np.stack(
                [
                    _box_sums2d(a, window, step)
                    for a in (o64[k], d64[k], o64[k] ** 2, d64[k] ** 2, o64[k] * d64[k])
                ]
            )
            assert old.shape == ring[k % window].shape
            np.testing.assert_allclose(old, ring[k % window], rtol=1e-9, atol=1e-9)
            ring[k % window] = old

        resumed = _checker(shape, window, step, L)
        resumed.load_state(state)
        got = _stream(resumed, orig, dec, [shape[0] - cut], z=cut).finalize().ssim
        cfg = SsimConfig(window=window, step=step, dynamic_range=L)
        for oracle in (ssim3d(orig, dec, cfg), ssim3d_naive(orig, dec, cfg)):
            assert got == pytest.approx(
                oracle.ssim, abs=TOLERANCES["ssim_streamed"], rel=0
            )

    @pytest.mark.parametrize("window", range(2, 10))
    def test_identical_constant_stream_scores_exactly_one(self, window):
        field = np.full((window + 4, window + 2, window + 3), 3.0, dtype=np.float32)
        for depths in ([1] * (window + 4), [window + 4], [3, window + 1]):
            checker = _stream(_checker(field.shape, window, 1, 1.0), field, field, depths)
            assert checker.finalize().ssim == 1.0


@st.composite
def slab_cases(draw):
    window = draw(st.integers(2, 9))
    step = draw(st.integers(1, 4))
    max_lag = draw(st.integers(0, 4))
    nz = window + draw(st.integers(0, 2 * window))
    ny = max(window, max_lag + 1) + draw(st.integers(0, 5))
    nx = max(window, max_lag + 1) + draw(st.integers(0, 5))
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(0, 2**16))
    return (nz, ny, nx), window, step, max_lag, dtype, seed


class TestSlabMergeEqualsOneStream:
    @SETTINGS
    @given(slab_cases())
    def test_every_slab_count_equals_one_stream_with_exact_once_ownership(self, case):
        shape, window, step, max_lag, dtype, seed = case
        orig, dec = _pair(shape, seed, dtype)
        nz = shape[0]
        ssim = Pattern3Config(
            window=window, step=step, yrows=max(12, window), dynamic_range=4.0
        )
        args = (max_lag, ssim, 0.5)  # pwr_floor 0.5: some elements excluded

        def checker():
            return StreamingChecker(shape[1:], max_lag=max_lag, ssim=ssim, pwr_floor=0.5)

        one = checker()
        one.update(orig, dec)
        want_state = one.state_dict(halo=False)
        want = one.finalize()
        rel = TOLERANCES["slab_merge_scalars"]

        # nz slabs are one slice each (shorter than any halo), nz + 3 clamps
        for count in (1, 2, 3, nz, nz + 3):
            slabs = z_chunks(nz, count)
            states = [_slab_state(orig, dec, z0, z1, *args) for z0, z1 in slabs]
            merged = checker()
            for state in states:
                merged.merge_state(state)
            got_state = merged.state_dict(halo=False)
            assert got_state["z"] == nz
            assert got_state["acc"]["n"] == want_state["acc"]["n"]
            assert np.array_equal(
                got_state["acc"]["arrays"]["ac_n"], want_state["acc"]["arrays"]["ac_n"]
            )
            assert got_state["ssim"]["count"] == want_state["ssim"]["count"]

            got = merged.finalize()
            assert got.ssim == pytest.approx(
                want.ssim, abs=TOLERANCES["ssim_streamed"], rel=0
            )
            assert got.scalars() == pytest.approx(want.scalars(), rel=rel, abs=rel)
            if max_lag:
                np.testing.assert_allclose(
                    got.autocorrelation, want.autocorrelation, rtol=rel, atol=rel
                )
            # the driver is exactly this loop
            driven = parallel_stream_field(
                orig, dec, *args, workers=count, executor="serial"
            )
            assert driven.scalars() == got.scalars()

            if len(states) > 1:  # merging is order-checked
                with pytest.raises(CheckerError, match="cannot merge"):
                    checker().merge_state(states[1])
                with pytest.raises(CheckerError, match="cannot merge"):
                    merged.merge_state(states[0])

    def test_field_shallower_than_the_window_raises_through_finalize(self):
        orig, dec = _pair((5, 8, 8), seed=1)
        ssim = Pattern3Config(window=6, dynamic_range=4.0)
        with pytest.raises(CheckerError, match="before one full SSIM window"):
            parallel_stream_field(orig, dec, 2, ssim, workers=2, executor="serial")
