"""Pattern-3 kernel: sliding-window SSIM with a shared-memory FIFO
(paper Algorithm 3, Fig. 8).

Decomposition: one thread block owns a band of window rows — 32 lanes
along x (warp shuffles share the ghost regions between windows along x),
``YROWS`` data rows along y (cross-warp shared-memory reductions build the
y-extent of each window), and the full z extent.  As the block walks the
z-axis it pushes each slice's partial window reductions (window sums of
``o``, ``d``, ``o²``, ``d²``, ``o·d``) into a shared-memory **FIFO ring**
keyed by ``k % wsize``; whenever a window's last slice arrives, the ring
is collapsed into the full 3-D window statistics and the local SSIM is
emitted.  Each z-slice is therefore read from global memory exactly once
— the data-sharing property the paper's Section III-C3 highlights.

The functional execution (:func:`ssim_sweep`) is that dataflow on the
host: per z-slab, the slices' 2-D window sums (shifted adds — the
vectorised x-shuffles + y-smem stage) are pushed into a ring, the z
window slides over the ring by *add newest / subtract oldest*, and local
SSIMs are produced only from ring reductions.  Results equal the
independent :func:`repro.metrics.ssim.ssim3d` / ``ssim3d_naive``
references within the tolerances of ``tests/property/test_property_sweep.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.counters import KernelStats
from repro.metrics.ssim import SsimConfig, SsimResult, window_positions

__all__ = [
    "Pattern3Config",
    "Pattern3Result",
    "plan_pattern3",
    "execute_pattern3",
    "ssim_sweep",
    "LANES",
    "YROWS",
]

#: warp lanes along x (fixed by hardware)
LANES = 32
#: data rows along y held by one thread block
YROWS = 12
#: per-window accumulators staged through the FIFO:
#: sum(o), sum(d), sum(o²), sum(d²), sum(o·d)
N_WINDOW_ACCUMS = 5
#: register demand: window accumulators for both fields, FIFO indices,
#: masks — 29 regs/thread × 384 threads = 11136 ≈ the paper's "11k
#: Regs/TB" (Table II)
REGS_PER_THREAD = 29

#: per staged element: products o², d², o·d plus running adds
OPS_SLICE_STAGE = 10
#: per finished window: FIFO collapse (w slices × 5 accums × 2 reads)
#: plus the SSIM mix ("calw")
OPS_WINDOW_FINAL_BASE = 22
#: calibrated issue-efficiency inflation for the sliding-window kernel —
#: the serial z-chain, per-slice block syncs, and strided shared-memory
#: access dominate; fitted once against Fig. 11(c)'s measured 497-758
#: MB/s and reused everywhere.
P3_STALL_FACTOR = 125.0
#: extra *compute* fraction per redundant z re-read when the FIFO buffer
#: is disabled (moZC).  The re-reads themselves pipeline into the same
#: stall slots, so only a small fraction of the redundant slice-stage work
#: surfaces as extra time — calibrated against the paper's ~50% FIFO gain
#: (Fig. 12c: 1.42-1.63×).
P3_NOFIFO_RECOMPUTE = 0.18


@dataclass(frozen=True)
class Pattern3Config:
    """SSIM window geometry for the GPU kernel (paper defaults: 8 / 1).

    ``yrows`` is the kernel-geometry knob the autotuner explores: the
    number of data rows one thread block holds along y.  More rows mean
    more windows per block (less inter-block ghost re-reading) but a
    bigger FIFO and register footprint (less concurrency).
    """

    window: int = 8
    step: int = 1
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float | None = None
    yrows: int = YROWS

    def validate(self, shape: tuple[int, int, int]) -> None:
        SsimConfig(self.window, self.step, self.k1, self.k2).validate(shape)
        if self.window > LANES:
            raise ShapeError(
                f"SSIM window {self.window} exceeds the warp width {LANES}"
            )
        if not 2 <= self.yrows <= 32:
            raise ShapeError(
                f"yrows must be within [2, 32] (block = 32 x yrows threads), "
                f"got {self.yrows}"
            )
        if self.window > self.yrows:
            raise ShapeError(
                f"SSIM window {self.window} exceeds the block row count "
                f"{self.yrows}"
            )

    @property
    def xnum(self) -> int:
        """Windows processed per warp span (paper: warpSize - wsize + step)."""
        return LANES - self.window + self.step

    @property
    def ynum(self) -> int:
        """Window rows processed per thread block."""
        return self.yrows - self.window + self.step

    @property
    def ssim_config(self) -> SsimConfig:
        return SsimConfig(
            window=self.window,
            step=self.step,
            k1=self.k1,
            k2=self.k2,
            dynamic_range=self.dynamic_range,
        )

    @property
    def smem_per_block(self) -> int:
        """FIFO footprint: xnum × ynum × wsize × 5 accums × 4 B."""
        return self.xnum * self.ynum * self.window * N_WINDOW_ACCUMS * 4


@dataclass
class Pattern3Result:
    """SSIM output of one kernel launch."""

    ssim: float
    min_window_ssim: float
    max_window_ssim: float
    n_windows: int
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return {"ssim": self.ssim}

    @property
    def as_ssim_result(self) -> SsimResult:
        return SsimResult(
            ssim=self.ssim,
            min_window_ssim=self.min_window_ssim,
            max_window_ssim=self.max_window_ssim,
            n_windows=self.n_windows,
        )


def _shape3d(shape: tuple[int, ...]) -> tuple[int, int, int]:
    if len(shape) != 3 or min(shape) < 1:
        raise ShapeError(f"pattern kernels expect 3-D shapes, got {shape}")
    return shape  # type: ignore[return-value]


def plan_pattern3(
    shape: tuple[int, int, int],
    config: Pattern3Config | None = None,
    fifo: bool = True,
) -> KernelStats:
    """Closed-form event counts for the pattern-3 kernel.

    ``fifo=False`` models the moZC ablation: without the ring buffer every
    z-slice is re-read (and its slice-stage partials recomputed) once per
    overlapping window along z — ``window / step`` times.
    """
    config = config or Pattern3Config()
    nz, ny, nx = _shape3d(shape)
    config.validate((nz, ny, nx))
    n = nz * ny * nx
    py = window_positions(ny, config.window, config.step)
    px = window_positions(nx, config.window, config.step)
    pz = window_positions(nz, config.window, config.step)
    n_windows = pz * py * px
    grid = max(1, math.ceil(py / config.ynum))
    spans_x = max(1, math.ceil(px / config.xnum))
    iters = spans_x * nz

    # re-read factor without the FIFO: each slice participates in
    # window/step overlapping windows along z
    z_reuse = 1 if fifo else max(1, config.window // config.step)

    # every slice pass reads LANES × yrows points per span per block
    elements_staged = grid * nz * spans_x * LANES * config.yrows
    read_bytes = 2 * elements_staged * z_reuse * 4  # both fields

    # redundant re-reads pipeline into existing stall slots; only a small
    # fraction of the recomputed slice-stage work surfaces as time
    recompute = 1.0 + P3_NOFIFO_RECOMPUTE * (z_reuse - 1)
    slice_ops = 2 * elements_staged * OPS_SLICE_STAGE * recompute
    # x-sharing shuffles: (window-1) strided shuffles × 5 accums per
    # thread per slice pass
    shuffles = int(
        elements_staged * (config.window - 1) * N_WINDOW_ACCUMS * recompute
    )
    final_ops = n_windows * (
        config.window * N_WINDOW_ACCUMS * 2 + OPS_WINDOW_FINAL_BASE
    )
    fifo_traffic = (
        grid * nz * spans_x * config.xnum * config.ynum * N_WINDOW_ACCUMS * 4
    )

    return KernelStats(
        name="cuZC.pattern3" if fifo else "moZC.pattern3",
        launches=1 if fifo else 2,
        grid_syncs=1 if fifo else 0,
        global_read_bytes=read_bytes,
        global_write_bytes=n_windows * 4 + 64,
        shared_bytes=fifo_traffic * (2 if fifo else 1),
        shuffle_ops=shuffles,
        flops=int((slice_ops + final_ops) * P3_STALL_FACTOR),
        atomic_ops=0,
        grid_blocks=grid,
        threads_per_block=LANES * config.yrows,
        regs_per_thread=REGS_PER_THREAD,
        smem_per_block=config.smem_per_block if fifo else config.smem_per_block // 2,
        iters_per_thread=iters,
        meta={
            "pattern": 3,
            "chain_length": iters,
            "fifo": fifo,
            "n_windows": n_windows,
        },
    )


# ---------------------------------------------------------------------------
# functional execution
# ---------------------------------------------------------------------------


def _window_sum_buffers(w: int) -> int:
    """Same-shaped buffers (the input included) :func:`_window_sums_yx`
    ping-pongs through for window ``w``: two, or three when ``w`` is not
    a power of two — the input then feeds every +1 pass and cannot
    double as a target."""
    return 3 if w & (w - 1) else 2


def _window_sums_yx(bufs, w, step, out=None):
    """Sums over ``w`` x ``w`` windows of the last two axes of ``bufs[0]``
    at every ``step``-th origin — y, then x — written to ``out``, or left
    in (a view of) whichever buffer ends up free; returns them.

    Each axis is summed by shifted adds: doubling ``S_2m[i] = S_m[i] +
    S_m[i+m]`` reaches a power-of-two window in ``log2(w)`` passes; other
    windows take the binary decomposition of ``w`` most-significant bit
    first (``S_{m+1}[i] = S_m[i] + src[i+m]`` after the doubling of every
    set bit — square-and-multiply).  Each pass is one ``np.add(...,
    out=)`` over views — no ``cumsum``, no temporaries — and the last
    computes only the on-step origins.

    ``bufs`` are :func:`_window_sum_buffers` same-shaped buffers, the
    first holding the input; the passes ping-pong through them and all
    are clobbered.
    """
    assert len(bufs) == _window_sum_buffers(w)
    bits = bin(w)[3:]
    passes = []  # (doubling?, shift)
    m = 1
    for bit in bits:
        passes.append((True, m))
        m *= 2
        if bit == "1":
            passes.append((False, m))
            m += 1

    def along(axis, src, free, out=None):
        """One axis of ``src`` through the other (``free``) buffers; the sums
        go to ``out``, else into whichever buffer ends up free.  Returns
        ``(sums, holder)`` — ``holder`` is that buffer (or None)."""

        def cut(a, lo, hi, st=1):
            index = [slice(None)] * a.ndim
            index[axis] = slice(lo, hi, st)
            return a[tuple(index)]

        n = src.shape[axis]
        if not passes:  # w == 1
            sums = cut(src, 0, n, step)
            if out is not None:
                np.copyto(out, sums)
            return sums, src
        free = list(free)
        cur = src
        for doubling, m in passes[:-1]:
            valid = n - (2 * m if doubling else m + 1) + 1
            if doubling:
                dst = free.pop()
                np.add(cut(cur, 0, valid), cut(cur, m, m + valid), out=cut(dst, 0, valid))
                # with two buffers (no +1 pass will read it again) the
                # input is a target like the other
                if cur is not src or len(bufs) == 2:
                    free.append(cur)
                cur = dst
            else:
                np.add(cut(cur, 0, valid), cut(src, m, m + valid), out=cut(cur, 0, valid))
        doubling, m = passes[-1]
        valid = n - w + 1
        holder = None
        if out is None:
            holder = free.pop()
            out = cut(holder, 0, window_positions(n, w, step))
        np.add(
            cut(cur, 0, valid, step),
            cut(cur if doubling else src, m, m + valid, step),
            out=out,
        )
        return out, holder

    src = bufs[0]
    ysums, holder = along(src.ndim - 2, src, bufs[1:])
    py = ysums.shape[-2]
    rest = [buf[..., :py, :] for buf in bufs if buf is not holder]
    return along(src.ndim - 1, ysums, rest, out=out)[0]


def _slab_window_sums(bufs, orig, dec, w, step, out=None):
    """The slice stage of Alg. 3 for one slab: ``n`` slices of
    ``orig``/``dec`` (any real dtype) -> ``[o, d, o², d², o·d]`` ->
    their 2-D window sums, ``(5, n, py, px)``.

    ``bufs`` are :func:`_window_sum_buffers` buffers of shape ``(5,
    depth >= n, ny, nx)``.  Every slice's sums come from the same
    element-wise passes whatever ``n`` is — the whole-array sweep and
    the streamed checker share them, at any slab or chunk depth.
    """
    slabs = [b[:, : orig.shape[0]] for b in bufs]
    s = slabs[0]
    np.copyto(s[0], orig)
    np.copyto(s[1], dec)
    np.multiply(s[0], s[0], out=s[2])
    np.multiply(s[1], s[1], out=s[3])
    np.multiply(s[0], s[1], out=s[4])
    return _window_sums_yx(slabs, w, step, out=out)


def ssim_sweep(
    orig: np.ndarray,
    dec: np.ndarray,
    config: Pattern3Config,
    dynamic_range: float,
    pool,
    slab_depth: int | None = None,
) -> Pattern3Result:
    """The paper's FIFO dataflow (Alg. 3) as one z-slab sweep.

    Per slab of ``slab_depth`` slices, read once from ``orig``/``dec``::

        o, d -> [o, d, o², d², o·d] -> y sums -> x sums -> ring
                (shifted adds, out=)               (w + depth slots)
        per slice:  run += newest - oldest     (exact re-sum every w)
        per slab:   SSIM mix of the finished windows, in place;
                    per-slice sum/min/max of the local SSIMs

    The z window is kept as *add newest / subtract oldest* over the ring
    and rebuilt exactly from its ``w`` slots every ``w`` slices, so no
    sum ever accumulates more than ``w`` terms per axis and a non-finite
    slice cannot outlive its windows.  Every per-slice value is formed by
    the same element-wise passes whatever the slab depth, so the result
    does not depend on it (``slab_depth`` exists for the seam tests).
    All buffers are carved from ``pool``'s arena.

    Any non-finite window makes ``ssim`` and both extrema NaN.
    """
    w, step = config.window, config.step
    nz, ny, nx = orig.shape
    py = window_positions(ny, w, step)
    px = window_positions(nx, w, step)
    pz = window_positions(nz, w, step)
    if min(pz, py, px) == 0:
        raise ShapeError("no complete SSIM window fits the data")
    L = float(dynamic_range)
    if L <= 0.0:
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    volume = float(w**3)

    depth = pool.sweep_depth = min(slab_depth or pool.slab_depth(orig.shape), nz)
    slots = w + depth
    slab = (N_WINDOW_ACCUMS, depth, ny, nx)
    sums_slab = (N_WINDOW_ACCUMS, depth, py, px)
    *bufs, ring, runs, mix = pool.carve(
        *[slab] * _window_sum_buffers(w),
        (N_WINDOW_ACCUMS, slots, py, px), sums_slab, sums_slab,
    )
    sums = np.empty(pz)
    mins = np.empty(pz)
    maxs = np.empty(pz)

    done = 0  # finished window slices
    prev = None  # the running z-window sums of the latest slice
    z = 0
    while z < nz:
        # a slab never wraps around the ring, so its slices land in
        # consecutive slots with one write
        n = min(depth, nz - z, slots - z % slots)
        first = z % slots
        into = ring[:, first : first + n]
        _slab_window_sums(bufs, orig[z : z + n], dec[z : z + n], w, step, out=into)

        j0 = None  # first slice of the slab that finishes an on-step window
        for j in range(n):
            k = z + j
            if k < w - 1:
                continue
            cur = runs[:, j]
            if (k + 1) % w == 0:
                lo = k - w + 1
                np.copyto(cur, ring[:, lo % slots])
                for i in range(lo + 1, k + 1):
                    np.add(cur, ring[:, i % slots], out=cur)
            else:
                np.subtract(prev, ring[:, (k - w) % slots], out=cur)
                np.add(cur, ring[:, k % slots], out=cur)
            prev = cur
            if j0 is None and (k - w + 1) % step == 0:
                j0 = j
        z += n
        if j0 is None:
            continue

        # the SSIM mix of ``ssim3d``, operation for operation, over the
        # slab's finished window slices in five temporaries
        s1, s2, sq1, sq2, s12 = runs[:, j0:n:step]
        t = mix[:, : s1.shape[0]]
        mu1 = np.divide(s1, volume, out=t[0])
        mu2 = np.divide(s2, volume, out=t[1])
        num = np.multiply(mu1, mu2, out=t[2])
        cov = np.divide(s12, volume, out=t[3])
        np.subtract(cov, num, out=cov)
        np.multiply(cov, 2.0, out=cov)
        np.add(cov, c2, out=cov)
        np.multiply(num, 2.0, out=num)
        np.add(num, c1, out=num)
        np.multiply(num, cov, out=num)
        np.multiply(mu1, mu1, out=mu1)
        np.multiply(mu2, mu2, out=mu2)
        var1 = np.divide(sq1, volume, out=t[3])
        np.subtract(var1, mu1, out=var1)
        np.maximum(var1, 0.0, out=var1)
        var2 = np.divide(sq2, volume, out=t[4])
        np.subtract(var2, mu2, out=var2)
        np.maximum(var2, 0.0, out=var2)
        np.add(var1, var2, out=var1)
        np.add(var1, c2, out=var1)
        np.add(mu1, mu2, out=mu1)
        np.add(mu1, c1, out=mu1)
        np.multiply(mu1, var1, out=mu1)
        local = np.divide(num, mu1, out=num).reshape(num.shape[0], -1)
        out = slice(done, done + local.shape[0])
        local.sum(axis=1, out=sums[out])
        local.min(axis=1, out=mins[out])
        local.max(axis=1, out=maxs[out])
        done = out.stop

    n_windows = pz * py * px
    total = float(sums.sum())
    if not math.isfinite(total):
        return Pattern3Result(math.nan, math.nan, math.nan, n_windows)
    return Pattern3Result(
        ssim=total / n_windows,
        min_window_ssim=float(mins.min()),
        max_window_ssim=float(maxs.max()),
        n_windows=n_windows,
    )


def execute_pattern3(
    orig: np.ndarray,
    dec: np.ndarray,
    config: Pattern3Config | None = None,
    workspace=None,
) -> tuple[Pattern3Result, KernelStats]:
    """Functional FIFO-buffered SSIM kernel: one :func:`ssim_sweep`.

    A :class:`~repro.core.workspace.MetricWorkspace` only contributes its
    scratch pool and the value range it already reduced; the sweep reads
    the raw pair either way, so the workspace, standalone
    (``metric-oriented``) and tiled-fallback paths return identical
    values.  The modelled :func:`plan_pattern3` cost is unchanged.
    """
    config = config or Pattern3Config()
    if workspace is not None:
        orig, dec, pool = workspace.orig, workspace.dec, workspace.scratch
    else:
        # imported here: repro.core imports the kernels' config classes
        from repro.core.workspace import default_scratch_pool

        pool = default_scratch_pool()
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    config.validate(_shape3d(orig.shape))
    if config.dynamic_range is not None:
        L = config.dynamic_range
    elif workspace is not None:
        L = workspace.value_range
    else:
        L = float(orig.max()) - float(orig.min())
    return ssim_sweep(orig, dec, config, L, pool), plan_pattern3(orig.shape, config)
