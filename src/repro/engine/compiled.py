"""Optional Numba-compiled hot-path kernels for the two measured host
hot spots: the pattern-2 ±1 stencil sweep and the pattern-3 sliding SSIM
window.

The fused host path is already algorithmically tight (one fused slab
pass, O(n) sliding sums), but both hot spots still pay NumPy's
temporary-array tax: every stencil field and every windowed statistic is
materialised before it is reduced.  The kernels here are single-pass
loop translations of the *same* algorithms — per-element stencil math
accumulated in registers, cascaded z/y/x sliding window sums — which a
JIT turns into allocation-free machine code.

Numba is strictly optional.  When it is importable, :func:`njit`-
decorated kernels compile on first use and the ``compiled-host`` backend
becomes a dispatch candidate.  When it is not, the decorator below is a
no-op and the kernels run as pure Python: slow, but exactly the same
arithmetic — which is what lets the registry×backend equality suite
exercise the compiled logic on hosts without Numba (the planner simply
never *selects* the backend there; see
:func:`repro.engine.plan.build_plan`).

Per-element arithmetic mirrors
:func:`repro.kernels.pattern2.stencil_fields_local` and
:func:`repro.metrics.ssim.ssim3d` expression by expression (same
operand order, division by the same power-of-two constants), so the
only difference from the NumPy path is reduction grouping — well inside
the checker-level 1e-9 cross-backend tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.counters import KernelStats
from repro.kernels.pattern2 import (
    Pattern2Config,
    Pattern2Result,
    _fused_autocorr,
    plan_pattern2,
)
from repro.kernels.pattern3 import Pattern3Config, Pattern3Result, plan_pattern3
from repro.metrics.derivatives import DerivativeComparison

__all__ = [
    "NUMBA_AVAILABLE",
    "available",
    "compiled_stencil_partials",
    "compiled_ssim_accumulate",
    "execute_pattern2_compiled",
    "execute_pattern3_compiled",
]

try:  # pragma: no cover — exercised on hosts with numba installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op stand-in: kernels run as pure Python without Numba."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def available() -> bool:
    """Is the compiled backend actually compiled on this host?"""
    return NUMBA_AVAILABLE


# ---------------------------------------------------------------------------
# pattern 2: fused ±1 stencil partial sums
# ---------------------------------------------------------------------------


@njit(cache=True)
def compiled_stencil_partials(o: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Single-pass partial sums for all four stencil comparisons.

    Returns a ``(4, 4)`` array indexed ``[which, stat]`` with ``which``
    as in :func:`repro.kernels.pattern2.new_stencil_partials` (0=grad,
    1=2nd-deriv, 2=divergence, 3=laplacian) and ``stat`` =
    (sum_o, sum_d, sum_sq_diff, max_abs_diff).  Gradient and second-
    derivative magnitudes are sqrt outputs, summed raw; divergence and
    laplacian are summed as absolute values — matching the fused NumPy
    path.  All four fields are always accumulated so a subset plan and a
    full plan produce bit-identical partials.

    Per-plane sub-accumulators keep the sequential summation error on
    par with NumPy's pairwise reduction.
    """
    nz, ny, nx = o.shape
    out = np.zeros((4, 4))
    for z in range(1, nz - 1):
        p0o = p0d = p0q = 0.0
        p1o = p1d = p1q = 0.0
        p2o = p2d = p2q = 0.0
        p3o = p3d = p3q = 0.0
        for y in range(1, ny - 1):
            for x in range(1, nx - 1):
                co = o[z, y, x]
                dzo = (o[z + 1, y, x] - o[z - 1, y, x]) / 2.0
                dyo = (o[z, y + 1, x] - o[z, y - 1, x]) / 2.0
                dxo = (o[z, y, x + 1] - o[z, y, x - 1]) / 2.0
                dzzo = o[z + 1, y, x] - 2.0 * co + o[z - 1, y, x]
                dyyo = o[z, y + 1, x] - 2.0 * co + o[z, y - 1, x]
                dxxo = o[z, y, x + 1] - 2.0 * co + o[z, y, x - 1]
                grad_o = math.sqrt(dxo * dxo + dyo * dyo + dzo * dzo)
                der2_o = math.sqrt(dxxo * dxxo + dyyo * dyyo + dzzo * dzzo)
                div_o = dzo + dyo + dxo
                lap_o = dzzo + dyyo + dxxo

                cd = d[z, y, x]
                dzd = (d[z + 1, y, x] - d[z - 1, y, x]) / 2.0
                dyd = (d[z, y + 1, x] - d[z, y - 1, x]) / 2.0
                dxd = (d[z, y, x + 1] - d[z, y, x - 1]) / 2.0
                dzzd = d[z + 1, y, x] - 2.0 * cd + d[z - 1, y, x]
                dyyd = d[z, y + 1, x] - 2.0 * cd + d[z, y - 1, x]
                dxxd = d[z, y, x + 1] - 2.0 * cd + d[z, y, x - 1]
                grad_d = math.sqrt(dxd * dxd + dyd * dyd + dzd * dzd)
                der2_d = math.sqrt(dxxd * dxxd + dyyd * dyyd + dzzd * dzzd)
                div_d = dzd + dyd + dxd
                lap_d = dzzd + dyyd + dxxd

                diff = grad_d - grad_o
                p0o += grad_o
                p0d += grad_d
                p0q += diff * diff
                a = abs(diff)
                if a > out[0, 3]:
                    out[0, 3] = a

                diff = der2_d - der2_o
                p1o += der2_o
                p1d += der2_d
                p1q += diff * diff
                a = abs(diff)
                if a > out[1, 3]:
                    out[1, 3] = a

                diff = div_d - div_o
                p2o += abs(div_o)
                p2d += abs(div_d)
                p2q += diff * diff
                a = abs(diff)
                if a > out[2, 3]:
                    out[2, 3] = a

                diff = lap_d - lap_o
                p3o += abs(lap_o)
                p3d += abs(lap_d)
                p3q += diff * diff
                a = abs(diff)
                if a > out[3, 3]:
                    out[3, 3] = a
        out[0, 0] += p0o
        out[0, 1] += p0d
        out[0, 2] += p0q
        out[1, 0] += p1o
        out[1, 1] += p1d
        out[1, 2] += p1q
        out[2, 0] += p2o
        out[2, 1] += p2d
        out[2, 2] += p2q
        out[3, 0] += p3o
        out[3, 1] += p3d
        out[3, 2] += p3q
    return out


def execute_pattern2_compiled(
    workspace,
    config: Pattern2Config,
    err_mean: float,
    err_var: float,
) -> tuple[Pattern2Result, KernelStats]:
    """Compiled-stencil counterpart of the fused whole-array pattern 2.

    The stencil comparisons come from the single-pass compiled kernel;
    the autocorrelation keeps the einsum-over-views path (already
    temporary-free and BLAS-fast — a loop would only lose there).
    """
    shape = workspace.shape
    config.validate(shape)
    nz, ny, nx = shape
    count = (nz - 2) * (ny - 2) * (nx - 2)
    if count <= 0:
        raise ShapeError("field too small for the pattern-2 stencil")
    parts = compiled_stencil_partials(workspace.o64, workspace.d64)

    def _cmp(w: int) -> DerivativeComparison:
        return DerivativeComparison(
            mean_orig=parts[w, 0] / count,
            mean_dec=parts[w, 1] / count,
            rms_diff=math.sqrt(parts[w, 2] / count),
            max_diff=parts[w, 3],
        )

    der1 = div = der2 = lap = None
    if 1 in config.orders:
        der1, div = _cmp(0), _cmp(2)
    if 2 in config.orders:
        der2, lap = _cmp(1), _cmp(3)

    ac = _fused_autocorr(workspace.err, config.max_lag, err_mean, err_var)
    result = Pattern2Result(
        der1=der1, der2=der2, divergence=div, laplacian=lap, autocorrelation=ac
    )
    return result, plan_pattern2(shape, config)


# ---------------------------------------------------------------------------
# pattern 3: sliding-window SSIM
# ---------------------------------------------------------------------------


@njit(cache=True)
def compiled_ssim_accumulate(
    o: np.ndarray, d: np.ndarray, w: int, step: int, c1: float, c2: float
):
    """Cascaded sliding-sum SSIM with no windowed temporaries.

    The same O(n)-per-statistic algorithm as
    :func:`repro.metrics.ssim.box_sums`, restructured as three nested
    sliding accumulations (z-window plane sums → y-window row sums →
    x-window scalars) that reuse two small buffers instead of five
    full-size product arrays plus fifteen cumsums.  Returns
    ``(total, count, min_local, max_local)``.
    """
    nz, ny, nx = o.shape
    pz = (nz - w) // step + 1
    py = (ny - w) // step + 1
    px = (nx - w) // step + 1
    vol = float(w * w * w)
    zs = np.zeros((5, ny, nx))
    ys = np.zeros((5, nx))
    total = 0.0
    count = 0
    vmin = 1.0e300
    vmax = -1.0e300
    for i in range(pz):
        z0 = i * step
        if i == 0 or step >= w:
            for s in range(5):
                for y in range(ny):
                    for x in range(nx):
                        zs[s, y, x] = 0.0
            zsub_lo = zsub_hi = 0
            zadd_lo, zadd_hi = z0, z0 + w
        else:
            zsub_lo, zsub_hi = z0 - step, z0
            zadd_lo, zadd_hi = z0 + w - step, z0 + w
        for z in range(zsub_lo, zsub_hi):
            for y in range(ny):
                for x in range(nx):
                    ov = o[z, y, x]
                    dv = d[z, y, x]
                    zs[0, y, x] -= ov
                    zs[1, y, x] -= dv
                    zs[2, y, x] -= ov * ov
                    zs[3, y, x] -= dv * dv
                    zs[4, y, x] -= ov * dv
        for z in range(zadd_lo, zadd_hi):
            for y in range(ny):
                for x in range(nx):
                    ov = o[z, y, x]
                    dv = d[z, y, x]
                    zs[0, y, x] += ov
                    zs[1, y, x] += dv
                    zs[2, y, x] += ov * ov
                    zs[3, y, x] += dv * dv
                    zs[4, y, x] += ov * dv
        for j in range(py):
            y0 = j * step
            if j == 0 or step >= w:
                for s in range(5):
                    for x in range(nx):
                        ys[s, x] = 0.0
                ysub_lo = ysub_hi = 0
                yadd_lo, yadd_hi = y0, y0 + w
            else:
                ysub_lo, ysub_hi = y0 - step, y0
                yadd_lo, yadd_hi = y0 + w - step, y0 + w
            for y in range(ysub_lo, ysub_hi):
                for s in range(5):
                    for x in range(nx):
                        ys[s, x] -= zs[s, y, x]
            for y in range(yadd_lo, yadd_hi):
                for s in range(5):
                    for x in range(nx):
                        ys[s, x] += zs[s, y, x]
            s0 = s1 = s2 = s3 = s4 = 0.0
            for k in range(px):
                x0 = k * step
                if k == 0 or step >= w:
                    s0 = s1 = s2 = s3 = s4 = 0.0
                    for x in range(x0, x0 + w):
                        s0 += ys[0, x]
                        s1 += ys[1, x]
                        s2 += ys[2, x]
                        s3 += ys[3, x]
                        s4 += ys[4, x]
                else:
                    for x in range(x0 - step, x0):
                        s0 -= ys[0, x]
                        s1 -= ys[1, x]
                        s2 -= ys[2, x]
                        s3 -= ys[3, x]
                        s4 -= ys[4, x]
                    for x in range(x0 + w - step, x0 + w):
                        s0 += ys[0, x]
                        s1 += ys[1, x]
                        s2 += ys[2, x]
                        s3 += ys[3, x]
                        s4 += ys[4, x]
                mu1 = s0 / vol
                mu2 = s1 / vol
                var1 = s2 / vol - mu1 * mu1
                if var1 < 0.0:
                    var1 = 0.0
                var2 = s3 / vol - mu2 * mu2
                if var2 < 0.0:
                    var2 = 0.0
                cov = s4 / vol - mu1 * mu2
                local = ((2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)) / (
                    (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
                )
                total += local
                count += 1
                if local < vmin:
                    vmin = local
                if local > vmax:
                    vmax = local
    return total, count, vmin, vmax


def execute_pattern3_compiled(
    workspace, config: Pattern3Config
) -> tuple[Pattern3Result, KernelStats]:
    """Compiled sliding-window SSIM over the workspace's float64 views."""
    shape = workspace.shape
    config.validate(shape)
    if config.dynamic_range is not None:
        L = float(config.dynamic_range)
    else:
        m = workspace.moments
        L = m["max_o"] - m["min_o"]
    if L <= 0.0:
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    total, count, vmin, vmax = compiled_ssim_accumulate(
        workspace.o64, workspace.d64, config.window, config.step, c1, c2
    )
    if count == 0:
        raise ShapeError("no complete SSIM window fits the data")
    if not math.isfinite(total):
        # the sweep's rule: any non-finite window poisons all three values
        # (the comparisons above silently drop NaN)
        total = vmin = vmax = math.nan
    result = Pattern3Result(
        ssim=total / count,
        min_window_ssim=vmin,
        max_window_ssim=vmax,
        n_windows=count,
    )
    return result, plan_pattern3(shape, config)
