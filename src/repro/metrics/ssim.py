"""Pattern-3 reference metric: 3-D windowed SSIM.

A small cubic window scans both fields with a fixed stride (paper Fig. 5);
at each position the local SSIM

    ssim = ((2 μ₁μ₂ + C₁)(2 σ₁₂ + C₂)) / ((μ₁² + μ₂² + C₁)(σ₁² + σ₂² + C₂))

is computed from the window means/variances/covariance, and the final
score is the mean over all window positions.  ``C₁ = (K₁ L)²`` and
``C₂ = (K₂ L)²`` with the conventional ``K₁ = 0.01``, ``K₂ = 0.03`` and
``L`` the dynamic range of the original field.

The reference implementation uses 3-D summed-area tables (inclusive
prefix sums) so that every window statistic costs O(1) — this also keeps
the single-core CI budget manageable for realistic field sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "SsimConfig",
    "SsimResult",
    "ssim3d",
    "ssim3d_naive",
    "box_sums",
    "ssim_from_sums",
    "window_positions",
]


@dataclass(frozen=True)
class SsimConfig:
    """SSIM window geometry and stabilisation constants.

    The paper's evaluation uses ``window=8`` per side and ``step=1``.
    """

    window: int = 8
    step: int = 1
    k1: float = 0.01
    k2: float = 0.03
    #: dynamic range; ``None`` means max(orig) - min(orig)
    dynamic_range: float | None = None
    #: ``"sliding"`` uses summed-area tables (O(N) per statistic,
    #: independent of window size); ``"naive"`` recomputes every window
    #: explicitly (O(N·w³)) and serves as the cross-check oracle.
    method: str = "sliding"

    def validate(self, shape: tuple[int, ...]) -> None:
        if self.window < 1:
            raise ValueError("SSIM window must be >= 1")
        if self.step < 1:
            raise ValueError("SSIM step must be >= 1")
        if self.method not in ("sliding", "naive"):
            raise ValueError(
                f"SSIM method must be 'sliding' or 'naive', got {self.method!r}"
            )
        if any(n < self.window for n in shape):
            raise ShapeError(
                f"field extents {shape} smaller than SSIM window {self.window}"
            )


@dataclass(frozen=True)
class SsimResult:
    """Mean SSIM plus distribution info over windows."""

    ssim: float
    min_window_ssim: float
    max_window_ssim: float
    n_windows: int


def window_positions(n: int, window: int, step: int) -> int:
    """Number of valid window origins along an axis of extent ``n``."""
    if n < window:
        return 0
    return (n - window) // step + 1


def _axis_window_sums(a: np.ndarray, window: int, step: int, axis: int) -> np.ndarray:
    """Sliding-window sums along one axis via a cumulative-sum difference."""
    c = a.cumsum(axis=axis)
    p = window_positions(a.shape[axis], window, step)

    def sl(s):
        return tuple(s if ax == axis else slice(None) for ax in range(a.ndim))

    if step == 1:
        # pure views: out[i] = c[i+w-1] - c[i-1], first window needs no lo
        out = c[sl(slice(window - 1, window - 1 + p))].copy()
        out[sl(slice(1, p))] -= c[sl(slice(0, p - 1))]
        return out
    idx = np.arange(p) * step
    out = np.take(c, idx + window - 1, axis=axis)
    lo = np.take(c, idx[1:] - 1, axis=axis)
    out[sl(slice(1, p))] -= lo
    return out


def box_sums(a: np.ndarray, window: int, step: int) -> np.ndarray:
    """Sliding-window sums of a 3-D array via cascaded axis prefix sums.

    Returns an array of shape ``(pz, py, px)`` where ``p* =
    window_positions(n*, window, step)``; entry ``[i,j,k]`` is the sum of
    the ``window³`` cube whose origin is ``(i*step, j*step, k*step)``.
    One cumsum + one subtraction per axis, with the array shrinking to
    the window-position grid after each — cheaper than an 8-corner
    summed-area-table gather and still O(N) independent of window size.
    """
    if a.ndim != 3:
        raise ShapeError(f"box_sums expects a 3-D array, got {a.shape}")
    out = a.astype(np.float64)
    for axis in range(3):
        out = _axis_window_sums(out, window, step, axis)
    return out


def ssim_from_sums(s1, s2, sq1, sq2, s12, volume: float, c1: float, c2: float):
    """Local SSIM of every window from its five sums ``Σo, Σd, Σo², Σd², Σo·d``.

    The one written-out mix for the reference, 2-D and streamed paths
    (the slab sweep evaluates the same expression in place with ``out=``);
    the operation order is fixed, so callers sharing sums share bits.
    """
    mu1 = s1 / volume
    mu2 = s2 / volume
    var1 = np.maximum(sq1 / volume - mu1 * mu1, 0.0)
    var2 = np.maximum(sq2 / volume - mu2 * mu2, 0.0)
    cov = s12 / volume - mu1 * mu2
    return ((2 * mu1 * mu2 + c1) * (2 * cov + c2)) / (
        (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
    )


def _prepare(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Shared validation + constant derivation for both SSIM paths."""
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(
            f"original {orig.shape} and decompressed {dec.shape} shapes differ"
        )
    if orig.ndim != 3:
        raise ShapeError(f"ssim3d expects 3-D fields, got {orig.shape}")
    config.validate(orig.shape)

    o = orig.astype(np.float64)
    d = dec.astype(np.float64)
    if config.dynamic_range is not None:
        L = float(config.dynamic_range)
    else:
        L = float(o.max() - o.min())
    if L <= 0.0:
        # Degenerate constant field: SSIM is only meaningful through the
        # stabilisation constants; use a unit range so identical inputs
        # still score exactly 1.
        L = 1.0
    c1 = (config.k1 * L) ** 2
    c2 = (config.k2 * L) ** 2
    return o, d, c1, c2


def ssim3d_naive(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig | None = None
) -> SsimResult:
    """Oracle 3-D SSIM: every window's statistics recomputed explicitly.

    O(N·w³) — each window position re-reads its full cube.  Kept as the
    independent cross-check for the sliding-sum fast path; use only on
    small fields.
    """
    config = config or SsimConfig()
    o, d, c1, c2 = _prepare(orig, dec, config)
    w, step = config.window, config.step
    nz, ny, nx = o.shape
    pz = window_positions(nz, w, step)
    py = window_positions(ny, w, step)
    px = window_positions(nx, w, step)

    total = 0.0
    count = 0
    vmin, vmax = float("inf"), float("-inf")
    for i in range(pz):
        z0 = i * step
        for j in range(py):
            y0 = j * step
            for k in range(px):
                x0 = k * step
                wo = o[z0 : z0 + w, y0 : y0 + w, x0 : x0 + w]
                wd = d[z0 : z0 + w, y0 : y0 + w, x0 : x0 + w]
                mu1 = float(wo.mean())
                mu2 = float(wd.mean())
                var1 = float(((wo - mu1) ** 2).mean())
                var2 = float(((wd - mu2) ** 2).mean())
                cov = float(((wo - mu1) * (wd - mu2)).mean())
                local = ((2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)) / (
                    (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
                )
                total += local
                count += 1
                vmin = min(vmin, local)
                vmax = max(vmax, local)
    if count == 0:
        raise ShapeError("no complete SSIM window fits the data")
    return SsimResult(
        ssim=total / count,
        min_window_ssim=vmin,
        max_window_ssim=vmax,
        n_windows=count,
    )


def ssim3d(
    orig: np.ndarray, dec: np.ndarray, config: SsimConfig | None = None
) -> SsimResult:
    """Reference 3-D SSIM between an original/decompressed pair.

    Dispatches on ``config.method``: the default ``"sliding"`` path uses
    summed-area tables; ``"naive"`` delegates to :func:`ssim3d_naive`.
    """
    config = config or SsimConfig()
    if config.method == "naive":
        return ssim3d_naive(orig, dec, config)
    o, d, c1, c2 = _prepare(orig, dec, config)
    w, step = config.window, config.step
    local = ssim_from_sums(
        box_sums(o, w, step),
        box_sums(d, w, step),
        box_sums(o * o, w, step),
        box_sums(d * d, w, step),
        box_sums(o * d, w, step),
        float(w**3),
        c1,
        c2,
    )
    return SsimResult(
        ssim=float(local.mean()),
        min_window_ssim=float(local.min()),
        max_window_ssim=float(local.max()),
        n_windows=int(local.size),
    )
