"""Pattern-1 kernel: fused global reductions (paper Algorithm 1).

One cooperative kernel computes all 14 Category-I metrics:

* **Sweep 1** — each z-slice is assigned to a thread block of (32, 8)
  threads; every thread grid-strides over its slice accumulating all 14
  reduction accumulators in registers (one global read feeds *every*
  metric — the fusion the paper highlights in Fig. 3); warp-shuffle tree
  reductions collapse lanes, a shared-memory staging row collapses warps,
  and a cooperative-grid sync enables the final cross-block reduction.
* **Sweep 2** — with the global error/pwr extrema now known, the same grid
  re-scans the data to build the two PDFs (histograms) with atomics.

The functional execution below mirrors this decomposition exactly —
per-slice partials via per-thread/warp-structured NumPy reductions,
followed by an explicit grid-level reduction — so its results equal the
independent references in :mod:`repro.metrics` to FP tolerance, and its
event counts equal :func:`plan_pattern1` exactly (asserted in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.gpusim.counters import KernelStats
from repro.gpusim.warp import warp_reduce
from repro.metrics.error_stats import Pdf
from repro.metrics.rate_distortion import finalize_rate_distortion

__all__ = [
    "Pattern1Config",
    "Pattern1Result",
    "plan_pattern1",
    "execute_pattern1",
    "result_from_sums",
    "BLOCK_X",
    "BLOCK_Y",
    "REGS_PER_THREAD",
    "N_ACCUMULATORS",
]

#: block geometry: one warp wide, 8 warps tall (256 threads)
BLOCK_X = 32
BLOCK_Y = 8
#: register demand of the fused kernel: 14 live accumulators plus address
#: arithmetic and loop state — 56 regs/thread × 256 threads = 14336 ≈ the
#: paper's "14k Regs/TB" (Table II)
REGS_PER_THREAD = 56
#: fused accumulators staged through shared memory between warps
N_ACCUMULATORS = 14
#: shared staging: BLOCK_Y warp slots × N_ACCUMULATORS × 4 B = 448 B ≈
#: the paper's "0.4KB SMem/TB"
SMEM_PER_BLOCK = BLOCK_Y * N_ACCUMULATORS * 4

#: useful device operations per element in sweep 1 (error, |e|, e², pwr
#: division + mask, running min/max/sums for 14 accumulators)
OPS_SWEEP1 = 30
#: operations per element in sweep 2 (two bin computations + bounds tests)
OPS_SWEEP2 = 10
#: calibrated issue-efficiency inflation: real fused-reduction kernels on
#: V100 sustain well below peak issue rate (register pressure at 4
#: blocks/SM, predicated lanes, atomics in sweep 2).  The factor is fitted
#: once against Fig. 11(a)'s measured 103-137 GB/s and reused everywhere.
P1_STALL_FACTOR = 2.3


@dataclass(frozen=True)
class Pattern1Config:
    """User-visible knobs of the fused reduction kernel."""

    pdf_bins: int = 1024
    #: |orig| values at or below this are excluded from pwr-error stats
    pwr_floor: float = 0.0


@dataclass
class Pattern1Result:
    """All Category-I metric values produced by one fused launch."""

    n: int
    min_err: float
    max_err: float
    avg_err: float
    avg_abs_err: float
    max_abs_err: float
    mse: float
    rmse: float
    value_range: float
    nrmse: float
    snr: float
    psnr: float
    min_pwr_err: float
    max_pwr_err: float
    avg_pwr_err: float
    min_orig: float
    max_orig: float
    mean_orig: float
    var_orig: float
    err_pdf: Pdf | None = None
    pwr_err_pdf: Pdf | None = None
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """Scalar metrics keyed by registry name."""
        return {
            "min_err": self.min_err,
            "max_err": self.max_err,
            "avg_err": self.avg_err,
            "mse": self.mse,
            "rmse": self.rmse,
            "nrmse": self.nrmse,
            "snr": self.snr,
            "psnr": self.psnr,
            "value_range": self.value_range,
            "min_pwr_err": self.min_pwr_err,
            "max_pwr_err": self.max_pwr_err,
            "avg_pwr_err": self.avg_pwr_err,
        }


def _shape3d(shape: tuple[int, ...]) -> tuple[int, int, int]:
    if len(shape) != 3 or min(shape) < 1:
        raise ShapeError(f"pattern kernels expect 3-D shapes, got {shape}")
    return shape  # type: ignore[return-value]


def plan_pattern1(
    shape: tuple[int, int, int], config: Pattern1Config | None = None
) -> KernelStats:
    """Closed-form event counts for the fused pattern-1 kernel."""
    config = config or Pattern1Config()
    nz, ny, nx = _shape3d(shape)
    n = nz * ny * nx
    iters = math.ceil(ny / BLOCK_Y) * math.ceil(nx / BLOCK_X)
    warps_per_block = BLOCK_Y
    # warp tree (5 shuffle steps) + cross-warp tree (3 steps over 8 slots),
    # once per accumulator per sweep-1 block reduction
    shuffles = nz * (warps_per_block * 5 + 3) * N_ACCUMULATORS
    # grid-level reduction re-reads each block's partials
    partial_bytes = nz * N_ACCUMULATORS * 4
    stats = KernelStats(
        name="cuZC.pattern1",
        launches=1,
        grid_syncs=2,  # after sweep-1 reduction; after histogram sweep
        # sweep 1 + sweep 2 each read both fields once
        global_read_bytes=2 * (2 * n * 4),
        # block partials out + grid-reduce read-back + final results + PDFs
        global_write_bytes=partial_bytes + 2 * config.pdf_bins * 4 + 64,
        shared_bytes=nz * SMEM_PER_BLOCK * 2,  # staged write + read per block
        shuffle_ops=shuffles,
        flops=int((OPS_SWEEP1 + OPS_SWEEP2) * n * P1_STALL_FACTOR),
        atomic_ops=2 * n,  # one histogram update per PDF per element
        grid_blocks=nz,
        threads_per_block=BLOCK_X * BLOCK_Y,
        regs_per_thread=REGS_PER_THREAD,
        smem_per_block=SMEM_PER_BLOCK,
        iters_per_thread=iters,
        meta={
            "pattern": 1,
            "n_metrics": N_ACCUMULATORS,
            "chain_length": iters,
        },
    )
    return stats


# ---------------------------------------------------------------------------
# functional execution
# ---------------------------------------------------------------------------


def _pad_to_block(slice2d: np.ndarray, fill: float) -> np.ndarray:
    """Pad a (ny, nx) slice to block-dim multiples with ``fill``."""
    ny, nx = slice2d.shape
    py = math.ceil(ny / BLOCK_Y) * BLOCK_Y
    px = math.ceil(nx / BLOCK_X) * BLOCK_X
    if (py, px) == (ny, nx):
        return slice2d
    out = np.full((py, px), fill, dtype=slice2d.dtype)
    out[:ny, :nx] = slice2d
    return out


def _thread_partials(slice2d: np.ndarray, op: np.ufunc, identity: float) -> np.ndarray:
    """Per-thread register partials for one slice (Algorithm 1, ln. 4-6).

    Returns a (BLOCK_Y, BLOCK_X) array: thread (ty, tx)'s accumulator
    after grid-striding the slice.
    """
    padded = _pad_to_block(slice2d, identity)
    py, px = padded.shape
    tiled = padded.reshape(py // BLOCK_Y, BLOCK_Y, px // BLOCK_X, BLOCK_X)
    return op.reduce(op.reduce(tiled, axis=2), axis=0)


def _block_reduce(partials: np.ndarray, op) -> float:
    """Warp shuffles then the cross-warp shared-memory stage (ln. 7-15)."""
    per_warp = warp_reduce(partials, op)  # (BLOCK_Y,) — lane 0 of each warp
    # cross-warp: the first warp reloads the staged values and tree-reduces
    return float(warp_reduce(per_warp[None, :], op)[0])


def result_from_sums(
    n: int,
    min_e: float,
    max_e: float,
    sum_e: float,
    sum_abs_e: float,
    sum_sq_e: float,
    min_o: float,
    max_o: float,
    sum_o: float,
    sum_sq_o: float,
    min_r: float,
    max_r: float,
    sum_r: float,
    cnt_r: float,
    err_pdf: Pdf | None,
    pwr_err_pdf: Pdf | None,
) -> Pattern1Result:
    """Grid-level accumulator sums -> the full Category-I result.

    Shared by the blocked kernel execution, the workspace-fused fast
    path, the tiled/streaming accumulator and the multi-GPU merge; the
    degenerate cases are :func:`finalize_rate_distortion`'s.
    """
    has_r = cnt_r > 0
    if not has_r:
        min_r = max_r = 0.0
    avg_r = sum_r / cnt_r if has_r else 0.0

    mse = sum_sq_e / n
    value_range = max_o - min_o
    mean_o = sum_o / n
    var_o = max(sum_sq_o / n - mean_o * mean_o, 0.0)
    rd = finalize_rate_distortion(n, mse, value_range, var_o)

    return Pattern1Result(
        n=n,
        min_err=min_e,
        max_err=max_e,
        avg_err=sum_e / n,
        avg_abs_err=sum_abs_e / n,
        max_abs_err=max(abs(min_e), abs(max_e)),
        mse=mse,
        rmse=rd.rmse,
        value_range=value_range,
        nrmse=rd.nrmse,
        snr=rd.snr,
        psnr=rd.psnr,
        min_pwr_err=min_r,
        max_pwr_err=max_r,
        avg_pwr_err=avg_r,
        min_orig=min_o,
        max_orig=max_o,
        mean_orig=mean_o,
        var_orig=var_o,
        err_pdf=err_pdf,
        pwr_err_pdf=pwr_err_pdf,
        extras={"pwr_count": cnt_r, "sum_pwr": sum_r if has_r else 0.0},
    )


def _execute_fused(workspace, config: Pattern1Config) -> Pattern1Result:
    """Workspace-fused fast path: one pass builds every accumulator.

    The workspace's per-slice partial sums stand in for the block
    partials; the memoised ``err``/``pwr`` arrays feed the sweep-2
    histograms without re-deriving them.
    """
    m = workspace.moments
    from repro.core.workspace import histogram_pdf

    err_pdf = histogram_pdf(
        workspace.err.ravel(), m["min_e"], m["max_e"], config.pdf_bins
    )
    pwr_pdf = histogram_pdf(
        workspace.pwr_vals, m["min_r"], m["max_r"], config.pdf_bins
    )
    return result_from_sums(
        workspace.n,
        m["min_e"],
        m["max_e"],
        m["sum_e"],
        m["sum_abs_e"],
        m["sum_sq_e"],
        m["min_o"],
        m["max_o"],
        m["sum_o"],
        m["sum_sq_o"],
        m["min_r"],
        m["max_r"],
        m["sum_r"],
        m["cnt_r"],
        err_pdf,
        pwr_pdf,
    )


def execute_pattern1(
    orig: np.ndarray,
    dec: np.ndarray,
    config: Pattern1Config | None = None,
    workspace=None,
) -> tuple[Pattern1Result, KernelStats]:
    """Functional fused pattern-1 kernel (slice-per-block decomposition).

    Passing a :class:`~repro.core.workspace.MetricWorkspace` selects the
    host-fused fast path: accumulators come from the workspace's cached
    per-slice partials (equal to the blocked execution to FP tolerance)
    and the modelled :class:`KernelStats` are unchanged.
    """
    config = config or Pattern1Config()
    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if workspace is not None:
        _shape3d(workspace.shape)
        if workspace.pwr_floor != config.pwr_floor:
            raise ConfigError(
                "workspace pwr_floor differs from the pattern-1 config"
            )
        return _execute_fused(workspace, config), plan_pattern1(
            workspace.shape, config
        )
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    nz, ny, nx = _shape3d(orig.shape)
    n = orig.size
    o64 = orig.astype(np.float64)
    d64 = dec.astype(np.float64)

    inf = np.inf
    # per-block (slice) partials for the grid-level reduction
    acc = {
        "min_e": np.empty(nz),
        "max_e": np.empty(nz),
        "sum_e": np.empty(nz),
        "sum_abs_e": np.empty(nz),
        "sum_sq_e": np.empty(nz),
        "min_o": np.empty(nz),
        "max_o": np.empty(nz),
        "sum_o": np.empty(nz),
        "sum_sq_o": np.empty(nz),
        "min_r": np.empty(nz),
        "max_r": np.empty(nz),
        "sum_r": np.empty(nz),
        "cnt_r": np.empty(nz),
    }

    for k in range(nz):  # one thread block per slice
        o = o64[k]
        d = d64[k]
        e = d - o
        mask = np.abs(o) > config.pwr_floor
        r = np.where(mask, e / np.where(mask, o, 1.0), 0.0)
        rmin = np.where(mask, r, inf)
        rmax = np.where(mask, r, -inf)

        def red(vals, op, identity):
            return _block_reduce(_thread_partials(vals, op, identity), op)

        acc["min_e"][k] = red(e, np.minimum, inf)
        acc["max_e"][k] = red(e, np.maximum, -inf)
        acc["sum_e"][k] = red(e, np.add, 0.0)
        acc["sum_abs_e"][k] = red(np.abs(e), np.add, 0.0)
        acc["sum_sq_e"][k] = red(e * e, np.add, 0.0)
        acc["min_o"][k] = red(o, np.minimum, inf)
        acc["max_o"][k] = red(o, np.maximum, -inf)
        acc["sum_o"][k] = red(o, np.add, 0.0)
        acc["sum_sq_o"][k] = red(o * o, np.add, 0.0)
        acc["min_r"][k] = red(rmin, np.minimum, inf)
        acc["max_r"][k] = red(rmax, np.maximum, -inf)
        acc["sum_r"][k] = red(r, np.add, 0.0)
        acc["cnt_r"][k] = red(mask.astype(np.float64), np.add, 0.0)

    # ---- grid-level reduction (after cooperative sync; ln. 18-23) -------
    min_e = float(acc["min_e"].min())
    max_e = float(acc["max_e"].max())
    sum_e = float(acc["sum_e"].sum())
    sum_abs_e = float(acc["sum_abs_e"].sum())
    sum_sq_e = float(acc["sum_sq_e"].sum())
    min_o = float(acc["min_o"].min())
    max_o = float(acc["max_o"].max())
    sum_o = float(acc["sum_o"].sum())
    sum_sq_o = float(acc["sum_sq_o"].sum())
    cnt_r = float(acc["cnt_r"].sum())
    has_r = cnt_r > 0
    min_r = float(acc["min_r"].min()) if has_r else 0.0
    max_r = float(acc["max_r"].max()) if has_r else 0.0

    # ---- sweep 2: histograms with global extrema ------------------------
    err_pdf = _sweep2_pdf(o64, d64, min_e, max_e, config.pdf_bins, kind="err")
    pwr_pdf = _sweep2_pdf(
        o64, d64, min_r, max_r, config.pdf_bins,
        kind="pwr", floor=config.pwr_floor,
    )

    result = result_from_sums(
        n,
        min_e,
        max_e,
        sum_e,
        sum_abs_e,
        sum_sq_e,
        min_o,
        max_o,
        sum_o,
        sum_sq_o,
        min_r,
        max_r,
        float(acc["sum_r"].sum()),
        cnt_r,
        err_pdf,
        pwr_pdf,
    )
    return result, plan_pattern1(orig.shape, config)


def _sweep2_pdf(
    o64: np.ndarray,
    d64: np.ndarray,
    lo: float,
    hi: float,
    bins: int,
    kind: str,
    floor: float = 0.0,
) -> Pdf:
    """Histogram sweep: per-block partial histograms merged by atomics."""
    if kind == "err":
        vals = (d64 - o64).ravel()
    else:
        o = o64.ravel()
        mask = np.abs(o) > floor
        if not mask.any():
            edges = np.array([-1e-12, 1e-12])
            return Pdf(bin_edges=edges, density=np.array([1.0 / (edges[1] - edges[0])]))
        vals = (d64.ravel()[mask] - o[mask]) / o[mask]
    if lo == hi:
        eps = max(abs(lo), 1.0) * 1e-9 + 1e-300
        edges = np.array([lo - eps, hi + eps])
        return Pdf(bin_edges=edges, density=np.array([1.0 / (edges[1] - edges[0])]))
    hist, edges = np.histogram(vals, bins=bins, range=(lo, hi), density=True)
    return Pdf(bin_edges=edges, density=hist)
