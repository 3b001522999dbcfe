"""Pattern-2 kernel: blocked stencil computations (paper Algorithm 2).

A single fused cooperative kernel computes every Category-II metric:
first/second derivatives (with divergence/Laplacian reductions) of both
the original and decompressed fields, plus the spatial autocorrelation of
the compression error at every requested lag.

Decomposition (Fig. 7): the volume is split into z-slabs, one thread
block per slab; within a slab, 16×16×17 cubes (tile + stride halo) are
iteratively staged through shared memory so that one global load of a
data point serves **all** pattern-2 metrics.  The kernel makes one fused
sweep per stride value ``s`` (cooperative grid syncs in between):

* sweep ``s = 1`` — first-order derivatives + divergence + lag-1
  autocorrelation;
* sweep ``s = 2`` — second-order derivatives + Laplacian + lag-2
  autocorrelation;
* sweeps ``s >= 3`` — lag-``s`` autocorrelation only.

The error mean/variance the autocorrelation normalisation needs are
consumed from the pattern-1 kernel's results (the coordinator passes them
in — the cross-pattern data reuse the paper's design enables); standalone
execution computes them on the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.counters import KernelStats
from repro.metrics.derivatives import DerivativeComparison

__all__ = [
    "Pattern2Config",
    "Pattern2Result",
    "plan_pattern2",
    "execute_pattern2",
    "stencil_fields_local",
    "new_stencil_partials",
    "add_stencil_partials",
    "finalize_stencil_partials",
    "TILE",
    "TILE_Z",
]

#: cube footprint per thread block: 16×16 threads, staging a 16×16×17
#: shared-memory cube (tile + one-slice halo) = 17408 B ≈ the paper's
#: "17KB SMem/TB" (Table II)
TILE = 16
TILE_Z = 16
SMEM_PER_BLOCK = TILE * TILE * (TILE_Z + 1) * 4
#: stencil kernels are lean on registers: loop indices plus a handful of
#: neighbour values — 9 regs/thread × 256 threads = 2304 ≈ "2.3k Regs/TB"
REGS_PER_THREAD = 9

#: device ops per element for *staging* one sweep: cube address
#: arithmetic, the global→shared copy, boundary predicates, and the
#: per-cube synchronisation.  Staging dominates stencil kernels; fusing
#: all pattern-2 metrics into one sweep amortises it (the paper's
#: "one loading ... can serve the calculations of all pattern-2 metrics")
OPS_STAGING_SWEEP = 30
#: device ops per element for the derivative math itself (central diffs
#: along three axes on two fields, magnitude, divergence partials)
OPS_DERIV_SWEEP = 30
#: device ops per element for the autocorrelation math at one lag
OPS_AUTOCORR_SWEEP = 8
#: calibrated issue-efficiency inflation for shared-memory stencil code
#: (bank conflicts, sync between cube loads); fitted against Fig. 11(b)
P2_STALL_FACTOR = 2.2


@dataclass(frozen=True)
class Pattern2Config:
    """User-visible knobs of the fused stencil kernel."""

    #: autocorrelation spatial gaps 1..max_lag (paper evaluation: 10)
    max_lag: int = 10
    #: derivative orders to compute (paper evaluation: both)
    orders: tuple[int, ...] = (1, 2)

    def validate(self, shape: tuple[int, int, int]) -> None:
        if self.max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        if any(o not in (1, 2) for o in self.orders):
            raise ValueError(f"derivative orders must be in {{1,2}}, got {self.orders}")
        need = max((self.max_lag, *(2 * o for o in self.orders), 1))
        if need >= min(shape):
            raise ShapeError(
                f"shape {shape} too small for stencil reach {need}"
            )

    @property
    def n_sweeps(self) -> int:
        """Fused sweeps performed: one per stride in 1..max(max_lag, orders)."""
        return max((self.max_lag, *self.orders, 1))


@dataclass
class Pattern2Result:
    """All Category-II metric values produced by one fused launch."""

    der1: DerivativeComparison | None
    der2: DerivativeComparison | None
    divergence: DerivativeComparison | None
    laplacian: DerivativeComparison | None
    #: AC(0..max_lag) of the compression error (paper Eq. 2)
    autocorrelation: np.ndarray
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        out: dict[str, float] = {}
        if self.der1 is not None:
            out["derivative_order1"] = self.der1.rms_diff
        if self.der2 is not None:
            out["derivative_order2"] = self.der2.rms_diff
        if self.divergence is not None:
            out["divergence"] = self.divergence.rms_diff
        if self.laplacian is not None:
            out["laplacian"] = self.laplacian.rms_diff
        if len(self.autocorrelation) > 1:
            out["autocorrelation_lag1"] = float(self.autocorrelation[1])
        return out


def _shape3d(shape: tuple[int, ...]) -> tuple[int, int, int]:
    if len(shape) != 3 or min(shape) < 1:
        raise ShapeError(f"pattern kernels expect 3-D shapes, got {shape}")
    return shape  # type: ignore[return-value]


def _halo_factor(stride: int) -> float:
    """Extra global traffic at the given stride.

    Each thread block owns one z-plane and stages a rolling window of
    neighbouring planes through its 16×16×17 shared-memory cube, so the
    z-halo is read once per block; the residual overhead is the
    ``stride``-wide boundary re-reads between adjacent xy-tiles and the
    rolling window's warm-up planes.
    """
    return (1.0 + stride / TILE) * (1.0 + stride / (TILE * TILE_Z))


def plan_pattern2(
    shape: tuple[int, int, int], config: Pattern2Config | None = None
) -> KernelStats:
    """Closed-form event counts for the fused pattern-2 kernel.

    Geometry: one thread block per z-plane (the paper's "number of TBs is
    decided by the z-axis size"), 16×16 threads per block iterating over
    the plane's xy-tiles, staging 16×16×17 cubes in shared memory.
    """
    config = config or Pattern2Config()
    nz, ny, nx = _shape3d(shape)
    config.validate((nz, ny, nx))
    n = nz * ny * nx
    grid = nz
    cubes_per_plane = math.ceil(ny / TILE) * math.ceil(nx / TILE)

    read_bytes = 0
    flops = 0.0
    shared = 0
    for s in range(1, config.n_sweeps + 1):
        hf = _halo_factor(s)
        read_bytes += int(2 * n * 4 * hf)  # both fields staged via smem
        # one smem write per staged element; ~7 smem reads per stencil point
        shared += int(n * 4 * hf + 7 * n * 4)
        flops += OPS_STAGING_SWEEP * n  # amortised once per fused sweep
        if s in config.orders:
            flops += OPS_DERIV_SWEEP * n
        if s <= config.max_lag:
            flops += OPS_AUTOCORR_SWEEP * n
    # derivative fields are written back to global (Algorithm 2, ln. "Der[...] <-")
    write_bytes = len(config.orders) * 2 * n * 4 + config.n_sweeps * grid * 8

    # block-level reduction shuffles per cube per sweep (tree over 8 warps)
    shuffles = config.n_sweeps * grid * cubes_per_plane * (8 * 5 + 3) * 2

    return KernelStats(
        name="cuZC.pattern2",
        launches=1,
        grid_syncs=config.n_sweeps,
        global_read_bytes=read_bytes,
        global_write_bytes=write_bytes,
        shared_bytes=shared,
        shuffle_ops=shuffles,
        flops=int(flops * P2_STALL_FACTOR),
        atomic_ops=0,
        grid_blocks=grid,
        threads_per_block=TILE * TILE,
        regs_per_thread=REGS_PER_THREAD,
        smem_per_block=SMEM_PER_BLOCK,
        iters_per_thread=cubes_per_plane,
        meta={
            "pattern": 2,
            "sweeps": config.n_sweeps,
            "chain_length": cubes_per_plane,
        },
    )


# ---------------------------------------------------------------------------
# functional execution
# ---------------------------------------------------------------------------


def _slab_ranges(nz: int) -> list[tuple[int, int]]:
    """Interior z-ranges owned by each thread block (slab decomposition)."""
    return [(z0, min(z0 + TILE_Z, nz)) for z0 in range(0, nz, TILE_Z)]


#: interior-shaped float64 buffers one :func:`stencil_fields_local` call
#: works in: the four output fields plus four temporaries
STENCIL_BUFFERS = 8


def stencil_fields_local(
    local: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(grad magnitude, 2nd-deriv magnitude, divergence, laplacian) of the
    interior of one ±1-haloed float64 block — the maths a thread block
    runs on its staged shared-memory cube.

    Everything is written into ``out``, a ``(STENCIL_BUFFERS, rows, ny-2,
    nx-2)`` scratch array: the fields are ``out[:4]``, the rest is working
    storage.  Each element sees the same operations in the same order
    whatever the block depth, so a field value does not depend on how the
    volume is cut into blocks.
    """
    grad, der2, div, lap, dz, dy, dx, tmp = out
    c = local[1:-1, 1:-1, 1:-1]
    lo_hi = (
        (dz, local[:-2, 1:-1, 1:-1], local[2:, 1:-1, 1:-1]),
        (dy, local[1:-1, :-2, 1:-1], local[1:-1, 2:, 1:-1]),
        (dx, local[1:-1, 1:-1, :-2], local[1:-1, 1:-1, 2:]),
    )

    def magnitude(dst):
        np.multiply(dx, dx, out=dst)
        np.multiply(dy, dy, out=tmp)
        np.add(dst, tmp, out=dst)
        np.multiply(dz, dz, out=tmp)
        np.add(dst, tmp, out=dst)
        np.sqrt(dst, out=dst)

    for d, lo, hi in lo_hi:  # central first differences
        np.subtract(hi, lo, out=d)
        np.multiply(d, 0.5, out=d)  # == d / 2.0 bit for bit
    magnitude(grad)
    np.add(dz, dy, out=div)
    np.add(div, dx, out=div)
    np.multiply(c, 2, out=tmp)
    for d, lo, hi in lo_hi:  # second differences hi - 2c + lo
        np.subtract(hi, tmp, out=d)
        np.add(d, lo, out=d)
    magnitude(der2)
    np.add(dz, dy, out=lap)
    np.add(lap, dx, out=lap)
    return grad, der2, div, lap


def new_stencil_partials(whichs: tuple[int, ...]) -> dict[int, dict]:
    """Zeroed comparison partial sums per derived field ``which``
    (0=grad, 1=2nd-deriv magnitude, 2=divergence, 3=laplacian)."""
    return {
        w: {"sum_abs_o": 0.0, "sum_abs_d": 0.0, "sum_sq_diff": 0.0,
            "max_diff": 0.0, "count": 0}
        for w in whichs
    }


def add_stencil_partials(
    acc: dict[int, dict], local_o: np.ndarray, local_d: np.ndarray, pool
) -> None:
    """Accumulate the comparisons of ``acc``'s stencil fields over the
    interior of a ±1-haloed float64 block pair.

    The block is walked in cache-sized sub-slabs whose sixteen stencil
    buffers are carved from ``pool``'s arena: each sub-slab is staged once
    per input and feeds every requested comparison while it is hot — the
    in-kernel reduce of Algorithm 2.
    """
    rows = local_o.shape[0] - 2
    plane = (local_o.shape[1] - 2, local_o.shape[2] - 2)
    if rows < 1 or min(plane) < 1:
        return
    depth = pool.sweep_depth = pool.slab_depth(local_o.shape)
    buffers = (STENCIL_BUFFERS, depth, *plane)
    bo, bd = pool.carve(buffers, buffers)
    for r0 in range(0, rows, depth):
        n = min(depth, rows - r0)
        fo_all = stencil_fields_local(local_o[r0 : r0 + n + 2], bo[:, :n])
        fd_all = stencil_fields_local(local_d[r0 : r0 + n + 2], bd[:, :n])
        tmp = bo[-1, :n]  # the stencil's temporary is free again
        for w, a in acc.items():
            fo, fd = fo_all[w], fd_all[w]
            if w < 2:
                # gradient/2nd-derivative magnitudes are sqrt outputs —
                # already non-negative, abs would be an extra pass
                a["sum_abs_o"] += float(fo.sum())
                a["sum_abs_d"] += float(fd.sum())
            else:
                a["sum_abs_o"] += float(np.abs(fo, out=tmp).sum())
                a["sum_abs_d"] += float(np.abs(fd, out=tmp).sum())
            np.subtract(fd, fo, out=tmp)
            np.abs(tmp, out=tmp)
            a["max_diff"] = max(a["max_diff"], float(tmp.max()))
            a["sum_sq_diff"] += float(np.multiply(tmp, tmp, out=tmp).sum())
            a["count"] += fo.size


def finalize_stencil_partials(acc: dict[int, dict]) -> dict[int, DerivativeComparison]:
    """The grid-level merge of :func:`add_stencil_partials` sums."""
    out: dict[int, DerivativeComparison] = {}
    for w, a in acc.items():
        if a["count"] == 0:
            raise ShapeError("field too small for the pattern-2 stencil")
        out[w] = DerivativeComparison(
            mean_orig=a["sum_abs_o"] / a["count"],
            mean_dec=a["sum_abs_d"] / a["count"],
            rms_diff=math.sqrt(a["sum_sq_diff"] / a["count"]),
            max_diff=a["max_diff"],
        )
    return out


def _field_comparisons(
    o64: np.ndarray, d64: np.ndarray, whichs: tuple[int, ...], pool
) -> dict[int, DerivativeComparison]:
    """One sub-slab sweep feeding every derived-field comparison in
    ``whichs`` (the unfused path calls it once per field instead)."""
    acc = new_stencil_partials(whichs)
    add_stencil_partials(acc, o64, d64, pool)
    return finalize_stencil_partials(acc)


def _blocked_autocorr(
    e: np.ndarray, max_lag: int, mu: float, var: float
) -> np.ndarray:
    """Slab-blocked Eq. (2) autocorrelation; equals the reference."""
    nz, ny, nx = e.shape
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if var == 0.0:
        out[1:] = 0.0
        return out
    c = e - mu
    for tau in range(1, max_lag + 1):
        acc = 0.0
        zmax = nz - tau
        for z0, z1 in _slab_ranges(nz):
            hi = min(z1, zmax)
            if z0 >= hi:
                continue
            core = c[z0:hi, : ny - tau, : nx - tau]
            sz = c[z0 + tau : hi + tau, : ny - tau, : nx - tau]
            sy = c[z0:hi, tau:, : nx - tau][:, : ny - tau, :]
            sx = c[z0:hi, : ny - tau, tau:][:, :, : nx - tau]
            acc += float(np.sum(core * (sz + sy + sx)))
        ne = (nz - tau) * (ny - tau) * (nx - tau)
        out[tau] = acc / 3.0 / ne / var
    return out


def _fused_autocorr(
    e: np.ndarray, max_lag: int, mu: float, var: float
) -> np.ndarray:
    """Whole-volume Eq. (2) autocorrelation with no per-lag temporaries.

    The three directional cross-products are evaluated as einsum dot
    products over strided views, so nothing beyond the centred error is
    materialised — the host analogue of the kernel accumulating all three
    shifted reads from the staged cube in registers.  Summation order
    differs from :func:`_blocked_autocorr` only in the final three-way
    add, well inside the checker-level 1e-9 tolerance.
    """
    nz, ny, nx = e.shape
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    if var == 0.0:
        out[1:] = 0.0
        return out
    c = e - mu
    for tau in range(1, max_lag + 1):
        core = c[: nz - tau, : ny - tau, : nx - tau]
        sz = c[tau:, : ny - tau, : nx - tau]
        sy = c[: nz - tau, tau:, : nx - tau]
        sx = c[: nz - tau, : ny - tau, tau:]
        acc = (
            np.einsum("ijk,ijk->", core, sz)
            + np.einsum("ijk,ijk->", core, sy)
            + np.einsum("ijk,ijk->", core, sx)
        )
        ne = (nz - tau) * (ny - tau) * (nx - tau)
        out[tau] = float(acc) / 3.0 / ne / var
    return out


def execute_pattern2(
    orig: np.ndarray,
    dec: np.ndarray,
    config: Pattern2Config | None = None,
    err_mean: float | None = None,
    err_var: float | None = None,
    workspace=None,
) -> tuple[Pattern2Result, KernelStats]:
    """Functional fused pattern-2 kernel (slab/cube decomposition).

    ``err_mean``/``err_var`` may be supplied from a pattern-1 run (the
    coordinator's cross-pattern reuse); otherwise they are computed here.
    With a :class:`~repro.core.workspace.MetricWorkspace`, the cached
    float64 views and error array are reused and each sub-slab's stencil
    fields are computed once for all comparisons.
    """
    config = config or Pattern2Config()
    if workspace is not None:
        shape = _shape3d(workspace.shape)
        config.validate(shape)
        o64, d64 = workspace.o64, workspace.d64
        e = workspace.err
        pool = workspace.scratch
    else:
        # imported here: repro.core imports the kernels' config classes
        from repro.core.workspace import default_scratch_pool

        orig = np.asarray(orig)
        dec = np.asarray(dec)
        if orig.shape != dec.shape:
            raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
        shape = _shape3d(orig.shape)
        config.validate(shape)
        o64 = orig.astype(np.float64)
        d64 = dec.astype(np.float64)
        e = None
        pool = default_scratch_pool()

    whichs: tuple[int, ...] = ()
    if 1 in config.orders:
        whichs += (0, 2)
    if 2 in config.orders:
        whichs += (1, 3)
    if workspace is not None:
        cmp = _field_comparisons(o64, d64, whichs, pool)
    else:
        # the per-metric discipline moZC models: every comparison
        # re-stages the volume for itself
        cmp = {}
        for w in whichs:
            cmp.update(_field_comparisons(o64, d64, (w,), pool))
    der1, div = cmp.get(0), cmp.get(2)
    der2, lap = cmp.get(1), cmp.get(3)

    if e is None:
        e = d64 - o64
    mu = float(e.mean()) if err_mean is None else err_mean
    var = float(e.var()) if err_var is None else err_var
    if workspace is not None:
        ac = _fused_autocorr(e, config.max_lag, mu, var)
    else:
        ac = _blocked_autocorr(e, config.max_lag, mu, var)

    result = Pattern2Result(
        der1=der1,
        der2=der2,
        divergence=div,
        laplacian=lap,
        autocorrelation=ac,
    )
    return result, plan_pattern2(shape, config)
