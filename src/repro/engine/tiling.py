"""Tiled single-pass execution: cache-blocked fusion of patterns 1 and 2.

The paper's fused kernels read each element of the original/decompressed
pair once from global memory and feed every reduction from registers and
shared memory (Fig. 3, Algorithms 1-2).  The whole-array host path (PR 1)
fuses *logically* — one :class:`~repro.core.workspace.MetricWorkspace`
feeds every consumer — but still materialises full-size intermediates
(the float64 views and ``err``), so peak memory is several× the input.

This module is the cache-blocked analogue of the kernel design:

* a **z-slab scheduler** streams the pair through cache-sized slabs
  (``slab_nz`` interior planes plus a ±1 halo for the stencils — the
  host mirror of the 16×16×17 shared-memory cube);
* while a slab is hot, *all* selected pattern-1 reductions, pattern-2
  stencil comparisons, and per-lag autocorrelation partials consume it,
  accumulating into a :class:`TileAccumulator` instead of whole-array
  temporaries;
* a second sweep (mirroring the kernel's sweep 2) builds the PDF
  histograms — which need the global extrema — plus the centred Pearson
  co-moments and the entropy histogram for the auxiliary metrics;
* slab conversion buffers come from a reused
  :class:`~repro.core.workspace.ScratchPool`, so steady-state tiled
  assessment performs no full-size allocations at all.

:class:`TileAccumulator` is deliberately independent of how blocks are
produced: the tiled executor feeds it slab views, and
:class:`~repro.core.streaming.StreamingChecker` feeds it caller-sized
chunks — one accumulator implementation, two schedulers.

Results equal the whole-array fused path to FP tolerance (summation is
grouped per slab instead of per z-slice); PDF histograms are
bit-identical because bin assignment is element-wise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.workspace import ScratchPool, histogram_pdf
from repro.errors import CheckerError, ConfigError, ShapeError
from repro.kernels.pattern1 import Pattern1Result, result_from_sums
from repro.kernels.pattern2 import (
    Pattern2Result,
    add_stencil_partials,
    finalize_stencil_partials,
    new_stencil_partials,
)
from repro.metrics.derivatives import DerivativeComparison
from repro.metrics.error_stats import Pdf
from repro.metrics.properties import DEFAULT_ENTROPY_BINS

__all__ = [
    "AUTO_MIN_BYTES",
    "AUTO_SLAB_BYTES",
    "resolve_slab",
    "slab_candidates",
    "TileAccumulator",
    "TiledAssessment",
]

#: fields smaller than this are cache-resident anyway — ``tiling="auto"``
#: keeps the whole-array fused path (and its bit-exact behaviour) there
AUTO_MIN_BYTES = 8 << 20
#: target bytes per float64 slab buffer under ``tiling="auto"``; the
#: working set is ~3 such buffers (orig, dec, err) — sized to stay in the
#: last-level cache rather than round-tripping DRAM per intermediate
AUTO_SLAB_BYTES = 8 << 20


def resolve_slab(
    shape: tuple[int, ...],
    tiling: str | int,
    itemsize: int = 4,
) -> int | None:
    """Turn a ``tiling`` setting into a slab depth (or ``None`` = whole).

    ``"off"`` and non-3-D shapes always resolve to ``None``.  An explicit
    integer always tiles (clamped to ``nz``) — that is the testing knob.
    ``"auto"`` tiles only fields of at least :data:`AUTO_MIN_BYTES`, so
    small inputs keep the exact whole-array behaviour, and picks a slab
    depth whose float64 conversion buffers are ~:data:`AUTO_SLAB_BYTES`.
    """
    if tiling == "off":
        return None
    if len(shape) != 3:
        return None
    nz, ny, nx = shape
    if isinstance(tiling, bool):
        raise ConfigError(f"tiling must be 'auto', 'off' or an int, got {tiling!r}")
    if isinstance(tiling, int):
        if tiling < 1:
            raise ConfigError(f"tiling slab depth must be >= 1, got {tiling}")
        return min(tiling, nz)
    if tiling == "auto":
        if nz * ny * nx * itemsize < AUTO_MIN_BYTES:
            return None
        plane_bytes = ny * nx * 8
        slab = int(max(4, min(64, AUTO_SLAB_BYTES // max(plane_bytes, 1))))
        if slab >= nz:
            return None
        return slab
    raise ConfigError(
        f"tiling must be 'auto', 'off' or a positive slab depth, got {tiling!r}"
    )


def slab_candidates(
    shape: tuple[int, ...],
    tiling: str | int,
    itemsize: int = 4,
) -> tuple[int | None, ...]:
    """Slab depths worth costing for a shape (``None`` = whole-array).

    The dispatch predictor's candidate grid.  Pinned settings stay
    pinned: ``"off"`` and explicit integers yield exactly what
    :func:`resolve_slab` would.  ``"auto"`` on fields below
    :data:`AUTO_MIN_BYTES` keeps the single whole-array candidate — the
    bit-exact small-field behaviour must not depend on a calibration
    table — while larger fields get whole-array, the auto depth, and two
    fixed depths bracketing the usual cache sweet spot.
    """
    if len(shape) != 3 or tiling == "off":
        return (None,)
    if isinstance(tiling, bool):
        raise ConfigError(f"tiling must be 'auto', 'off' or an int, got {tiling!r}")
    nz = shape[0]
    if isinstance(tiling, int):
        return (resolve_slab(shape, tiling, itemsize),)
    out: set[int | None] = {None, resolve_slab(shape, tiling, itemsize)}
    if out == {None}:
        return (None,)
    for depth in (16, 32):
        if 1 <= depth < nz:
            out.add(depth)
    return tuple(sorted(out, key=lambda s: -1 if s is None else s))


class TileAccumulator:
    """Fused reduction partials accumulated from consecutive z-blocks.

    Feed blocks in z order via :meth:`add_block` (any per-block depth —
    slabs, chunks, or single slices).  The accumulator tracks:

    * all pattern-1 sums/extrema (the kernel's 14 registers);
    * per-lag autocorrelation raw sums — a (z, z+τ) pair is emitted when
      its *later* slice arrives, so only the trailing ``max_lag`` error
      slices are carried (ping-pong buffers; no full error field);
    * per-``which`` derivative partial sums via :meth:`add_deriv_local`.

    The mean-centring correction for the autocorrelation is applied once
    in :meth:`finalize_autocorr`:
    ``Σ(a-μ)(Σ_i b_i - 3μ) = Σab - μΣb - 3μΣa + 3 n μ²``.
    """

    def __init__(
        self,
        plane_shape: tuple[int, int],
        max_lag: int = 0,
        pwr_floor: float = 0.0,
        deriv_whichs: tuple[int, ...] = (),
        z0: int = 0,
    ):
        if len(plane_shape) != 2 or min(plane_shape) < 1:
            raise ShapeError(f"plane_shape must be (ny, nx), got {plane_shape}")
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        if max_lag and max_lag >= min(plane_shape):
            raise ShapeError(
                f"max_lag {max_lag} must be < min plane extent {min(plane_shape)}"
            )
        self.ny, self.nx = plane_shape
        self.max_lag = max_lag
        self.pwr_floor = pwr_floor
        self.deriv_whichs = tuple(deriv_whichs)

        #: the global z of the next block's first plane; a slab worker
        #: starts at its slab's ``z0`` and merges into the fold later
        self.z = z0
        self.n = 0
        inf = math.inf
        self.min_e, self.max_e = inf, -inf
        self.sum_e = self.sum_abs_e = self.sum_sq_e = 0.0
        self.min_o, self.max_o = inf, -inf
        self.sum_o = self.sum_sq_o = self.sum_d = 0.0
        self.min_r, self.max_r = inf, -inf
        self.sum_r = 0.0
        self.cnt_r = 0.0

        L = max_lag
        self.ac_ab = np.zeros(L + 1)
        self.ac_a = np.zeros(L + 1)
        self.ac_b = np.zeros(L + 1)
        self.ac_n = np.zeros(L + 1, dtype=np.int64)
        # ping-pong carry of the trailing L error slices: rolling within
        # one buffer would overlap source and destination, so each roll
        # writes into the spare buffer and the two are swapped
        if L:
            self._carry = np.zeros((L, self.ny, self.nx))
            self._spare = np.empty_like(self._carry)
        else:
            self._carry = self._spare = None

        self._deriv = new_stencil_partials(self.deriv_whichs)

    # -- sweep-1 ingestion -------------------------------------------------

    def add_block(self, o64: np.ndarray, d64: np.ndarray, err: np.ndarray) -> None:
        """Consume the next z-block; all three views are ``(cz, ny, nx)``."""
        if err.ndim != 3 or err.shape[1:] != (self.ny, self.nx):
            raise ShapeError(
                f"blocks must be (cz, {self.ny}, {self.nx}), got {err.shape}"
            )
        if o64.shape != err.shape or d64.shape != err.shape:
            raise ShapeError("orig/dec/err block shapes differ")
        of = o64.reshape(-1)
        df = d64.reshape(-1)
        ef = err.reshape(-1)
        self.n += ef.size
        self.min_e = min(self.min_e, float(err.min()))
        self.max_e = max(self.max_e, float(err.max()))
        self.sum_e += float(ef.sum())
        self.sum_abs_e += float(np.abs(ef).sum())
        self.sum_sq_e += float(np.dot(ef, ef))
        self.min_o = min(self.min_o, float(o64.min()))
        self.max_o = max(self.max_o, float(o64.max()))
        self.sum_o += float(of.sum())
        self.sum_sq_o += float(np.dot(of, of))
        self.sum_d += float(df.sum())
        mask = np.abs(of) > self.pwr_floor
        if mask.any():
            r = ef[mask] / of[mask]
            self.min_r = min(self.min_r, float(r.min()))
            self.max_r = max(self.max_r, float(r.max()))
            self.sum_r += float(r.sum())
            self.cnt_r += float(r.size)
        if self.max_lag:
            self._add_autocorr(err)
        self.z += err.shape[0]

    def _add_autocorr(self, e: np.ndarray) -> None:
        cz = e.shape[0]
        z0 = self.z
        L = self.max_lag
        carry = self._carry  # carry[j] holds the error slice at z0 - L + j
        for tau in range(1, L + 1):
            # pairs fully inside this block: (z0+i, z0+i+tau)
            if cz > tau:
                self._emit(e[: cz - tau], e[tau:], tau)
            # pairs whose core slice was carried from earlier blocks:
            # core a in [max(0, z0-tau), min(z0, z0+cz-tau))
            lo = max(0, z0 - tau)
            hi = min(z0, z0 + cz - tau)
            if lo < hi:
                core = carry[L - (z0 - lo) : L - (z0 - hi) if z0 > hi else L]
                later = e[lo + tau - z0 : hi + tau - z0]
                self._emit(core, later, tau)
        self.roll_carry(e)

    def roll_carry(self, e: np.ndarray) -> None:
        """Advance the carry past block ``e`` (it then ends at the block's
        last slice) without touching a sum — all a resumed stream needs
        from the blocks before its checkpoint."""
        cz, L, carry = e.shape[0], self.max_lag, self._carry
        if cz >= L:
            np.copyto(carry, e[cz - L :])
        else:
            spare = self._spare
            np.copyto(spare[: L - cz], carry[cz:])
            np.copyto(spare[L - cz :], e)
            self._carry, self._spare = spare, carry

    def _emit(self, core: np.ndarray, later: np.ndarray, tau: int) -> None:
        """Raw-sum contributions of core slices paired with their τ-later
        partners: the z-shifted later slices plus the cores' own in-plane
        y/x shifts (the three directions of paper Eq. 2)."""
        ny, nx = self.ny, self.nx
        c = core[:, : ny - tau, : nx - tau]
        sz = later[:, : ny - tau, : nx - tau]
        sy = core[:, tau:, : nx - tau]
        sx = core[:, : ny - tau, tau:]
        self.ac_ab[tau] += (
            np.einsum("ijk,ijk->", c, sz)
            + np.einsum("ijk,ijk->", c, sy)
            + np.einsum("ijk,ijk->", c, sx)
        )
        self.ac_a[tau] += float(c.sum())
        self.ac_b[tau] += float(sz.sum()) + float(sy.sum()) + float(sx.sum())
        self.ac_n[tau] += c.size

    def add_deriv_local(
        self, local_o64: np.ndarray, local_d64: np.ndarray, pool: ScratchPool
    ) -> None:
        """Accumulate stencil comparisons from one ±1-haloed local block."""
        add_stencil_partials(self._deriv, local_o64, local_d64, pool)

    # -- finalisation ------------------------------------------------------

    @property
    def mean_e(self) -> float:
        return self.sum_e / self.n

    @property
    def var_e(self) -> float:
        mu = self.mean_e
        return max(self.sum_sq_e / self.n - mu * mu, 0.0)

    def finalize_autocorr(
        self, mu: float | None = None, var: float | None = None
    ) -> np.ndarray:
        """AC(0..max_lag) with the mean-centring correction applied once."""
        if mu is None:
            mu = self.mean_e
            var = self.var_e
        L = self.max_lag
        out = np.empty(L + 1)
        out[0] = 1.0
        if L == 0:
            return out
        if var == 0.0:
            out[1:] = 0.0
            return out
        for tau in range(1, L + 1):
            ne = int(self.ac_n[tau])
            if ne == 0:
                out[tau] = 0.0
                continue
            centered = (
                self.ac_ab[tau]
                - mu * self.ac_b[tau]
                - 3.0 * mu * self.ac_a[tau]
                + 3.0 * ne * mu * mu
            )
            out[tau] = centered / 3.0 / ne / var
        return out

    def finalize_derivatives(self) -> dict[int, DerivativeComparison]:
        return finalize_stencil_partials(self._deriv)

    def pattern1_result(
        self, err_pdf: Pdf | None = None, pwr_pdf: Pdf | None = None
    ) -> Pattern1Result:
        """The Category-I result of the registers as they stand."""
        return result_from_sums(
            self.n,
            self.min_e,
            self.max_e,
            self.sum_e,
            self.sum_abs_e,
            self.sum_sq_e,
            self.min_o,
            self.max_o,
            self.sum_o,
            self.sum_sq_o,
            self.min_r,
            self.max_r,
            self.sum_r,
            self.cnt_r,
            err_pdf,
            pwr_pdf,
        )

    # -- checkpoint/resume -------------------------------------------------

    _STATE_SCALARS = (
        "z", "n",
        "min_e", "max_e", "sum_e", "sum_abs_e", "sum_sq_e",
        "min_o", "max_o", "sum_o", "sum_sq_o", "sum_d",
        "min_r", "max_r", "sum_r", "cnt_r",
    )

    def state_dict(self, halo: bool = True) -> dict:
        """The exact accumulation state after some number of blocks.

        Everything the resumable audit needs to survive a kill: the 14+
        pattern-1 registers, the per-lag autocorrelation raw sums, the
        trailing error-slice carry, and the derivative partials.  All
        values are exact (floats and raw arrays, no rounding), so
        ``load_state`` followed by the remaining blocks is bit-identical
        to an uninterrupted run.  ``halo=False`` leaves out the carry, which
        a caller able to re-read those slices restores with :meth:`roll_carry`.
        """
        state: dict = {k: getattr(self, k) for k in self._STATE_SCALARS}
        state["arrays"] = {
            "ac_ab": self.ac_ab.copy(),
            "ac_a": self.ac_a.copy(),
            "ac_b": self.ac_b.copy(),
            "ac_n": self.ac_n.copy(),
        }
        if halo and self._carry is not None:
            state["arrays"]["carry"] = self._carry.copy()
        state["deriv"] = {
            str(w): dict(acc) for w, acc in self._deriv.items()
        }
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a same-geometry
        accumulator (same plane shape, max_lag, and deriv selection)."""
        for k in self._STATE_SCALARS:
            value = state[k]
            setattr(self, k, int(value) if k in ("z", "n") else float(value))
        arrays = state["arrays"]
        for name, target in (
            ("ac_ab", self.ac_ab), ("ac_a", self.ac_a), ("ac_b", self.ac_b),
        ):
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != target.shape:
                raise ShapeError(
                    f"accumulator state {name} has shape {src.shape}, "
                    f"expected {target.shape}"
                )
            np.copyto(target, src)
        ac_n = np.asarray(arrays["ac_n"], dtype=np.int64)
        if ac_n.shape != self.ac_n.shape:
            raise ShapeError("accumulator state ac_n shape mismatch")
        np.copyto(self.ac_n, ac_n)
        if self._carry is not None and "carry" not in arrays:
            self._carry.fill(0.0)  # halo-less: roll_carry replays the slices
        elif self._carry is not None:
            carry = np.asarray(arrays["carry"], dtype=np.float64)
            if carry.shape != self._carry.shape:
                raise ShapeError(
                    f"accumulator carry has shape {carry.shape}, "
                    f"expected {self._carry.shape}"
                )
            np.copyto(self._carry, carry)
        deriv = state.get("deriv", {})
        if set(deriv) != {str(w) for w in self.deriv_whichs}:
            raise ShapeError(
                f"accumulator state tracks derivatives {sorted(deriv)}, "
                f"expected {sorted(str(w) for w in self.deriv_whichs)}"
            )
        for w in self.deriv_whichs:
            src = deriv[str(w)]
            dst = self._deriv[w]
            for key in dst:
                dst[key] = int(src[key]) if key == "count" else float(src[key])

    def merge_state(self, state: dict) -> None:
        """Fold in the :meth:`state_dict` of an accumulator that started at
        this one's cursor — the associative grid-level reduce: sums and
        ``ac_*`` add, extrema take min/max, the cursor moves to the merged
        end.  The carry is not touched (a merged fold is only finalised)
        and derivative partials are not merged (the tiled executor, their
        only producer, runs one accumulator)."""
        n = int(state["n"])
        start = int(state["z"]) - n // (self.ny * self.nx)
        if start != self.z:
            raise CheckerError(
                f"cannot merge a state starting at slice {start} into an "
                f"accumulator at slice {self.z}"
            )
        for k in self._STATE_SCALARS:
            if k in ("z", "n"):
                continue
            mine, theirs = getattr(self, k), float(state[k])
            if k.startswith("min_"):
                setattr(self, k, min(mine, theirs))
            elif k.startswith("max_"):
                setattr(self, k, max(mine, theirs))
            else:
                setattr(self, k, mine + theirs)
        self.n += n
        self.z = int(state["z"])
        for name in ("ac_ab", "ac_a", "ac_b", "ac_n"):
            target = getattr(self, name)
            src = np.asarray(state["arrays"][name], dtype=target.dtype)
            if src.shape != target.shape:
                raise ShapeError(f"accumulator state {name} shape mismatch")
            target += src


def _pdf_from_counts(counts: np.ndarray, edges: np.ndarray) -> Pdf:
    # same expression np.histogram(density=True) evaluates, so the tiled
    # PDF is bit-identical to the whole-array one (counts merge exactly)
    density = counts / np.diff(edges) / counts.sum()
    return Pdf(bin_edges=edges, density=density)


class TiledAssessment:
    """One (orig, dec) pair streamed through z-slabs, all metrics fused.

    Sweeps are lazy and run at most once:

    * ``sweep1`` — per slab: convert to float64 in pooled scratch
      buffers, form the error in place, and feed every pattern-1
      reduction, pattern-2 stencil partial, and autocorrelation raw sum
      while the slab is cache-hot;
    * ``sweep2`` — per slab: rebuild the error and histogram it against
      the now-known global extrema (PDFs), plus the centred Pearson
      co-moments and the entropy histogram when auxiliary metrics ask.

    ``bytes_touched`` totals the host traffic of both sweeps (source
    reads + scratch-buffer writes) for the telemetry spans.
    """

    def __init__(
        self,
        orig: np.ndarray,
        dec: np.ndarray,
        config,
        slab_nz: int,
        want_pdfs: bool = True,
        want_pattern2: bool = True,
        aux_names: tuple[str, ...] = (),
        scratch: ScratchPool | None = None,
    ):
        orig = np.asarray(orig)
        dec = np.asarray(dec)
        if orig.shape != dec.shape:
            raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
        if orig.ndim != 3 or min(orig.shape) < 1:
            raise ShapeError(f"tiled execution expects 3-D fields, got {orig.shape}")
        slab_nz = int(slab_nz)
        if slab_nz < 1:
            raise ConfigError(f"slab depth must be >= 1, got {slab_nz}")
        self.orig = orig
        self.dec = dec
        self.config = config
        self.shape = orig.shape
        self.slab = min(slab_nz, orig.shape[0])
        self.want_pdfs = want_pdfs
        self.want_pattern2 = want_pattern2
        self.aux_names = tuple(aux_names)
        self.scratch = scratch if scratch is not None else ScratchPool()
        self.bytes_touched = 0

        max_lag = 0
        whichs: tuple[int, ...] = ()
        if want_pattern2:
            p2 = config.pattern2
            p2.validate(orig.shape)
            max_lag = p2.max_lag
            if 1 in p2.orders:
                whichs += (0, 2)
            if 2 in p2.orders:
                whichs += (1, 3)
        self.acc = TileAccumulator(
            orig.shape[1:],
            max_lag=max_lag,
            pwr_floor=config.pattern1.pwr_floor,
            deriv_whichs=whichs,
        )
        self._swept = False
        self._sweep2_done = False
        self._err_pdf: Pdf | None = None
        self._pwr_pdf: Pdf | None = None
        self._ent_counts: np.ndarray | None = None
        self._co_oo = self._co_dd = self._co_od = 0.0
        self._pearson: float | None = None

    # -- slab plumbing -----------------------------------------------------

    def _buffers(self, rows: int):
        ny, nx = self.shape[1:]
        # +2 leaves room for the stencil halo; sweep 2 simply uses fewer rows
        ob = self.scratch.get("tile.o64", (self.slab + 2, ny, nx))
        db = self.scratch.get("tile.d64", (self.slab + 2, ny, nx))
        eb = self.scratch.get("tile.err", (self.slab, ny, nx))
        return ob[:rows], db[:rows], eb

    def _count_slab(self, rows: int, err_rows: int) -> None:
        plane = self.shape[1] * self.shape[2]
        src = self.orig.dtype.itemsize + self.dec.dtype.itemsize
        self.bytes_touched += rows * plane * (src + 16) + err_rows * plane * 8

    # -- sweep 1: fused reductions + stencils + autocorrelation ------------

    def sweep1(self) -> None:
        if self._swept:
            return
        nz = self.shape[0]
        sl = self.slab
        halo = bool(self.acc.deriv_whichs)
        for z0 in range(0, nz, sl):
            z1 = min(z0 + sl, nz)
            a0 = max(z0 - 1, 0) if halo else z0
            a1 = min(z1 + 1, nz) if halo else z1
            ob, db, eb_full = self._buffers(a1 - a0)
            np.copyto(ob, self.orig[a0:a1])
            np.copyto(db, self.dec[a0:a1])
            i0, i1 = z0 - a0, z1 - a0
            eb = eb_full[: z1 - z0]
            np.subtract(db[i0:i1], ob[i0:i1], out=eb)
            self.acc.add_block(ob[i0:i1], db[i0:i1], eb)
            if halo:
                lo, hi = max(z0, 1), min(z1, nz - 1)
                if lo < hi:
                    self.acc.add_deriv_local(
                        ob[lo - 1 - a0 : hi + 1 - a0],
                        db[lo - 1 - a0 : hi + 1 - a0],
                        self.scratch,
                    )
            self._count_slab(a1 - a0, z1 - z0)
        self._swept = True

    # -- sweep 2: histograms against global extrema + centred co-moments ---

    def sweep2(self) -> None:
        if self._sweep2_done:
            return
        self.sweep1()
        a = self.acc
        need_pearson = "pearson" in self.aux_names
        need_entropy = "entropy" in self.aux_names
        if not (self.want_pdfs or need_pearson or need_entropy):
            self._sweep2_done = True
            return

        bins = self.config.pattern1.pdf_bins
        err_counts = pwr_counts = ent_counts = None
        err_edges = pwr_edges = ent_edges = None
        if self.want_pdfs:
            if a.min_e != a.max_e:
                err_edges = np.histogram_bin_edges(
                    np.empty(0), bins=bins, range=(a.min_e, a.max_e)
                )
                err_counts = np.zeros(bins, dtype=np.int64)
            if a.cnt_r > 0 and a.min_r != a.max_r:
                pwr_edges = np.histogram_bin_edges(
                    np.empty(0), bins=bins, range=(a.min_r, a.max_r)
                )
                pwr_counts = np.zeros(bins, dtype=np.int64)
        if need_entropy and a.min_o != a.max_o:
            ent_edges = np.histogram_bin_edges(
                np.empty(0), bins=DEFAULT_ENTROPY_BINS, range=(a.min_o, a.max_o)
            )
            ent_counts = np.zeros(DEFAULT_ENTROPY_BINS, dtype=np.int64)
        mean_o = a.sum_o / a.n
        mean_d = a.sum_d / a.n

        nz = self.shape[0]
        sl = self.slab
        for z0 in range(0, nz, sl):
            z1 = min(z0 + sl, nz)
            rows = z1 - z0
            ob, db, eb_full = self._buffers(rows)
            eb = eb_full[:rows]
            np.copyto(ob, self.orig[z0:z1])
            np.copyto(db, self.dec[z0:z1])
            np.subtract(db, ob, out=eb)
            ef = eb.reshape(-1)
            of = ob.reshape(-1)
            if err_counts is not None:
                err_counts += np.histogram(
                    ef, bins=bins, range=(a.min_e, a.max_e)
                )[0]
            if pwr_counts is not None:
                mask = np.abs(of) > a.pwr_floor
                if mask.any():
                    pwr_counts += np.histogram(
                        ef[mask] / of[mask], bins=bins, range=(a.min_r, a.max_r)
                    )[0]
            if ent_counts is not None:
                ent_counts += np.histogram(
                    of, bins=DEFAULT_ENTROPY_BINS, range=(a.min_o, a.max_o)
                )[0]
            if need_pearson:
                # the error is no longer needed this slab: reuse its
                # buffer for the centred original, centre dec in place
                np.subtract(ob, mean_o, out=eb)
                db -= mean_d
                co = eb.reshape(-1)
                cd = db.reshape(-1)
                self._co_oo += float(np.dot(co, co))
                self._co_dd += float(np.dot(cd, cd))
                self._co_od += float(np.dot(co, cd))
            self._count_slab(rows, rows)

        if self.want_pdfs:
            if err_counts is not None:
                self._err_pdf = _pdf_from_counts(err_counts, err_edges)
            else:
                self._err_pdf = histogram_pdf(np.zeros(1), a.min_e, a.max_e, bins)
            if pwr_counts is not None:
                self._pwr_pdf = _pdf_from_counts(pwr_counts, pwr_edges)
            elif a.cnt_r > 0:
                self._pwr_pdf = histogram_pdf(np.zeros(1), a.min_r, a.max_r, bins)
            else:
                self._pwr_pdf = histogram_pdf(np.zeros(0), 0.0, 0.0, bins)
        self._ent_counts = ent_counts
        self._ent_degenerate = need_entropy and ent_counts is None
        self._sweep2_done = True

    # -- results -----------------------------------------------------------

    def pattern1_result(self) -> Pattern1Result:
        if not self.want_pdfs:
            raise CheckerError("tiled run was not configured for pattern 1")
        self.sweep2()
        return self.acc.pattern1_result(self._err_pdf, self._pwr_pdf)

    def pattern2_result(
        self, err_mean: float | None = None, err_var: float | None = None
    ) -> Pattern2Result:
        if not self.want_pattern2:
            raise CheckerError("tiled run was not configured for pattern 2")
        self.sweep1()
        a = self.acc
        mu = a.mean_e if err_mean is None else err_mean
        var = a.var_e if err_var is None else err_var
        cmp = a.finalize_derivatives()
        return Pattern2Result(
            der1=cmp.get(0),
            der2=cmp.get(1),
            divergence=cmp.get(2),
            laplacian=cmp.get(3),
            autocorrelation=a.finalize_autocorr(mu, var),
        )

    def pearson(self) -> float:
        if "pearson" not in self.aux_names:
            raise CheckerError("tiled run was not configured for pearson")
        if self._pearson is None:
            self.sweep2()
            if self._co_oo == 0.0 or self._co_dd == 0.0:
                # constant field(s): correlation is defined only for the
                # lossless case — same convention as the workspace path
                self._pearson = (
                    1.0 if np.array_equal(self.orig, self.dec) else float("nan")
                )
            else:
                self._pearson = self._co_od / math.sqrt(self._co_oo * self._co_dd)
        return self._pearson

    def entropy(self) -> float:
        if "entropy" not in self.aux_names:
            raise CheckerError("tiled run was not configured for entropy")
        self.sweep2()
        if self._ent_counts is None:
            return 0.0  # constant field
        p = self._ent_counts[self._ent_counts > 0] / self.acc.n
        return float(-np.sum(p * np.log2(p)))

    def aux_values(self, names: tuple[str, ...]) -> dict[str, float]:
        """Auxiliary scalars derivable from the tiled sweeps (no spectral:
        the FFT is inherently whole-array and falls back in the backend)."""
        self.sweep1()
        a = self.acc
        out: dict[str, float] = {}
        if "pearson" in names:
            out["pearson"] = self.pearson()
        if "entropy" in names:
            out["entropy"] = self.entropy()
        if "mean" in names:
            out["mean"] = a.sum_o / a.n
        if "std" in names:
            mean_o = a.sum_o / a.n
            out["std"] = math.sqrt(max(a.sum_sq_o / a.n - mean_o * mean_o, 0.0))
        return out
