"""Shared metric workspace: the host-side analogue of kernel fusion.

The paper's central insight is that fusing all metrics of one pattern
into a single kernel lets one global read feed every reduction.  The
functional NumPy layer historically ignored that insight: every consumer
(pattern kernels, Pearson, spectral comparison, data properties)
independently recomputed ``dec - orig``, the squared error, the masked
pointwise ratios, and the value moments — a fresh full scan per metric
family.

:class:`MetricWorkspace` applies the same fusion principle to host
execution.  It wraps one original/decompressed pair and lazily
materialises every shared intermediate exactly once per assessment:

* derived arrays — the float64 views, ``err``, the pwr-error mask and
  the masked pointwise relative errors;
* moments — per-slice partial sums (mirroring the pattern-1 kernel's
  block partials; the element products ``|e|``, ``e²``, ``o²``, ``d²``,
  ``o·d`` they reduce exist only slab-wise in one cache-resident
  buffer) merged into the global sums/extrema all the scalar metrics
  derive from.

Consumers (``kernels/pattern1-3``, :mod:`repro.core.checker`,
:mod:`repro.core.compare`) accept an optional workspace and read the
cached arrays instead of rescanning the inputs.  The independent
references in :mod:`repro.metrics` are deliberately **not** routed
through the workspace — they remain the correctness oracle the fused
results are tested against.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.errors import ShapeError
from repro.metrics.error_stats import DEFAULT_PDF_BINS, ErrorStats, Pdf
from repro.metrics.properties import (
    DEFAULT_ENTROPY_BINS,
    DataProperties,
    entropy,
)
from repro.metrics.pwr_error import PwrErrorStats
from repro.metrics.rate_distortion import RateDistortion, finalize_rate_distortion

__all__ = [
    "MetricWorkspace",
    "ScratchPool",
    "clear_scratch_pools",
    "default_scratch_pool",
    "finalize_rate_distortion",
    "histogram_pdf",
    "scratch_pool_bytes",
]


#: byte budget of one float64 slab buffer of the per-pattern z-slab sweeps:
#: a handful of such buffers (source slab, ping-pong partner, outputs) stay
#: L2-resident, so every element-wise pass after the first read hits cache
#: instead of DRAM.  Fixed, not a knob — depth follows from the plane size.
SLAB_BYTES = 256 << 10


class ScratchPool:
    """Reusable buffers: steady-state assessment allocates nothing.

    Two kinds of storage, both raw ``np.empty`` memory the caller must
    fully overwrite before reading:

    * :meth:`get` — one live buffer per ``tag`` (the full-size workspace
      arrays).  A request whose shape or dtype differs *replaces* the
      tag's buffer, so a long-lived session holds the footprint of the
      shape it last saw, not of every shape it ever saw.
    * :meth:`carve` — float64 views cut back to back out of one flat
      arena that only ever grows to the largest request.  The three
      pattern sweeps share it: steps run sequentially, so one sweep's
      slab buffers are dead when the next carves its own.

    A pool must only serve one live consumer at a time (two workspaces
    sharing a pool would alias each other's arrays), which is why the
    engine wires in the *thread's* pool (:func:`default_scratch_pool`)
    instead of pooling by default or keeping module-level buffers.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._arena = np.empty(0)
        #: slab depth the latest sweep over this pool ran with — set by
        #: the sweeps themselves, so a trace reports what ran (the engine
        #: clears it before a step and reads it after)
        self.sweep_depth: int | None = None

    @staticmethod
    def slab_depth(shape: tuple[int, ...]) -> int:
        """z-slices per slab of the pattern sweeps over a field of
        ``shape``: as many float64 planes as fit :data:`SLAB_BYTES`
        (1-D/2-D fields are a single slice)."""
        if len(shape) != 3:
            return 1
        nz, ny, nx = shape
        return max(1, min(nz, SLAB_BYTES // (ny * nx * 8)))

    def get(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        shape = tuple(shape)
        buf = self._buffers.get(tag)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[tag] = np.empty(shape, dtype=dtype)
        return buf

    def carve(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """One float64 array per shape, all views of the shared arena.

        Every call hands out the arena from its start again: views from
        an earlier call are invalidated (aliased), not freed.
        """
        # 64-byte (8-element) alignment keeps every view cache-line aligned
        sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]
        if self._arena.size < sum(sizes):
            self._arena = np.empty(sum(sizes))
        out, start = [], 0
        for shape, size in zip(shapes, sizes):
            out.append(self._arena[start : start + math.prod(shape)].reshape(shape))
            start += size
        return out

    def arena_nbytes(self) -> int:
        return self._arena.nbytes

    def nbytes(self) -> int:
        return self._arena.nbytes + sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()
        self._arena = np.empty(0)


_pool_local = threading.local()
#: every thread-local default pool ever created in this process, so a
#: long-lived owner (a :class:`~repro.service.session.CheckerSession`)
#: can report pooled bytes across worker threads and release them on
#: close without having to run code on each thread
_ALL_POOLS: list[ScratchPool] = []
_POOLS_LOCK = threading.Lock()


def default_scratch_pool() -> ScratchPool:
    """The thread's shared pool (one live consumer per thread at a time)."""
    pool = getattr(_pool_local, "pool", None)
    if pool is None:
        pool = _pool_local.pool = ScratchPool()
        with _POOLS_LOCK:
            _ALL_POOLS.append(pool)
    return pool


def scratch_pool_bytes() -> int:
    """Total bytes currently held by every thread's default pool."""
    with _POOLS_LOCK:
        return sum(pool.nbytes() for pool in _ALL_POOLS)


def clear_scratch_pools() -> int:
    """Release every default pool's buffers; returns the bytes freed.

    Buffers are only dropped, never unmapped under a live consumer: a
    workspace that checked an array out keeps its own reference, so an
    in-flight assessment on another thread finishes on the old storage
    while the pool starts fresh.
    """
    with _POOLS_LOCK:
        freed = sum(pool.nbytes() for pool in _ALL_POOLS)
        for pool in _ALL_POOLS:
            pool.clear()
    return freed


def histogram_pdf(vals: np.ndarray, lo: float, hi: float, bins: int) -> Pdf:
    """Density histogram with the kernels' degenerate-range conventions."""
    if vals.size == 0:
        edges = np.array([-1e-12, 1e-12])
        return Pdf(bin_edges=edges, density=np.array([1.0 / (edges[1] - edges[0])]))
    if lo == hi:
        eps = max(abs(lo), 1.0) * 1e-9 + 1e-300
        edges = np.array([lo - eps, hi + eps])
        return Pdf(bin_edges=edges, density=np.array([1.0 / (edges[1] - edges[0])]))
    hist, edges = np.histogram(vals, bins=bins, range=(lo, hi), density=True)
    return Pdf(bin_edges=edges, density=hist)


class MetricWorkspace:
    """Memoised cache of every intermediate one assessment needs.

    Works for any dimensionality; the per-slice partial sums additionally
    mirror the pattern-1 kernel's slice-per-block decomposition for 3-D
    fields (1-D/2-D inputs reduce over a single "slice").
    """

    def __init__(
        self,
        orig: np.ndarray,
        dec: np.ndarray,
        pwr_floor: float = 0.0,
        scratch: ScratchPool | None = None,
    ):
        orig = np.asarray(orig)
        dec = np.asarray(dec)
        if orig.shape != dec.shape:
            raise ShapeError(
                f"original {orig.shape} and decompressed {dec.shape} differ"
            )
        if orig.size == 0:
            raise ShapeError("cannot assess empty arrays")
        self.orig = orig
        self.dec = dec
        self.shape = orig.shape
        self.n = orig.size
        self.pwr_floor = pwr_floor
        self._scratch = scratch
        self._cache: dict[str, object] = {}

    def _get(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _derived(self, key: str, fill) -> np.ndarray:
        """A full-size derived array: pooled storage when a scratch pool
        was wired in (``fill`` writes into the buffer via ``out=``),
        freshly allocated otherwise.  Values are identical either way —
        the pool only changes where the result lives."""

        def build():
            if self._scratch is None:
                out = np.empty(self.shape)
            else:
                out = self._scratch.get(f"ws.{key}", self.shape)
            fill(out)
            return out

        return self._get(key, build)

    @property
    def scratch(self) -> ScratchPool:
        """Where the slab sweeps carve their buffers: the pool wired in,
        else the calling thread's (never module state — threads assess
        different shapes concurrently)."""
        if self._scratch is not None:
            return self._scratch
        return default_scratch_pool()

    def cached_nbytes(self) -> int:
        """Bytes held by materialised full-size intermediates (telemetry)."""
        return sum(
            v.nbytes for v in self._cache.values() if isinstance(v, np.ndarray)
        )

    # -- derived arrays (each materialised at most once) -------------------

    @property
    def o64(self) -> np.ndarray:
        return self._derived("o64", lambda out: np.copyto(out, self.orig))

    @property
    def d64(self) -> np.ndarray:
        return self._derived("d64", lambda out: np.copyto(out, self.dec))

    @property
    def err(self) -> np.ndarray:
        return self._derived(
            "err", lambda out: np.subtract(self.d64, self.o64, out=out)
        )

    @property
    def pwr_mask(self) -> np.ndarray:
        return self._get("pwr_mask", lambda: np.abs(self.o64) > self.pwr_floor)

    @property
    def pwr_vals(self) -> np.ndarray:
        """Flat signed pointwise relative errors at unmasked elements."""

        def build():
            mask = self.pwr_mask
            if not mask.any():
                return np.zeros(0)
            return self.err[mask] / self.o64[mask]

        return self._get("pwr_vals", build)

    @property
    def pwr_excluded(self) -> int:
        return self.n - int(self.pwr_vals.size)

    # -- fused moments -----------------------------------------------------

    @property
    def slice_partials(self) -> dict[str, np.ndarray]:
        """Per-slice partial sums (the pattern-1 block partials).

        Each value is a ``(nz,)`` array of one accumulator's per-z-slice
        sums; 1-D/2-D inputs collapse to a single slice.
        """

        def build():
            nz = self.shape[0] if len(self.shape) == 3 else 1
            o = self.o64.reshape(nz, -1)
            d = self.d64.reshape(nz, -1)
            e = self.err.reshape(nz, -1)
            # the element products live only in one cache-resident slab
            # buffer; each row's sum is independent of the other rows, so
            # the values do not depend on the slab depth
            pool = self.scratch
            depth = pool.sweep_depth = pool.slab_depth(self.shape)
            (buf,) = pool.carve((depth, o.shape[1]))
            out = {
                key: np.empty(nz)
                for key in (
                    "sum_e", "sum_abs_e", "sum_sq_e", "sum_o",
                    "sum_sq_o", "sum_d", "sum_sq_d", "sum_od",
                )
            }
            for z0 in range(0, nz, depth):
                sl = slice(z0, min(z0 + depth, nz))
                b = buf[: sl.stop - z0]
                # each source slab is used up while it is hot (e three
                # times, then o, then d): taking the three plain sums
                # first re-reads every slab and measured 15 % slower
                e[sl].sum(axis=1, out=out["sum_e"][sl])
                np.abs(e[sl], out=b).sum(axis=1, out=out["sum_abs_e"][sl])
                np.multiply(e[sl], e[sl], out=b).sum(axis=1, out=out["sum_sq_e"][sl])
                o[sl].sum(axis=1, out=out["sum_o"][sl])
                np.multiply(o[sl], o[sl], out=b).sum(axis=1, out=out["sum_sq_o"][sl])
                d[sl].sum(axis=1, out=out["sum_d"][sl])
                np.multiply(d[sl], d[sl], out=b).sum(axis=1, out=out["sum_sq_d"][sl])
                np.multiply(o[sl], d[sl], out=b).sum(axis=1, out=out["sum_od"][sl])
            return out

        return self._get("slice_partials", build)

    @property
    def moments(self) -> dict[str, float]:
        """Global sums/extrema merged from the per-slice partials."""

        def build():
            p = self.slice_partials
            m = {k: float(v.sum()) for k, v in p.items()}
            m["min_e"] = float(self.err.min())
            m["max_e"] = float(self.err.max())
            m["min_o"] = float(self.o64.min())
            m["max_o"] = float(self.o64.max())
            r = self.pwr_vals
            m["cnt_r"] = float(r.size)
            m["min_r"] = float(r.min()) if r.size else 0.0
            m["max_r"] = float(r.max()) if r.size else 0.0
            m["sum_r"] = float(r.sum()) if r.size else 0.0
            return m

        return self._get("moments", build)

    @property
    def value_range(self) -> float:
        m = self.moments
        return m["max_o"] - m["min_o"]

    @property
    def mean_o(self) -> float:
        return self.moments["sum_o"] / self.n

    @property
    def var_o(self) -> float:
        m = self.moments
        return max(m["sum_sq_o"] / self.n - self.mean_o**2, 0.0)

    @property
    def mse(self) -> float:
        return self.moments["sum_sq_e"] / self.n

    # -- fused metric views ------------------------------------------------

    def error_stats(self) -> ErrorStats:
        m = self.moments
        return ErrorStats(
            min_err=m["min_e"],
            max_err=m["max_e"],
            avg_err=m["sum_e"] / self.n,
            avg_abs_err=m["sum_abs_e"] / self.n,
            max_abs_err=max(abs(m["min_e"]), abs(m["max_e"])),
        )

    def rate_distortion(self) -> RateDistortion:
        return finalize_rate_distortion(
            self.n, self.mse, self.value_range, self.var_o
        )

    def pwr_error_stats(self) -> PwrErrorStats:
        m = self.moments
        if m["cnt_r"] == 0:
            return PwrErrorStats(0.0, 0.0, 0.0, 0.0, self.n)
        return PwrErrorStats(
            min_pwr_err=m["min_r"],
            max_pwr_err=m["max_r"],
            avg_pwr_err=m["sum_r"] / m["cnt_r"],
            max_abs_pwr_err=max(abs(m["min_r"]), abs(m["max_r"])),
            excluded=self.pwr_excluded,
        )

    def pearson(self) -> float:
        """Pearson correlation from the cached arrays (one centred pass)."""

        def build():
            mean_d = self.moments["sum_d"] / self.n
            if self._scratch is None:
                co = self.o64 - self.mean_o
                cd = self.d64 - mean_d
                so = math.sqrt(float(np.mean(co * co)))
                sd = math.sqrt(float(np.mean(cd * cd)))
                if so == 0.0 or sd == 0.0:
                    if np.array_equal(self.o64, self.d64):
                        return 1.0
                    return float("nan")
                return float(np.mean(co * cd)) / (so * sd)
            # pooled path: centred fields in reused buffers, moments via
            # dot products — no temporaries beyond the two buffers
            co = self._scratch.get("ws.centered_o", self.shape)
            cd = self._scratch.get("ws.centered_d", self.shape)
            np.subtract(self.o64, self.mean_o, out=co)
            np.subtract(self.d64, mean_d, out=cd)
            cof = co.reshape(-1)
            cdf = cd.reshape(-1)
            so = math.sqrt(float(np.dot(cof, cof)) / self.n)
            sd = math.sqrt(float(np.dot(cdf, cdf)) / self.n)
            if so == 0.0 or sd == 0.0:
                if np.array_equal(self.o64, self.d64):
                    return 1.0
                return float("nan")
            return float(np.dot(cof, cdf)) / self.n / (so * sd)

        return self._get("pearson", build)

    def err_pdf(self, bins: int = DEFAULT_PDF_BINS) -> Pdf:
        m = self.moments
        return histogram_pdf(self.err.ravel(), m["min_e"], m["max_e"], bins)

    def pwr_err_pdf(self, bins: int = DEFAULT_PDF_BINS) -> Pdf:
        m = self.moments
        return histogram_pdf(self.pwr_vals, m["min_r"], m["max_r"], bins)

    def data_properties(
        self, entropy_bins: int = DEFAULT_ENTROPY_BINS
    ) -> DataProperties:
        """Property analysis of the original field from cached moments."""
        m = self.moments
        var = self.var_o
        return DataProperties(
            min_value=m["min_o"],
            max_value=m["max_o"],
            value_range=self.value_range,
            mean=self.mean_o,
            std=math.sqrt(var),
            variance=var,
            entropy=entropy(self.o64, entropy_bins),
            zeros=int(np.count_nonzero(self.o64 == 0.0)),
            n_elements=self.n,
        )
