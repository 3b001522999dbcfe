"""Streaming (chunked) assessment with bounded memory.

The paper's introduction motivates GPU-side assessment with instrument
pipelines whose acquisition rates (e.g. 250 GB/s on LCLS-II) forbid
staging full datasets.  :class:`StreamingChecker` assesses an
original/decompressed stream fed as consecutive z-chunks, holding only a
small carry buffer of trailing slices:

* **pattern-1 metrics** — exact: the fused reductions are associative,
  so chunk accumulators merge like the multi-GPU merge;
* **SSIM** — exact, via the slice stage and slice-FIFO of the pattern-3
  kernel (one window-sum implementation for both), a chunk at a time;
  streaming requires a fixed ``dynamic_range`` in the
  :class:`~repro.kernels.pattern3.Pattern3Config` (the global range is
  unknowable mid-stream);
* **autocorrelation** — exact: raw lagged cross-products accumulate
  per-chunk (a pair at lag τ becomes valid exactly when its τ-later
  slice arrives) and the mean-centring correction is applied once at
  :meth:`finalize`.

The pattern-1 and autocorrelation accumulation is shared with the tiled
executor: both feed consecutive z-blocks into one
:class:`~repro.engine.tiling.TileAccumulator`, so the chunk-merge maths
lives in exactly one place.  Equality with the batch kernels is asserted
in tests for arbitrary chunkings.
"""

from __future__ import annotations

import numpy as np

from repro.core.workspace import ScratchPool, default_scratch_pool
from repro.engine.tiling import TileAccumulator
from repro.errors import CheckerError, ShapeError
from repro.gpusim.memory import SmemFifo
from repro.kernels.pattern1 import Pattern1Result
from repro.kernels.pattern3 import (
    N_WINDOW_ACCUMS,
    Pattern3Config,
    _slab_window_sums,
    _window_sum_buffers,
)
from repro.metrics.ssim import ssim_from_sums, window_positions
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["StreamingChecker", "StreamingResult"]


class StreamingResult:
    """Finalised streaming assessment (subset of a full report)."""

    def __init__(self, pattern1: Pattern1Result, ssim: float | None,
                 autocorrelation: np.ndarray | None):
        self.pattern1 = pattern1
        self.ssim = ssim
        self.autocorrelation = autocorrelation

    def scalars(self) -> dict[str, float]:
        out = self.pattern1.as_dict()
        if self.ssim is not None:
            out["ssim"] = self.ssim
        return out


class StreamingChecker:
    """Incremental assessment of z-chunked original/decompressed streams.

    Parameters
    ----------
    plane_shape:
        (ny, nx) of every incoming slice.
    max_lag:
        Autocorrelation lags to track (0 disables).
    ssim:
        Pattern-3 configuration; must carry an explicit
        ``dynamic_range``.  ``None`` disables streaming SSIM.
    pwr_floor:
        Pointwise-relative-error exclusion threshold (pattern 1).
    z0:
        Global z of the first slice :meth:`update` will see.  A checker
        that starts mid-field (one slab of a parallel run) takes the
        :attr:`halo` slices before ``z0`` through :meth:`prime`, and its
        state is folded into the whole by :meth:`merge_state`.
    """

    def __init__(
        self,
        plane_shape: tuple[int, int],
        max_lag: int = 10,
        ssim: Pattern3Config | None = None,
        pwr_floor: float = 0.0,
        tracer: Tracer | None = None,
        z0: int = 0,
    ):
        if ssim is not None and ssim.dynamic_range is None:
            raise CheckerError(
                "streaming SSIM needs an explicit dynamic_range (the global "
                "value range is unknown mid-stream)"
            )
        # pattern-1 + autocorrelation accumulation (including the rolling
        # carry of the last max_lag error slices) is the tiled executor's
        # accumulator, fed caller-sized chunks instead of slabs; it also
        # validates plane_shape and max_lag
        self._acc = TileAccumulator(
            plane_shape, max_lag=max_lag, pwr_floor=pwr_floor, z0=z0
        )
        self.ny, self.nx = plane_shape
        self.max_lag = max_lag
        self.ssim_config = ssim
        self.pwr_floor = pwr_floor
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._chunk_index = 0

        # -- streaming SSIM -------------------------------------------------
        self._z = z0
        if ssim is not None:
            ssim.validate((max(ssim.window, 1), self.ny, self.nx))
            py = window_positions(self.ny, ssim.window, ssim.step)
            px = window_positions(self.nx, ssim.window, ssim.step)
            if py == 0 or px == 0:
                raise ShapeError("plane too small for the SSIM window")
            self._fifo = SmemFifo(
                depth=ssim.window, slot_shape=(N_WINDOW_ACCUMS, py, px)
            )
            self._ssim_total = 0.0
            self._ssim_count = 0
        self._finalized = False

    @classmethod
    def from_config(
        cls,
        plane_shape: tuple[int, int],
        config=None,
        tracer: Tracer | None = None,
    ) -> "StreamingChecker":
        """Build a streaming checker from a :class:`CheckerConfig`.

        The metric selection is routed through the execution planner
        (validating the configuration once): autocorrelation streams only
        when the plan schedules pattern 2, SSIM only when it schedules
        pattern 3.
        """
        from repro.engine.plan import build_plan

        plan = build_plan(config)
        config = plan.config
        patterns = plan.patterns
        return cls(
            plane_shape,
            max_lag=config.pattern2.max_lag if 2 in patterns else 0,
            ssim=config.pattern3 if 3 in patterns else None,
            pwr_floor=config.pattern1.pwr_floor,
            tracer=tracer,
        )

    # -- feeding -------------------------------------------------------------

    def update(self, orig_chunk: np.ndarray, dec_chunk: np.ndarray) -> None:
        """Feed the next z-chunk (shape ``(cz, ny, nx)``, any cz >= 1)."""
        if self._finalized:
            raise CheckerError("stream already finalised")
        orig_chunk, dec_chunk = self._check_chunks(orig_chunk, dec_chunk)
        with self.tracer.span(
            f"chunk{self._chunk_index}", category="step",
            bytes=orig_chunk.nbytes + dec_chunk.nbytes,
            z0=self._z, cz=orig_chunk.shape[0],
        ):
            o64 = orig_chunk.astype(np.float64)
            d64 = dec_chunk.astype(np.float64)
            self._acc.add_block(o64, d64, d64 - o64)
            if self.ssim_config is not None:
                self._ingest_ssim(self._z, o64, d64, accumulate=True)
            self._z = self._acc.z
        self._chunk_index += 1

    def prime(self, z0: int, orig_chunk: np.ndarray, dec_chunk: np.ndarray) -> None:
        """Replay an already-accumulated chunk (first slice ``z0``) into
        the halo only: the SSIM ring and the error-slice carry advance
        exactly as :meth:`update` advances them, no accumulator moves.

        After ``load_state`` of a ``state_dict(halo=False)`` snapshot,
        priming the chunks that cover the last :attr:`halo` slices (in z
        order, ending at the snapshot's cursor) restores the stream.
        """
        orig_chunk, dec_chunk = self._check_chunks(orig_chunk, dec_chunk)
        if z0 < 0 or z0 + orig_chunk.shape[0] > self._z:
            raise CheckerError(f"prime replays slices below cursor {self._z}, got {z0=}")
        o64 = orig_chunk.astype(np.float64)
        d64 = dec_chunk.astype(np.float64)
        if self.max_lag:
            self._acc.roll_carry(d64 - o64)
        if self.ssim_config is not None:
            self._ingest_ssim(z0, o64, d64, accumulate=False)

    @property
    def halo(self) -> int:
        """How many trailing slices the ring and the carry depend on."""
        w = self.ssim_config.window if self.ssim_config is not None else 1
        return max(w - 1, self.max_lag)

    def _check_chunks(self, orig_chunk, dec_chunk):
        orig_chunk = np.asarray(orig_chunk)
        dec_chunk = np.asarray(dec_chunk)
        if orig_chunk.shape != dec_chunk.shape:
            raise ShapeError(
                f"chunk shapes differ: {orig_chunk.shape} vs {dec_chunk.shape}"
            )
        if orig_chunk.ndim != 3 or orig_chunk.shape[1:] != (self.ny, self.nx):
            raise ShapeError(
                f"chunks must be (cz, {self.ny}, {self.nx}), got "
                f"{orig_chunk.shape}"
            )
        return orig_chunk, dec_chunk

    @property
    def _carry(self) -> np.ndarray:
        """The rolling error-slice carry (one entry per tracked lag)."""
        carry = self._acc._carry
        if carry is None:
            return np.zeros((0, self.ny, self.nx))
        return carry

    def _ingest_ssim(self, z0: int, o64: np.ndarray, d64: np.ndarray, accumulate: bool) -> None:
        """Alg. 3 over one chunk: the sweep's slice stage per slab, then
        each slice's ``(5, py, px)`` sums into the ring and — when it
        completes an on-step window and ``accumulate`` — the ring
        reduction.

        The per-slice sums do not depend on the slab or chunk depth (see
        :func:`~repro.kernels.pattern3._slab_window_sums`), so any
        chunking and any checkpoint/resume point give identical bits.
        """
        w, step = self.ssim_config.window, self.ssim_config.step
        # as few slabs as the slab depth allows, all equally deep: a
        # 4-slice chunk at slab depth 3 runs 2+2, not 3+1, out of a
        # third less arena
        cz = o64.shape[0]
        depth = -(-cz // -(-cz // ScratchPool.slab_depth(o64.shape)))
        bufs = default_scratch_pool().carve(
            *[(N_WINDOW_ACCUMS, depth, self.ny, self.nx)] * _window_sum_buffers(w)
        )
        for j0 in range(0, cz, depth):
            sl = slice(j0, j0 + depth)
            sums = _slab_window_sums(bufs, o64[sl], d64[sl], w, step)
            for j in range(sums.shape[1]):
                k = z0 + j0 + j
                self._fifo.push(k, sums[:, j])
                if accumulate and k >= w - 1 and (k - w + 1) % step == 0:
                    self._reduce_ssim_window()

    def _reduce_ssim_window(self) -> None:
        cfg = self.ssim_config
        L = float(cfg.dynamic_range)
        c1 = (cfg.k1 * L) ** 2
        c2 = (cfg.k2 * L) ** 2
        volume = float(cfg.window**3)
        local = ssim_from_sums(*self._fifo.reduce(), volume, c1, c2)
        self._ssim_total += float(local.sum())
        self._ssim_count += local.size

    # -- checkpoint/resume -----------------------------------------------------

    def state_dict(self, halo: bool = True) -> dict:
        """Exact mid-stream state (accumulator, SSIM FIFO, cursors).

        Restoring this snapshot onto a same-configuration checker and
        feeding the remaining chunks is bit-identical to feeding the
        whole stream uninterrupted — the resumable audit's contract,
        property-tested in ``tests/property/test_property_audit.py``.
        ``halo=False`` omits the SSIM ring and the error-slice carry (all
        but a few hundred bytes): both are a function of the last
        :attr:`halo` input slices, which a stream with a durable source
        re-reads into :meth:`prime` instead.
        """
        state = {
            "acc": self._acc.state_dict(halo=halo),
            "z": self._z,
            "chunk_index": self._chunk_index,
            "finalized": self._finalized,
        }
        if self.ssim_config is not None:
            state["ssim"] = {"total": self._ssim_total, "count": self._ssim_count}
            if halo:
                state["ssim"]["fifo"] = self._fifo.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same configuration)."""
        if bool(state.get("finalized")):
            raise CheckerError("cannot restore a finalised stream state")
        has_ssim = "ssim" in state and state["ssim"] is not None
        if has_ssim != (self.ssim_config is not None):
            raise CheckerError(
                "stream state and checker disagree on SSIM configuration"
            )
        self._acc.load_state(state["acc"])
        self._z = int(state["z"])
        self._chunk_index = int(state["chunk_index"])
        if has_ssim:
            self._ssim_total = float(state["ssim"]["total"])
            self._ssim_count = int(state["ssim"]["count"])
            if "fifo" in state["ssim"]:
                self._fifo.load_state(state["ssim"]["fifo"])
            else:  # halo-less: empty until prime() refills it
                self._fifo = SmemFifo(self._fifo.depth, self._fifo.slot_shape)

    def merge_state(self, state: dict) -> None:
        """Fold in the ``state_dict`` of a checker that started at this
        one's cursor (see ``z0``): the accumulator merges associatively,
        SSIM total and window count add.  Ring and carry stay as they are,
        so a merged checker is for :meth:`finalize`, not for more chunks.
        """
        self._acc.merge_state(state["acc"])
        self._z = self._acc.z
        if self.ssim_config is not None:
            self._ssim_total += float(state["ssim"]["total"])
            self._ssim_count += int(state["ssim"]["count"])

    # -- finishing -------------------------------------------------------------

    def finalize(self) -> StreamingResult:
        """Close the stream and compute the final metric values."""
        if self._acc.n == 0:
            raise CheckerError("no data was streamed")
        with self.tracer.span(
            "finalize", category="step", slices=self._z, elements=self._acc.n
        ):
            result = self._finalize_result()
        self._finalized = True  # only now: a failed finalize can be fed more
        return result

    def _finalize_result(self) -> StreamingResult:
        pattern1 = self._acc.pattern1_result()
        pattern1.extras["streamed"] = True

        ac = self._acc.finalize_autocorr() if self.max_lag >= 1 else None

        ssim = None
        if self.ssim_config is not None:
            if self._ssim_count == 0:
                raise CheckerError(
                    "stream ended before one full SSIM window arrived"
                )
            ssim = self._ssim_total / self._ssim_count
        return StreamingResult(pattern1=pattern1, ssim=ssim,
                               autocorrelation=ac)
