"""SZ-2.1-style adaptive-prediction compressor.

The paper's introduction contrasts cuSZ (which implements the SZ-1.4
design) with SZ 2.1, whose "more advanced data prediction algorithm"
gives "far better compression quality especially for high compression
cases".  That algorithm (Liang et al., IEEE Big Data 2018) picks, per
small block, between the Lorenzo predictor and a fitted **linear
regression plane** — planes win wherever the field is locally smooth and
the error bound is loose, exactly the high-ratio regime.

This implementation keeps the adaptive core and simplifies the coupling:

* data is pre-quantised to the integer lattice (the same
  error-bound-first design as :class:`~repro.compressors.sz.SZCompressor`);
* 6×6×6 blocks are coded **independently** — per block either a
  block-local Lorenzo (triple difference with a zero boundary) or a
  least-squares plane whose 4 coefficients are stored in float32; the
  cheaper residual stream wins (the real SZ 2.1 predicts across block
  borders, which costs sequential decoding; independence keeps both
  directions fully vectorised and leaves the regression-vs-Lorenzo
  adaptivity — the innovation under test — intact);
* all residual codes are Huffman-coded together, with a one-bit-per-block
  predictor-selection map.

The pointwise error bound is identical to SZ's and property-tested; the
high-compression-regime advantage over the pure-Lorenzo pipeline is
asserted in tests and measured in ``benchmarks/bench_intro_claims.py``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor
from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.compressors.quantizer import dequantize, prequantize, resolve_error_bound
from repro.errors import CompressionError

__all__ = ["SZ2Compressor"]

_BLOCK = 6
_N = _BLOCK**3

#: fixed least-squares design: value ~ b0 + b1·z + b2·y + b3·x
_COORDS = np.stack(
    np.meshgrid(np.arange(_BLOCK), np.arange(_BLOCK), np.arange(_BLOCK),
                indexing="ij"),
    axis=-1,
).reshape(_N, 3)
_DESIGN = np.hstack([np.ones((_N, 1)), _COORDS]).astype(np.float64)
_PINV = np.linalg.pinv(_DESIGN)  # (4, 216)

#: per-regression-block side cost in estimated bits: four quantised,
#: delta-coded coefficients (SZ 2.1 compresses its regression
#: coefficients the same way)
_REGRESSION_PENALTY = 40.0
#: coefficient quantisation grids (lattice units): intercept to 1/16,
#: slopes to 1/128 — worst-case added prediction error
#: 1/32 + 3·5/256 ≈ 0.09 lattice units, far below the rounding margin
_COEFF_SCALE = np.array([16.0, 128.0, 128.0, 128.0])


def _diff3(blocks: np.ndarray) -> np.ndarray:
    """Block-local Lorenzo residuals (triple difference, zero boundary)."""
    r = blocks.astype(np.int64)
    for axis in (1, 2, 3):
        lead = [slice(None)] * 4
        lag = [slice(None)] * 4
        lead[axis] = slice(1, None)
        lag[axis] = slice(None, -1)
        out = r.copy()
        out[tuple(lead)] = r[tuple(lead)] - r[tuple(lag)]
        r = out
    return r


def _cumsum3(blocks: np.ndarray) -> np.ndarray:
    q = blocks  # cumsum allocates its int64 output: no defensive copy
    for axis in (1, 2, 3):
        q = np.cumsum(q, axis=axis, dtype=np.int64)
    return q


def _fit_planes(
    q_blocks: np.ndarray, scaled_blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(quantised integer coefficients, integer residuals) of the plane
    predictor.

    The plane is fitted on the *unrounded* scaled data so the fit does
    not inherit the pre-quantisation rounding noise; coefficients are
    quantised to the :data:`_COEFF_SCALE` grids (what the decoder
    receives), and residuals are taken against that quantised plane so
    the lattice round-trip stays exact.
    """
    flat = scaled_blocks.reshape(-1, _N).astype(np.float64)
    coeffs = flat @ _PINV.T  # (nb, 4)
    coeff_q = np.rint(coeffs * _COEFF_SCALE).astype(np.int64)
    pred = (coeff_q / _COEFF_SCALE) @ _DESIGN.T
    residuals = q_blocks.reshape(-1, _N) - np.rint(pred).astype(np.int64)
    return coeff_q, residuals


def _code_cost(residuals: np.ndarray) -> np.ndarray:
    """Per-block entropy-like bit estimate: Elias-gamma-ish
    ``sum log2(1 + 2|r|)`` tracks Huffman cost far better than sum |r|."""
    return np.log2(1.0 + 2.0 * np.abs(residuals)).sum(axis=1)


def _predict_planes(coeff_q: np.ndarray) -> np.ndarray:
    pred = (coeff_q.astype(np.float64) / _COEFF_SCALE) @ _DESIGN.T
    return np.rint(pred).astype(np.int64)


class SZ2Compressor(Compressor):
    """Error-bounded compressor with per-block Lorenzo/regression choice.

    Parameters mirror :class:`~repro.compressors.sz.SZCompressor`.
    """

    name = "sz2"

    def __init__(
        self,
        abs_bound: float | None = None,
        rel_bound: float | None = None,
    ):
        if (abs_bound is None) == (rel_bound is None):
            raise CompressionError("specify exactly one of abs_bound / rel_bound")
        self.abs_bound = abs_bound
        self.rel_bound = rel_bound

    def compress(self, data: np.ndarray) -> CompressedBuffer:
        data = np.asarray(data)
        if data.ndim != 3:
            raise CompressionError(f"SZ2 expects 3-D fields, got {data.ndim}-D")
        if data.size == 0:
            raise CompressionError("cannot compress an empty array")
        eb = resolve_error_bound(data, self.abs_bound, self.rel_bound)
        maxabs = float(np.abs(data).max())
        ulp = float(np.spacing(np.float32(maxabs))) if maxabs > 0 else 0.0
        eb_q = max(eb * (1.0 - 1e-9) - ulp, eb * 0.5)
        q = prequantize(data, eb_q)

        padded_shape = tuple(
            math.ceil(s / _BLOCK) * _BLOCK for s in data.shape
        )
        if padded_shape != q.shape:
            pads = [(0, p - s) for s, p in zip(q.shape, padded_shape)]
            q = np.pad(q, pads, mode="edge")
        nz, ny, nx = q.shape
        blocks = (
            q.reshape(nz // _BLOCK, _BLOCK, ny // _BLOCK, _BLOCK,
                      nx // _BLOCK, _BLOCK)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(-1, _BLOCK, _BLOCK, _BLOCK)
        )
        nb = blocks.shape[0]

        scaled = np.asarray(data, dtype=np.float64) / (2.0 * eb_q)
        if padded_shape != data.shape:
            pads = [(0, p - s) for s, p in zip(data.shape, padded_shape)]
            scaled = np.pad(scaled, pads, mode="edge")
        scaled_blocks = (
            scaled.reshape(nz // _BLOCK, _BLOCK, ny // _BLOCK, _BLOCK,
                           nx // _BLOCK, _BLOCK)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(-1, _BLOCK, _BLOCK, _BLOCK)
        )

        res_lor = _diff3(blocks).reshape(nb, _N)
        coeff_q, res_reg = _fit_planes(blocks, scaled_blocks)

        cost_lor = _code_cost(res_lor)
        cost_reg = _code_cost(res_reg) + _REGRESSION_PENALTY
        use_reg = cost_reg < cost_lor

        codes = np.where(use_reg[:, None], res_reg, res_lor)
        stream = huffman_encode(codes.ravel())
        flags = np.packbits(use_reg.astype(np.uint8), bitorder="little")
        # coefficients vary smoothly across neighbouring blocks: delta-code
        # each column then entropy-code (SZ 2.1's coefficient compression)
        reg_q = coeff_q[use_reg]
        deltas = np.diff(reg_q, axis=0, prepend=np.zeros((1, 4), np.int64))
        coeff_stream = huffman_encode(deltas.ravel())

        payload = (
            struct.pack("<QQ", nb, int(use_reg.sum()))
            + flags.tobytes()
            + struct.pack("<Q", len(coeff_stream))
            + coeff_stream
            + struct.pack("<Q", len(stream))
            + stream
        )
        return CompressedBuffer(
            codec=self.name,
            payload=payload,
            meta={
                "shape": list(data.shape),
                "dtype": str(data.dtype),
                "abs_bound": eb,
                "quant_bound": eb_q,
            },
        )

    def decompress(self, buf: CompressedBuffer) -> np.ndarray:
        self._check_codec(buf)
        shape = tuple(buf.meta["shape"])
        eb_q = float(buf.meta.get("quant_bound", buf.meta["abs_bound"]))
        blob = buf.payload

        nb, n_reg = struct.unpack("<QQ", blob[:16])
        off = 16
        flag_bytes = (nb + 7) // 8
        use_reg = np.unpackbits(
            np.frombuffer(blob[off : off + flag_bytes], dtype=np.uint8),
            count=nb,
            bitorder="little",
        ).astype(bool)
        off += flag_bytes
        if int(use_reg.sum()) != n_reg:
            raise CompressionError("predictor map disagrees with header")
        (coeff_len,) = struct.unpack("<Q", blob[off : off + 8])
        off += 8
        deltas = huffman_decode(blob[off : off + coeff_len])
        off += coeff_len
        if deltas.size != 4 * n_reg:
            raise CompressionError("coefficient stream size mismatch")
        coeff_q = np.cumsum(deltas.reshape(n_reg, 4), axis=0, dtype=np.int64)
        (stream_len,) = struct.unpack("<Q", blob[off : off + 8])
        off += 8
        codes = huffman_decode(blob[off : off + stream_len])
        if codes.size != nb * _N:
            raise CompressionError(
                f"decoded {codes.size} codes for {nb * _N} block elements"
            )
        codes = codes.reshape(nb, _N)

        q_blocks = np.empty((nb, _BLOCK, _BLOCK, _BLOCK), dtype=np.int64)
        if (~use_reg).any():
            q_blocks[~use_reg] = _cumsum3(
                codes[~use_reg].reshape(-1, _BLOCK, _BLOCK, _BLOCK)
            )
        if n_reg:
            pred = _predict_planes(coeff_q)
            q_blocks[use_reg] = (codes[use_reg] + pred).reshape(
                -1, _BLOCK, _BLOCK, _BLOCK
            )

        padded_shape = tuple(math.ceil(s / _BLOCK) * _BLOCK for s in shape)
        nz, ny, nx = padded_shape
        q = (
            q_blocks.reshape(nz // _BLOCK, ny // _BLOCK, nx // _BLOCK,
                             _BLOCK, _BLOCK, _BLOCK)
            .transpose(0, 3, 1, 4, 2, 5)
            .reshape(nz, ny, nx)
        )
        q = q[: shape[0], : shape[1], : shape[2]]
        out = dequantize(q, eb_q)
        return out.astype(buf.meta.get("dtype", "float32")).reshape(shape)
