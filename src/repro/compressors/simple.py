"""Baseline compressors for contrast experiments."""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor
from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.compressors.quantizer import (
    dequantize,
    prequantize,
    resolve_error_bound,
)
from repro.errors import CompressionError

__all__ = ["UniformQuantCompressor", "DecimateCompressor"]


class UniformQuantCompressor(Compressor):
    """Error-bounded uniform quantisation without prediction.

    The ablation partner of :class:`~repro.compressors.sz.SZCompressor`:
    same pre-quantisation and entropy stage, no Lorenzo predictor — the
    compression-ratio gap between the two isolates the predictor's value.
    """

    name = "uniform_quant"

    def __init__(self, abs_bound: float | None = None, rel_bound: float | None = None):
        if (abs_bound is None) == (rel_bound is None):
            raise CompressionError("specify exactly one of abs_bound / rel_bound")
        self.abs_bound = abs_bound
        self.rel_bound = rel_bound

    def compress(self, data: np.ndarray) -> CompressedBuffer:
        data = np.asarray(data)
        if data.size == 0:
            raise CompressionError("cannot compress an empty array")
        eb = resolve_error_bound(data, self.abs_bound, self.rel_bound)
        # ulp-aware shrink mirroring SZCompressor: keep the user bound
        # valid after the float32 output cast
        maxabs = float(np.abs(data).max())
        ulp = float(np.spacing(np.float32(maxabs))) if maxabs > 0 else 0.0
        eb_q = max(eb * (1.0 - 1e-9) - ulp, eb * 0.5)
        q = prequantize(data, eb_q)
        # centre the alphabet so the Huffman header stays small
        base = int(q.min())
        stream = huffman_encode(q.ravel() - base)
        return CompressedBuffer(
            codec=self.name,
            payload=struct.pack("<q", base) + stream,
            meta={
                "shape": list(data.shape),
                "dtype": str(data.dtype),
                "abs_bound": eb,
                "quant_bound": eb_q,
            },
        )

    def decompress(self, buf: CompressedBuffer) -> np.ndarray:
        self._check_codec(buf)
        (base,) = struct.unpack("<q", buf.payload[:8])
        symbols = huffman_decode(buf.payload[8:])
        symbols += base  # fresh from the decoder: shift in place
        shape = tuple(buf.meta["shape"])
        eb_q = float(buf.meta.get("quant_bound", buf.meta["abs_bound"]))
        out = dequantize(symbols.reshape(shape), eb_q)
        return out.astype(buf.meta.get("dtype", "float32"))


class DecimateCompressor(Compressor):
    """Subsampling + trilinear reconstruction (a naive, unbounded baseline).

    Keeps every ``factor``-th sample along each axis and reconstructs by
    linear interpolation.  Provides no error bound — assessments of this
    codec are what make the error-bounded compressors' PDFs and
    autocorrelations interesting to compare against.
    """

    name = "decimate"

    def __init__(self, factor: int = 2):
        if factor < 2:
            raise CompressionError("decimation factor must be >= 2")
        self.factor = int(factor)

    def compress(self, data: np.ndarray) -> CompressedBuffer:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3:
            raise CompressionError("decimation expects 3-D fields")
        if min(data.shape) < self.factor + 1:
            raise CompressionError(
                f"field {data.shape} too small for factor {self.factor}"
            )
        sub = data[:: self.factor, :: self.factor, :: self.factor]
        return CompressedBuffer(
            codec=self.name,
            payload=sub.astype("<f4").tobytes(),
            meta={
                "shape": list(data.shape),
                "sub_shape": list(sub.shape),
                "factor": self.factor,
                "dtype": "float32",
            },
        )

    def decompress(self, buf: CompressedBuffer) -> np.ndarray:
        self._check_codec(buf)
        shape = tuple(buf.meta["shape"])
        sub_shape = tuple(buf.meta["sub_shape"])
        factor = int(buf.meta["factor"])
        sub = np.frombuffer(buf.payload, dtype="<f4").reshape(sub_shape)

        out = sub.astype(np.float64)
        for axis, n in enumerate(shape):
            coords = np.arange(n) / factor
            grid = np.arange(out.shape[axis])
            idx0 = np.clip(np.floor(coords).astype(int), 0, out.shape[axis] - 1)
            idx1 = np.clip(idx0 + 1, 0, out.shape[axis] - 1)
            frac = coords - idx0
            lo = np.take(out, idx0, axis=axis)
            hi = np.take(out, idx1, axis=axis)
            shape_b = [1] * out.ndim
            shape_b[axis] = n
            out = lo + (hi - lo) * frac.reshape(shape_b)
        return out.astype(np.float32)
