"""SZ-style error-bounded lossy compressor (the cuSZ algorithm).

Pipeline (SZ 1.4 / cuSZ):

1. **Pre-quantisation** — ``q = round(f / (2·eb))`` bounds the pointwise
   reconstruction error by ``eb`` before anything else happens;
2. **Lorenzo prediction** on the integer lattice — residuals are the
   triple first difference, reconstruction a triple prefix sum (exactly
   the dual-pass formulation that makes cuSZ GPU-parallel);
3. **Quantisation-code clipping** — residuals within ``±radius`` become
   Huffman symbols; rare large residuals ("unpredictable" points) are
   stored exactly in an outlier list, marked by a sentinel symbol;
4. **Canonical Huffman coding** of the symbol stream.

The decompressor inverts each stage; the error bound
``|orig - dec| <= eb`` holds for every element and is property-tested.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor
from repro.compressors.huffman import huffman_decode, huffman_encode
from repro.compressors.predictor import lorenzo_reconstruct, lorenzo_residuals
from repro.compressors.quantizer import (
    dequantize,
    prequantize,
    resolve_error_bound,
)
from repro.errors import CompressionError

__all__ = ["SZCompressor"]

_DEFAULT_RADIUS = 1 << 15


class SZCompressor(Compressor):
    """Error-bounded prediction-based compressor (cuSZ / SZ-1.4 style).

    Parameters
    ----------
    abs_bound / rel_bound:
        The error bound: absolute, or relative to the field's value range
        (exactly one must be provided).
    radius:
        Quantisation-code radius; residuals beyond it are stored exactly
        as outliers.
    """

    name = "sz"

    def __init__(
        self,
        abs_bound: float | None = None,
        rel_bound: float | None = None,
        radius: int = _DEFAULT_RADIUS,
    ):
        if (abs_bound is None) == (rel_bound is None):
            raise CompressionError("specify exactly one of abs_bound / rel_bound")
        if radius < 2:
            raise CompressionError("radius must be >= 2")
        self.abs_bound = abs_bound
        self.rel_bound = rel_bound
        self.radius = int(radius)

    def compress(self, data: np.ndarray) -> CompressedBuffer:
        data = np.asarray(data)
        if data.ndim not in (1, 2, 3):
            raise CompressionError(f"SZ supports 1-3-D arrays, got {data.ndim}-D")
        if data.size == 0:
            raise CompressionError("cannot compress an empty array")
        eb = resolve_error_bound(data, self.abs_bound, self.rel_bound)
        # Quantise against a tighter bound so the user-visible bound still
        # holds after the final float32 cast of the output.  Two regimes:
        # normally we reserve one ulp (at the field's peak magnitude) of
        # headroom; if the bound is below that ulp, we halve it instead —
        # for float32 *inputs* the original value is itself on the float32
        # grid within eb_q of the float64 reconstruction, so
        # round-to-nearest lands within 2·eb_q <= eb of the original.
        maxabs = float(np.abs(data).max())
        ulp = float(np.spacing(np.float32(maxabs))) if maxabs > 0 else 0.0
        eb_q = max(eb * (1.0 - 1e-9) - ulp, eb * 0.5)

        q = prequantize(data, eb_q)
        residuals = lorenzo_residuals(q)

        flat = residuals.ravel()
        sentinel = -(self.radius + 1)
        outlier_mask = np.abs(flat) > self.radius
        symbols = np.where(outlier_mask, sentinel, flat)
        outlier_idx = np.flatnonzero(outlier_mask).astype(np.int64)
        outlier_val = flat[outlier_mask].astype(np.int64)

        stream = huffman_encode(symbols)
        payload = (
            struct.pack("<Q", len(stream))
            + stream
            + struct.pack("<Q", outlier_idx.size)
            + outlier_idx.astype("<i8").tobytes()
            + outlier_val.astype("<i8").tobytes()
        )
        return CompressedBuffer(
            codec=self.name,
            payload=payload,
            meta={
                "shape": list(data.shape),
                "dtype": str(data.dtype),
                "abs_bound": eb,
                "quant_bound": eb_q,
                "radius": self.radius,
            },
        )

    def decompress(self, buf: CompressedBuffer) -> np.ndarray:
        self._check_codec(buf)
        shape = tuple(buf.meta["shape"])
        eb = float(buf.meta.get("quant_bound", buf.meta["abs_bound"]))
        radius = int(buf.meta["radius"])
        blob = buf.payload

        (stream_len,) = struct.unpack("<Q", blob[:8])
        off = 8
        symbols = huffman_decode(blob[off : off + stream_len])
        off += stream_len
        (n_out,) = struct.unpack("<Q", blob[off : off + 8])
        off += 8
        idx = np.frombuffer(blob[off : off + 8 * n_out], dtype="<i8")
        off += 8 * n_out
        val = np.frombuffer(blob[off : off + 8 * n_out], dtype="<i8")

        n = int(np.prod(shape))
        if symbols.size != n:
            raise CompressionError(
                f"decoded {symbols.size} symbols for {n} elements"
            )
        # the decoder returns a fresh array: patch the outliers in place
        sentinel = -(radius + 1)
        if n_out:
            if not (symbols[idx] == sentinel).all():
                raise CompressionError("outlier positions disagree with sentinels")
            symbols[idx] = val
        elif (symbols == sentinel).any():
            raise CompressionError("sentinel symbols without outlier records")

        q = lorenzo_reconstruct(symbols.reshape(shape))
        out = dequantize(q, eb)
        return out.astype(buf.meta.get("dtype", "float32")).reshape(shape)
