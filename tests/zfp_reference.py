"""Independent reference for the zfp column stage (test-only).

``reference_compress`` / ``reference_decompress`` are the codec as it
shipped before the width-grouped packer (commit a06e33c): one
``pack``/``unpack`` call per coefficient column, bits expanded by int64
shift-and-sum, the width search run on every call.  They share the
block transform with ``repro.compressors.zfp`` (it did not change) but
no packing, grouping or offset code, so equal payload bytes and equal
decoded arrays are evidence, not tautology.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compressors.base import CompressedBuffer
from repro.compressors.zfp import (
    _BLOCK,
    _PRECISION,
    _UMAX,
    ZFPCompressor,
    _frequency_groups,
    _fwd_axis,
    _inv_axis,
    _pad_to_blocks,
)


def coeff_widths(rate: float) -> np.ndarray:
    groups = _frequency_groups()
    budget = int(rate * _BLOCK**3) - 16
    for wbase in range(_UMAX + 10, 0, -1):
        widths = np.clip(wbase - groups, 0, _UMAX)
        if int(widths.sum()) <= budget:
            return widths.astype(np.int64)
    raise AssertionError(f"rate {rate} leaves no bits")


def pack_column(values: np.ndarray, width: int) -> bytes:
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values.astype(np.uint64)[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def unpack_column(blob: bytes, width: int, count: int) -> np.ndarray:
    bits = np.unpackbits(
        np.frombuffer(blob, dtype=np.uint8), count=width * count, bitorder="little"
    )
    bits = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits << shifts).sum(axis=1, dtype=np.uint64)


def reference_compress(data: np.ndarray, rate: float) -> CompressedBuffer:
    data = np.asarray(data, dtype=np.float64)
    padded, orig_shape = _pad_to_blocks(data)
    blocks = ZFPCompressor._to_blocks(padded)
    nb = blocks.shape[0]

    maxabs = np.abs(blocks).reshape(nb, -1).max(axis=1)
    emax = np.zeros(nb, dtype=np.int32)
    nonzero = maxabs > 0
    emax[nonzero] = np.frexp(maxabs[nonzero])[1]
    scale = np.ldexp(1.0, _PRECISION - emax)
    ints = np.rint(blocks * scale[:, None, None, None]).astype(np.int64)
    for axis in (1, 2, 3):
        ints = _fwd_axis(ints, axis)

    coeffs = ints.reshape(nb, -1)
    peak = int(np.abs(coeffs).max())
    umax = min(max(peak.bit_length() + 1, 1), _UMAX)
    payload = struct.pack("<Q", nb) + emax.astype("<i4").tobytes()
    for j, w in enumerate(coeff_widths(rate).tolist()):
        if w == 0:
            continue
        drop = max(0, umax - w)
        column = pack_column((coeffs[:, j] >> drop) & ((1 << w) - 1), w)
        payload += struct.pack("<I", len(column)) + column
    return CompressedBuffer(
        codec="zfp",
        payload=payload,
        meta={
            "shape": list(orig_shape),
            "dtype": "float32",
            "rate": float(rate),
            "umax": umax,
        },
    )


def reference_decompress(buf: CompressedBuffer) -> np.ndarray:
    orig_shape = tuple(buf.meta["shape"])
    umax = int(buf.meta["umax"])
    blob = buf.payload
    (nb,) = struct.unpack("<Q", blob[:8])
    emax = np.frombuffer(blob[8 : 8 + 4 * nb], dtype="<i4").astype(np.int32)
    off = 8 + 4 * nb

    coeffs = np.zeros((nb, _BLOCK**3), dtype=np.int64)
    for j, w in enumerate(coeff_widths(float(buf.meta["rate"])).tolist()):
        if w == 0:
            continue
        (clen,) = struct.unpack("<I", blob[off : off + 4])
        off += 4
        signed = unpack_column(blob[off : off + clen], w, nb).astype(np.int64)
        off += clen
        sign_bit = 1 << (w - 1)
        signed = (signed ^ sign_bit) - sign_bit
        drop = max(0, umax - w)
        restored = signed << drop
        if drop > 0:
            restored += np.where(signed != 0, 1 << (drop - 1), 0)
        coeffs[:, j] = restored

    ints = coeffs.reshape(nb, _BLOCK, _BLOCK, _BLOCK)
    for axis in (3, 2, 1):
        ints = _inv_axis(ints, axis)
    scale = np.ldexp(1.0, _PRECISION - emax)
    blocks = ints.astype(np.float64) / scale[:, None, None, None]
    padded_shape = tuple(math.ceil(s / _BLOCK) * _BLOCK for s in orig_shape)
    out = ZFPCompressor._from_blocks(blocks, padded_shape)
    out = out[: orig_shape[0], : orig_shape[1], : orig_shape[2]]
    return out.astype(buf.meta["dtype"])
