"""Fixed-rate block-transform codec in the style of cuZFP.

Like zfp's CUDA backend, the codec:

1. partitions the volume into 4×4×4 blocks (edge-replicated padding);
2. block-floating-point-normalises each block to a common exponent and a
   fixed-precision integer representation;
3. applies a separable, reversible integer lifting transform along each
   axis (a two-level S-transform here — same hierarchical structure as
   zfp's lifting, chosen for provable integer reversibility);
4. orders coefficients by total frequency and stores each with a width
   that decreases with frequency, truncating low-order bits so that every
   block costs exactly ``rate`` bits per value (**fixed rate** — the only
   mode cuZFP supports, which is the compression-quality trade-off the
   paper's introduction calls out).

Fixed-rate coding bounds the *size*, not the error: unlike
:class:`~repro.compressors.sz.SZCompressor` there is no pointwise error
guarantee, and the rate-distortion benchmarks exercise exactly that
contrast.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from repro.compressors.base import CompressedBuffer, Compressor
from repro.compressors.bitstream import pack_fixed_width, unpack_fixed_width
from repro.errors import CompressionError

__all__ = ["ZFPCompressor"]

_BLOCK = 4
_PRECISION = 24  # integer precision of the block-floating-point stage
_UMAX = _PRECISION + 5  # transform growth headroom (two's-complement width)


def _s_forward(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reversible S-transform pair: s = (a+b)>>1 (floor), d = a-b."""
    s = (a + b) >> 1
    d = a - b
    return s, d


def _s_inverse(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact inverse of :func:`_s_forward`."""
    # a + b = 2s + ((a+b) & 1); parity of (a+b) equals parity of d
    a = s + ((d + 1) >> 1)
    b = a - d
    return a, b


def _fwd_axis(v: np.ndarray, axis: int) -> np.ndarray:
    """Two-level S-transform along one length-4 axis.

    Output order: [ss, sd, d0, d1] — lowpass first (frequency 0..3).
    """
    v = np.moveaxis(v, axis, -1)
    a0, a1, a2, a3 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    s0, d0 = _s_forward(a0, a1)
    s1, d1 = _s_forward(a2, a3)
    ss, sd = _s_forward(s0, s1)
    out = np.stack([ss, sd, d0, d1], axis=-1)
    return np.moveaxis(out, -1, axis)


def _inv_axis(v: np.ndarray, axis: int) -> np.ndarray:
    v = np.moveaxis(v, axis, -1)
    ss, sd, d0, d1 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    s0, s1 = _s_inverse(ss, sd)
    a0, a1 = _s_inverse(s0, d0)
    a2, a3 = _s_inverse(s1, d1)
    out = np.stack([a0, a1, a2, a3], axis=-1)
    return np.moveaxis(out, -1, axis)


def _frequency_groups() -> np.ndarray:
    """Total-frequency group of each of the 64 block coefficients."""
    f = np.array([0, 1, 2, 3])
    return (f[:, None, None] + f[None, :, None] + f[None, None, :]).ravel()


@functools.lru_cache(maxsize=64)
def _coeff_widths(rate: float) -> np.ndarray:
    """Per-coefficient storage widths for a given rate (bits/value).

    The widths decrease with total frequency; ``wbase`` is the largest
    base width whose total fits the block budget (rate × 64 bits minus
    the 16-bit block exponent header).  Memoised per rate (every chunk
    of an audit decodes at the same one); the array is read-only.
    """
    groups = _frequency_groups()
    budget = int(rate * _BLOCK**3) - 16
    if budget <= 0:
        raise CompressionError(f"rate {rate} too small for the block header")
    best = None
    for wbase in range(_UMAX + 10, 0, -1):
        widths = np.clip(wbase - groups, 0, _UMAX)
        if int(widths.sum()) <= budget:
            best = widths
            break
    if best is None or int(best.sum()) == 0:
        raise CompressionError(f"rate {rate} leaves no bits for coefficients")
    best = best.astype(np.int64)
    best.flags.writeable = False
    return best


@functools.lru_cache(maxsize=64)
def _width_groups(rate: float) -> tuple[tuple[int, np.ndarray], ...]:
    """``(width, columns)`` per distinct non-zero width of ``rate`` — at
    most ten groups (one per total frequency), each packed in one pass."""
    widths = _coeff_widths(rate)
    return tuple(
        (int(w), np.flatnonzero(widths == w)) for w in np.unique(widths) if w
    )


def _pad_to_blocks(data: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    shape = data.shape
    padded_shape = tuple(math.ceil(s / _BLOCK) * _BLOCK for s in shape)
    if padded_shape == shape:
        return data, shape
    pads = [(0, p - s) for s, p in zip(shape, padded_shape)]
    return np.pad(data, pads, mode="edge"), shape


class ZFPCompressor(Compressor):
    """Fixed-rate transform codec (cuZFP stand-in).

    Parameters
    ----------
    rate:
        Stored bits per value (the fixed-rate knob; cuZFP's only mode).
    """

    name = "zfp"

    def __init__(self, rate: float = 8.0):
        if rate <= 0.25:
            raise CompressionError("rate must exceed 0.25 bits/value")
        self.rate = float(rate)
        self._widths = _coeff_widths(self.rate)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _to_blocks(data: np.ndarray) -> np.ndarray:
        nz, ny, nx = data.shape
        v = data.reshape(
            nz // _BLOCK, _BLOCK, ny // _BLOCK, _BLOCK, nx // _BLOCK, _BLOCK
        )
        return v.transpose(0, 2, 4, 1, 3, 5).reshape(-1, _BLOCK, _BLOCK, _BLOCK)

    @staticmethod
    def _from_blocks(blocks: np.ndarray, padded_shape) -> np.ndarray:
        nz, ny, nx = padded_shape
        v = blocks.reshape(
            nz // _BLOCK, ny // _BLOCK, nx // _BLOCK, _BLOCK, _BLOCK, _BLOCK
        )
        return v.transpose(0, 3, 1, 4, 2, 5).reshape(nz, ny, nx)

    # -- API ----------------------------------------------------------------

    def compress(self, data: np.ndarray) -> CompressedBuffer:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3:
            raise CompressionError(f"ZFP codec expects 3-D fields, got {data.ndim}-D")
        if data.size == 0:
            raise CompressionError("cannot compress an empty array")
        if not np.isfinite(data).all():
            raise CompressionError("data contains non-finite values")

        padded, orig_shape = _pad_to_blocks(data)
        blocks = self._to_blocks(padded)
        nb = blocks.shape[0]

        # block-floating-point: common exponent per block
        maxabs = np.abs(blocks).reshape(nb, -1).max(axis=1)
        emax = np.zeros(nb, dtype=np.int32)
        nonzero = maxabs > 0
        emax[nonzero] = np.frexp(maxabs[nonzero])[1]  # maxabs < 2**emax
        scale = np.ldexp(1.0, _PRECISION - emax)
        ints = np.rint(blocks * scale[:, None, None, None]).astype(np.int64)

        for axis in (1, 2, 3):
            ints = _fwd_axis(ints, axis)

        coeffs = ints.reshape(nb, -1)  # (nb, 64)
        # data-adaptive precision: the actual two's-complement width the
        # transformed coefficients need (bounded by the headroom _UMAX);
        # using it instead of the worst case recovers several bits of
        # low-order precision at the same fixed rate
        peak = int(np.abs(coeffs).max()) if coeffs.size else 0
        umax = min(max(peak.bit_length() + 1, 1), _UMAX)
        widths = self._widths
        stored = coeffs >> np.maximum(0, umax - widths)
        stored &= (1 << widths) - 1
        stored = stored.T  # (64, nb)

        # payload: u64 nb, i32 emax[nb], then per stored column (in
        # coefficient order) a u32 byte length and its packed values;
        # columns of one width have one length and are packed together
        clen = -(-widths * nb // 8)
        end = 8 + 4 * nb + np.cumsum(np.where(widths > 0, 4 + clen, 0))
        first = end - clen - 4
        out = np.empty(int(end[-1]), dtype=np.uint8)
        out[:8].view("<u8")[0] = nb
        out[8 : 8 + 4 * nb].view("<i4")[:] = emax
        for w, cols in _width_groups(self.rate):
            n = int(clen[cols[0]])
            at = first[cols, None] + np.arange(4 + n)
            out[at[:, :4]] = np.frombuffer(struct.pack("<I", n), dtype=np.uint8)
            out[at[:, 4:]] = pack_fixed_width(stored[cols], w)
        payload = out.tobytes()

        return CompressedBuffer(
            codec=self.name,
            payload=payload,
            meta={
                "shape": list(orig_shape),
                "dtype": "float32",
                "rate": self.rate,
                "umax": umax,
            },
        )

    def decompress(self, buf: CompressedBuffer) -> np.ndarray:
        self._check_codec(buf)
        orig_shape = tuple(int(s) for s in buf.meta["shape"])
        rate = float(buf.meta["rate"])
        widths = _coeff_widths(rate)
        umax = int(buf.meta.get("umax", _UMAX))
        blob = np.frombuffer(buf.payload, dtype=np.uint8)

        # validate the whole layout before any bit is unpacked: a bad
        # chunk must surface as CompressionError, not as a crash
        if len(orig_shape) != 3 or min(orig_shape) < 1:
            raise CompressionError(f"ZFP payload: bad shape {orig_shape}")
        if not 1 <= umax <= _UMAX:
            raise CompressionError(f"ZFP payload: umax {umax} outside [1, {_UMAX}]")
        padded_shape = tuple(math.ceil(s / _BLOCK) * _BLOCK for s in orig_shape)
        nb = math.prod(padded_shape) // _BLOCK**3
        if blob.size < 8 + 4 * nb or struct.unpack_from("<Q", blob)[0] != nb:
            raise CompressionError(
                f"ZFP payload: header does not describe the {nb} blocks of "
                f"shape {orig_shape}"
            )
        need = -(-widths * nb // 8)
        start = np.zeros(_BLOCK**3, dtype=np.int64)
        off = 8 + 4 * nb
        for j in np.flatnonzero(widths):
            if off + 4 > blob.size:
                raise CompressionError(f"ZFP payload: truncated at column {j}")
            (clen,) = struct.unpack_from("<I", blob, off)
            if clen < need[j] or off + 4 + clen > blob.size:
                raise CompressionError(
                    f"ZFP payload: column {j} length {clen} does not fit "
                    f"(needs {need[j]}, {blob.size - off - 4} left)"
                )
            start[j] = off + 4
            off += 4 + clen

        emax = blob[8 : 8 + 4 * nb].view("<i4").astype(np.int32)
        stored = np.zeros((_BLOCK**3, nb), dtype=np.int64)
        for w, cols in _width_groups(rate):
            rows = blob[start[cols, None] + np.arange(need[cols[0]])]
            stored[cols] = unpack_fixed_width(rows, w, nb)
        # sign-extend each w-bit two's-complement value, restore the
        # magnitude scale and add the dead-zone midpoint — in place
        sign = ((1 << widths) >> 1)[:, None]  # 2**(w-1); 0 for unstored columns
        stored ^= sign
        stored -= sign
        drop = np.maximum(0, umax - widths)[:, None]
        half = np.where(stored != 0, (1 << drop) >> 1, 0)
        stored <<= drop
        stored += half

        ints = stored.T.reshape(nb, _BLOCK, _BLOCK, _BLOCK)
        for axis in (3, 2, 1):
            ints = _inv_axis(ints, axis)

        scale = np.ldexp(1.0, _PRECISION - emax)
        blocks = ints.astype(np.float64) / scale[:, None, None, None]

        out = self._from_blocks(blocks, padded_shape)
        out = out[: orig_shape[0], : orig_shape[1], : orig_shape[2]]
        return out.astype(buf.meta.get("dtype", "float32"))
