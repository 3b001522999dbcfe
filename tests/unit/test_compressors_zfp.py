import hashlib
import struct

import numpy as np
import pytest

from repro.compressors.base import CompressedBuffer
from repro.compressors.zfp import (
    ZFPCompressor,
    _coeff_widths,
    _fwd_axis,
    _inv_axis,
)
from repro.errors import CompressionError
from tests.zfp_reference import reference_compress, reference_decompress

#: written by the per-column codec of commit a06e33c for
#: ``_pattern_field((6, 10, 9))`` at rate 8
PATTERN_UMAX = 26
PATTERN_SHA256 = "c0e8ef7485815e507f1da449fbb72d0b7dddb48b051a87cf7164bfe41970c38e"


class TestTransform:
    def test_lifting_reversible(self, rng):
        ints = rng.integers(-(2**24), 2**24, size=(50, 4, 4, 4)).astype(np.int64)
        fwd = ints
        for axis in (1, 2, 3):
            fwd = _fwd_axis(fwd, axis)
        inv = fwd
        for axis in (3, 2, 1):
            inv = _inv_axis(inv, axis)
        assert np.array_equal(inv, ints)

    def test_lowpass_first(self):
        block = np.full((1, 4, 4, 4), 100, dtype=np.int64)
        out = block
        for axis in (1, 2, 3):
            out = _fwd_axis(out, axis)
        # a constant block concentrates all energy in coefficient (0,0,0)
        assert out[0, 0, 0, 0] == 100
        flat = out.ravel().copy()
        flat[0] = 0
        assert np.all(flat == 0)


class TestCoeffWidths:
    def test_budget_respected(self):
        for rate in (2, 4, 8, 16):
            widths = _coeff_widths(rate)
            assert widths.sum() <= rate * 64 - 16

    def test_low_frequency_gets_more_bits(self):
        widths = _coeff_widths(8).reshape(4, 4, 4)
        assert widths[0, 0, 0] >= widths[3, 3, 3]

    def test_tiny_rate_rejected(self):
        with pytest.raises(CompressionError):
            _coeff_widths(0.25)


class TestZFPCompressor:
    def test_fixed_rate_exact_size_scaling(self, smooth_field):
        """Fixed rate: compressed size is shape-determined, data-blind."""
        comp = ZFPCompressor(rate=8)
        a = comp.compress(smooth_field)
        b = comp.compress(smooth_field * 100 + 3)
        assert a.nbytes == b.nbytes

    def test_ratio_matches_rate(self, smooth_field):
        comp = ZFPCompressor(rate=8)
        ratio = comp.ratio(smooth_field)
        # 32-bit values at ~8 bits each (+ per-block exponent, headers)
        assert 3.0 < ratio < 4.2

    def test_quality_improves_with_rate(self, smooth_field):
        def rmse(rate):
            comp = ZFPCompressor(rate=rate)
            dec = comp.decompress(comp.compress(smooth_field))
            return float(
                np.sqrt(np.mean((dec.astype(np.float64) - smooth_field) ** 2))
            )

        assert rmse(16) < rmse(8) < rmse(4)

    def test_high_rate_near_lossless(self, smooth_field):
        comp = ZFPCompressor(rate=24)
        dec = comp.decompress(comp.compress(smooth_field))
        nrmse = np.sqrt(np.mean((dec - smooth_field) ** 2)) / (
            smooth_field.max() - smooth_field.min()
        )
        assert nrmse < 1e-4

    def test_non_multiple_of_four_shapes(self, rng):
        data = rng.normal(size=(9, 10, 13)).astype(np.float32)
        comp = ZFPCompressor(rate=12)
        dec = comp.decompress(comp.compress(data))
        assert dec.shape == data.shape
        assert np.corrcoef(dec.ravel(), data.ravel())[0, 1] > 0.98

    def test_constant_field_high_rate_near_exact(self):
        data = np.full((8, 8, 8), 7.25, dtype=np.float32)
        comp = ZFPCompressor(rate=16)
        dec = comp.decompress(comp.compress(data))
        assert np.allclose(dec, data, atol=1e-5)

    def test_zero_field(self):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        dec = ZFPCompressor(rate=4).decompress(ZFPCompressor(rate=4).compress(data))
        assert np.array_equal(dec, data)

    def test_no_error_bound_guarantee(self, smooth_field):
        """The paper's motivating contrast: fixed-rate mode cannot bound
        pointwise error the way SZ's abs mode does."""
        comp = ZFPCompressor(rate=2)
        dec = comp.decompress(comp.compress(smooth_field))
        err = np.abs(dec.astype(np.float64) - smooth_field.astype(np.float64))
        assert err.max() > 0.01  # visibly lossy at 2 bits/value

    def test_non_3d_rejected(self):
        with pytest.raises(CompressionError):
            ZFPCompressor(rate=8).compress(np.zeros((4, 4)))

    def test_nonfinite_rejected(self):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(CompressionError):
            ZFPCompressor(rate=8).compress(data)


def _pattern_field(shape):
    """Exactly representable values (no libm, no RNG): the same bytes on
    every host."""
    z, y, x = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
    return (((z * 7 + y * 13 + x * 29) % 101 - 50) / 8.0).astype(np.float32)


class TestFormatPin:
    """The width-grouped packer against the per-column codec it replaced
    (``tests/zfp_reference.py``): the packer may change, the bytes and
    the decoded values may not."""

    FIELDS = {
        "chunk": lambda rng: (rng.normal(size=(4, 24, 20)) * 100).astype(np.float32),
        "ragged": lambda rng: rng.normal(size=(5, 7, 9)),
        "thin": lambda rng: np.cumsum(rng.normal(size=(13, 10, 3)), axis=0),
        "single_block": lambda rng: rng.normal(size=(4, 4, 4)).astype(np.float32),
        "single_value": lambda rng: np.full((1, 1, 1), -3.75),
        "all_zero": lambda rng: np.zeros((6, 5, 8), dtype=np.float32),
    }

    @pytest.mark.parametrize("rate", (1, 4, 8, 12.5))
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_bytes_and_values_equal_reference(self, name, rate, rng):
        data = self.FIELDS[name](rng)
        want = reference_compress(data, rate)
        got = ZFPCompressor(rate).compress(data)
        assert got.payload == want.payload
        assert got.meta == want.meta
        decoded = ZFPCompressor(rate).decompress(got)
        reference = reference_decompress(want)
        assert decoded.dtype == reference.dtype
        assert np.array_equal(decoded, reference)

    def test_payload_hash_of_parent_commit(self):
        """SHA-256 of the payload commit a06e33c wrote for this field."""
        buf = ZFPCompressor(8).compress(_pattern_field((6, 10, 9)))
        assert buf.meta["umax"] == PATTERN_UMAX
        assert hashlib.sha256(buf.payload).hexdigest() == PATTERN_SHA256

    def test_longer_column_is_still_read(self, rng):
        """A length prefix may exceed what the width needs (the decoder
        always skipped by the prefix): padding one column changes no value."""
        data = rng.normal(size=(4, 8, 8)).astype(np.float32)
        comp = ZFPCompressor(8)
        buf = comp.compress(data)
        nb = 4
        off = 8 + 4 * nb
        (clen,) = struct.unpack_from("<I", buf.payload, off)
        padded = (
            buf.payload[:off]
            + struct.pack("<I", clen + 3)
            + buf.payload[off + 4 : off + 4 + clen]
            + b"\xff\xff\xff"
            + buf.payload[off + 4 + clen :]
        )
        again = comp.decompress(CompressedBuffer("zfp", padded, dict(buf.meta)))
        assert np.array_equal(again, comp.decompress(buf))

    def test_width_table_is_memoised_and_read_only(self):
        assert _coeff_widths(8.0) is _coeff_widths(8.0)
        with pytest.raises(ValueError):
            _coeff_widths(8.0)[0] = 1


class TestMalformedPayload:
    """Everything malformed surfaces as ``CompressionError`` — the audit
    reports a bad chunk — never ``struct.error``/``ValueError``/
    ``OverflowError``/``MemoryError``."""

    @pytest.fixture(scope="class")
    def good(self):
        data = _pattern_field((4, 24, 20))
        return ZFPCompressor(8).compress(data)

    @staticmethod
    def _column0(payload):
        (nb,) = struct.unpack_from("<Q", payload)
        return 8 + 4 * nb

    def _decode(self, good, payload=None, **meta):
        buf = CompressedBuffer(
            "zfp", good.payload if payload is None else payload, {**good.meta, **meta}
        )
        return ZFPCompressor(8).decompress(buf)

    @pytest.mark.parametrize("keep", (0, 4, 10, 100, 8 + 4 * 30, 8 + 4 * 30 + 2, -1))
    def test_truncated(self, good, keep):
        with pytest.raises(CompressionError):
            self._decode(good, good.payload[:keep])

    @pytest.mark.parametrize("length", (0, 3, 10**9, 2**32 - 1))
    def test_bad_column_length(self, good, length):
        off = self._column0(good.payload)
        payload = (
            good.payload[:off] + struct.pack("<I", length) + good.payload[off + 4 :]
        )
        with pytest.raises(CompressionError, match="column 0"):
            self._decode(good, payload)

    @pytest.mark.parametrize("umax", (200, 30, 0, -1))
    def test_umax_out_of_range(self, good, umax):
        with pytest.raises(CompressionError, match="umax"):
            self._decode(good, umax=umax)

    @pytest.mark.parametrize("nb", (0, 29, 31, 2**62))
    def test_block_count_disagrees_with_shape(self, good, nb):
        payload = struct.pack("<Q", nb) + good.payload[8:]
        with pytest.raises(CompressionError, match="blocks"):
            self._decode(good, payload)

    @pytest.mark.parametrize("shape", ([4, 24, 24], [4, 24], [0, 24, 20], [4, 24, 20, 1]))
    def test_shape_disagrees_with_payload(self, good, shape):
        with pytest.raises(CompressionError):
            self._decode(good, shape=shape)

    def test_rate_disagrees_with_payload(self, good):
        with pytest.raises(CompressionError):
            self._decode(good, rate=16.0)

    def test_good_payload_still_decodes(self, good):
        assert self._decode(good).shape == (4, 24, 20)
