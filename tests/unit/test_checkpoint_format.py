"""The v2 checkpoint container: exact, validated, bounded.

``AuditCheckpoint`` files are one binary container (magic, CRC'd JSON
header with an array table, raw little-endian segments).  These tests
pin the format's contract:

* nested states round-trip bit-identically, whatever the arrays' dtype,
  layout or byte order;
* every truncation and every single-byte corruption of a file is a
  ``DataIOError`` — never another exception, never a silently different
  state;
* hostile header values are rejected by arithmetic on the real file
  size, before any allocation;
* ``peek`` reads the header only;
* a committed v1 (JSON + base64) checkpoint still resumes, to a report
  byte-identical to an uninterrupted run;
* ``save`` streams array bytes from the arrays' own buffers (bounded
  transient heap — the EXPERIMENTS "checkpoint heap-churn OOM" lesson).
"""

import json
import math
import shutil
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.audit import AuditInterrupted, run_audit
from repro.audit.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_FORMAT_V1,
    CHECKPOINT_MAGIC,
    AuditCheckpoint,
)
from repro.datasets.fields import Dataset, Field
from repro.errors import DataIOError
from repro.io.bundle import save_bundle_chunked
from repro.telemetry.tracer import Tracer

GOLDEN_V1 = Path(__file__).resolve().parents[1] / "golden" / "audit_checkpoint_v1.json"
GOLDEN_V2_FULL = GOLDEN_V1.with_name("audit_checkpoint_v2_full.bin")

_PREFIX = struct.Struct("<8sII")


def _assert_same_array(back, arr):
    assert isinstance(back, np.ndarray)
    assert back.dtype == arr.dtype.newbyteorder("=")
    assert back.dtype.isnative
    assert back.shape == arr.shape
    assert back.flags.writeable and back.flags.c_contiguous
    assert back.tobytes() == arr.astype(back.dtype).tobytes()


def _rebuild(path, header, payload=b""):
    """Write a container around an arbitrary (possibly hostile) header."""
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(
        _PREFIX.pack(CHECKPOINT_MAGIC, len(raw), zlib.crc32(raw)) + raw + payload
    )


def _split(path):
    """(header dict, payload bytes) of a well-formed container."""
    blob = path.read_bytes()
    _, header_len, _ = _PREFIX.unpack_from(blob)
    end = _PREFIX.size + header_len
    return json.loads(blob[_PREFIX.size : end]), blob[end:]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.int64, np.bool_]
    )
    def test_dtypes_bit_identical(self, tmp_path, rng, dtype):
        arr = (rng.normal(size=(3, 4, 5)) * 3).astype(dtype)
        ck = AuditCheckpoint(tmp_path / "ck.json")
        ck.save({"a": arr})
        _assert_same_array(ck.load()["a"], arr)

    def test_awkward_layouts(self, tmp_path, rng):
        base = rng.normal(size=(6, 8))
        state = {
            "zero_d": np.array(2.5),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "transposed": base.T,
            "strided": base[::2, 1::3],
            "big_endian": base.astype(">f8"),
            "big_endian_int": np.arange(5, dtype=">i8"),
        }
        ck = AuditCheckpoint(tmp_path / "ck.json")
        ck.save(state)
        doc = ck.load()
        for name, arr in state.items():
            _assert_same_array(doc[name], arr)
            assert np.array_equal(doc[name], arr)

    def test_nested_structure_and_scalars(self, tmp_path, rng):
        state = {
            "completed": [{"key": "a::x", "ssim": 0.1 + 0.2}],
            "in_progress": {
                "stream": {"fifo": {"buf": rng.normal(size=(2, 3)), "filled": 2}},
                "extrema": [math.inf, -math.inf, math.nan, -0.0],
                "tuple": (1, 2),
                "np": [np.float64(1.5), np.int32(7), np.bool_(True)],
                "big": 2**70,
                "none": None,
            },
        }
        ck = AuditCheckpoint(tmp_path / "ck.json")
        ck.save(state)
        doc = ck.load()
        assert doc["format"] == CHECKPOINT_FORMAT
        assert doc["completed"] == state["completed"]  # exact repr round-trip
        got = doc["in_progress"]
        _assert_same_array(
            got["stream"]["fifo"]["buf"], state["in_progress"]["stream"]["fifo"]["buf"]
        )
        assert got["stream"]["fifo"]["filled"] == 2
        assert got["extrema"][:2] == [math.inf, -math.inf]
        assert math.isnan(got["extrema"][2])
        assert math.copysign(1.0, got["extrema"][3]) == -1.0
        assert got["tuple"] == [1, 2]
        assert [type(v) for v in got["np"]] == [float, int, bool]
        assert got["big"] == 2**70 and got["none"] is None

    def test_file_is_little_endian_whatever_the_input(self, tmp_path):
        values = np.arange(4, dtype=np.float64)
        files = []
        for order in ("<", ">"):
            ck = AuditCheckpoint(tmp_path / f"ck{ord(order)}.json")
            ck.save({"a": values.astype(values.dtype.newbyteorder(order))})
            files.append(ck.path.read_bytes())
        assert files[0] == files[1]
        assert files[0].endswith(values.astype("<f8").tobytes())

    def test_unsupported_dtype_refused_at_save(self, tmp_path):
        ck = AuditCheckpoint(tmp_path / "ck.json")
        with pytest.raises(TypeError, match="dtype"):
            ck.save({"a": np.array([object()])})
        assert not ck.exists() and list(tmp_path.iterdir()) == []


@pytest.fixture()
def small_checkpoint(tmp_path):
    ck = AuditCheckpoint(tmp_path / "small.json")
    ck.save(
        {
            "completed": ["a::x"],
            "in_progress": {
                "chunks_done": 2,
                "buf": np.arange(6, dtype=np.float64).reshape(2, 3),
                "n": np.arange(3, dtype=np.int64),
            },
        }
    )
    return ck


class TestCorruptionIsAlwaysDataIOError:
    def test_every_truncation(self, small_checkpoint):
        blob = small_checkpoint.path.read_bytes()
        assert len(blob) < 1024
        for keep in range(len(blob)):
            small_checkpoint.path.write_bytes(blob[:keep])
            with pytest.raises(DataIOError):
                small_checkpoint.load()

    def test_trailing_garbage(self, small_checkpoint):
        with small_checkpoint.path.open("ab") as fh:
            fh.write(b"\0")
        with pytest.raises(DataIOError, match="declares"):
            small_checkpoint.load()

    @pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
    def test_every_single_byte_flip(self, small_checkpoint, mask):
        blob = small_checkpoint.path.read_bytes()
        for at in range(len(blob)):
            bad = bytearray(blob)
            bad[at] ^= mask
            small_checkpoint.path.write_bytes(bytes(bad))
            with pytest.raises(DataIOError):
                small_checkpoint.load()
        small_checkpoint.path.write_bytes(blob)
        assert small_checkpoint.load()["in_progress"]["chunks_done"] == 2

    def test_segment_corruption_names_the_segment(self, small_checkpoint):
        blob = bytearray(small_checkpoint.path.read_bytes())
        blob[-1] ^= 0x10  # last byte of the second array
        small_checkpoint.path.write_bytes(bytes(blob))
        with pytest.raises(DataIOError, match="segment 1"):
            small_checkpoint.load()


class TestHostileHeaders:
    """A header can carry a valid CRC and still lie; every claim is
    checked against the real file size before anything is allocated."""

    @pytest.fixture()
    def parts(self, small_checkpoint):
        header, payload = _split(small_checkpoint.path)
        return small_checkpoint, header, payload

    def _expect_rejected(self, ck, header, payload):
        _rebuild(ck.path, header, payload)
        tracemalloc.start()
        try:
            with pytest.raises(DataIOError):
                ck.load()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # nothing sized by the header's claims

    def test_intact_rebuild_loads(self, parts):
        ck, header, payload = parts
        _rebuild(ck.path, header, payload)
        assert ck.load()["in_progress"]["chunks_done"] == 2

    @pytest.mark.parametrize("claim", [2**40, 10**30, -1, 0, 1.5, "72", None, True])
    def test_payload_nbytes_claims(self, parts, claim):
        ck, header, payload = parts
        header["payload_nbytes"] = claim
        self._expect_rejected(ck, header, payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", 2**40),
            ("offset", -8),
            ("offset", 8),
            ("nbytes", 2**40),
            ("nbytes", 0),
            ("shape", [2**40, 2**40]),
            ("shape", [-2, -3]),
            ("shape", [2, 3.0]),
            ("shape", "2,3"),
            ("dtype", "O"),
            ("dtype", "<U8"),
            ("dtype", ">f8"),
            ("dtype", "float64"),
            ("dtype", ["<f8"]),
            ("dtype", None),
            ("crc32", "0"),
        ],
    )
    def test_array_table_claims(self, parts, field, value):
        ck, header, payload = parts
        header["arrays"][0][field] = value
        self._expect_rejected(ck, header, payload)

    def test_missing_table_key(self, parts):
        ck, header, payload = parts
        del header["arrays"][1]["crc32"]
        self._expect_rejected(ck, header, payload)

    def test_table_must_tile_the_payload(self, parts):
        ck, header, payload = parts
        header["arrays"].pop()  # second segment's bytes now unclaimed
        self._expect_rejected(ck, header, payload)

    @pytest.mark.parametrize("ref", [2, -1, "0", 1.0, None])
    def test_array_reference_out_of_range(self, parts, ref):
        ck, header, payload = parts
        header["doc"]["in_progress"]["buf"] = {"__ndarray__": ref}
        self._expect_rejected(ck, header, payload)

    @pytest.mark.parametrize("key", ["arrays", "doc", "payload_nbytes"])
    def test_missing_header_key(self, parts, key):
        ck, header, payload = parts
        del header[key]
        self._expect_rejected(ck, header, payload)

    def test_header_length_past_eof(self, small_checkpoint):
        blob = bytearray(small_checkpoint.path.read_bytes())
        struct.pack_into("<I", blob, 8, 2**32 - 1)
        small_checkpoint.path.write_bytes(bytes(blob))
        with pytest.raises(DataIOError, match="does not fit"):
            small_checkpoint.load()


class TestPeek:
    def test_header_only(self, small_checkpoint):
        doc = small_checkpoint.peek()
        assert doc["format"] == CHECKPOINT_FORMAT
        assert doc["completed"] == ["a::x"]
        assert doc["in_progress"]["chunks_done"] == 2
        assert doc["in_progress"]["buf"] == {"__ndarray__": 0}

    def test_never_touches_segments(self, small_checkpoint):
        blob = bytearray(small_checkpoint.path.read_bytes())
        blob[-1] ^= 0xFF
        small_checkpoint.path.write_bytes(bytes(blob))
        assert small_checkpoint.peek()["in_progress"]["chunks_done"] == 2
        with pytest.raises(DataIOError):
            small_checkpoint.load()

    def test_missing_or_short_file_is_none(self, small_checkpoint, tmp_path):
        assert AuditCheckpoint(tmp_path / "absent.json").peek() is None
        blob = small_checkpoint.path.read_bytes()
        header_end = len(blob) - len(_split(small_checkpoint.path)[1])
        for keep in (0, 5, 12, 40, header_end, len(blob) - 1):
            small_checkpoint.path.write_bytes(blob[:keep])
            assert small_checkpoint.peek() is None

    def test_corrupt_header_raises(self, small_checkpoint):
        blob = bytearray(small_checkpoint.path.read_bytes())
        blob[30] ^= 0x01
        small_checkpoint.path.write_bytes(bytes(blob))
        with pytest.raises(DataIOError, match="CRC"):
            small_checkpoint.peek()

    def test_v1_file(self):
        doc = AuditCheckpoint(GOLDEN_V1).peek()
        assert doc["format"] == CHECKPOINT_FORMAT_V1
        assert doc["in_progress"]["chunks_done"] == 1


def golden_tree(root):
    """The bundle tree ``tests/golden/audit_checkpoint_v1.json`` was
    taken from.  Values are powers of two, so with the factor-2
    decimating codec every accumulator sum is exact in float64 and the
    golden state does not depend on the host's summation order or BLAS.
    """
    z, y, x = np.meshgrid(np.arange(12), np.arange(10), np.arange(10), indexing="ij")
    ds = Dataset(name="golden")
    ds.add(Field("a", (2.0 ** ((z + 2 * y + 3 * x) % 4)).astype(np.float32)))
    ds.add(Field("b", (2.0 ** ((3 * z + y + 2 * x) % 3)).astype(np.float32)))
    save_bundle_chunked(ds, root / "g", chunk_nz=4)
    return root


#: the audit configuration the golden checkpoint was written under (its
#: fingerprint must match for the resume to be accepted)
GOLDEN_KWARGS = {"codec": "decimate", "max_lag": 3, "workers": "serial"}


class TestV1ReadPath:
    """``audit_checkpoint_v1.json`` is what the pre-container writer
    (``json.dump(encode_state(doc))``) left on disk after
    ``run_audit(golden_tree, **GOLDEN_KWARGS, stop_after_chunks=4)``:
    field ``a`` complete, field ``b`` one chunk in, SSIM FIFO and
    autocorrelation carry as base64."""

    def test_loads_with_arrays(self):
        doc = AuditCheckpoint(GOLDEN_V1).load()
        assert doc["format"] == CHECKPOINT_FORMAT_V1
        assert [r["key"] for r in doc["completed"]] == ["g::a"]
        stream = doc["in_progress"]["stream"]
        assert stream["ssim"]["fifo"]["buf"].dtype == np.float64
        assert stream["acc"]["arrays"]["carry"].shape == (3, 10, 10)

    def test_resumes_byte_identical_to_uninterrupted(self, tmp_path):
        root = golden_tree(tmp_path / "tree")
        ref = tmp_path / "ref.json"
        run_audit(root, out_path=ref, checkpoint_path=tmp_path / "ck_ref.json",
                  **GOLDEN_KWARGS)

        ck = tmp_path / "ck.json"
        shutil.copyfile(GOLDEN_V1, ck)
        events = []
        out = tmp_path / "resumed.json"
        run_audit(root, out_path=out, checkpoint_path=ck, **GOLDEN_KWARGS,
                  progress=lambda event, payload: events.append((event, payload)))
        assert events[0] == (
            "resume", {"completed": 1, "mid_field": True, "discarded_parts": 0}
        )
        chunks = [p["chunk"] for e, p in events if e == "chunk"]
        assert chunks == [2, 3]  # g::b picked up after its first chunk
        assert out.read_bytes() == ref.read_bytes()
        assert not ck.exists()

    def test_next_save_upgrades_the_file(self, tmp_path):
        ck = AuditCheckpoint(tmp_path / "ck.json")
        shutil.copyfile(GOLDEN_V1, ck.path)
        doc = ck.load()
        ck.save({k: v for k, v in doc.items() if k != "format"})
        assert ck.path.read_bytes().startswith(CHECKPOINT_MAGIC)
        again = ck.load()
        assert again["format"] == CHECKPOINT_FORMAT
        _assert_same_array(
            again["in_progress"]["stream"]["ssim"]["fifo"]["buf"],
            doc["in_progress"]["stream"]["ssim"]["fifo"]["buf"],
        )


class TestFullStateV2ReadPath:
    """``audit_checkpoint_v2_full.bin`` is what commit 02d0cc2 — the last
    writer that persisted the SSIM ring and the autocorrelation carry —
    left after the golden recipe (``run_audit(golden_tree,
    **GOLDEN_KWARGS, stop_after_chunks=4)``).  It has no ``halo_crc``:
    the resume loads ring and carry from the file and primes nothing."""

    def test_holds_the_halo_and_no_crcs(self):
        record = AuditCheckpoint(GOLDEN_V2_FULL).load()["in_progress"]
        assert "halo_crc" not in record
        assert record["stream"]["ssim"]["fifo"]["buf"].shape == (8, 5, 3, 3)
        assert record["stream"]["acc"]["arrays"]["carry"].shape == (3, 10, 10)

    def test_resumes_byte_identical_to_uninterrupted(self, tmp_path):
        root = golden_tree(tmp_path / "tree")
        ref = tmp_path / "ref.json"
        run_audit(root, out_path=ref, checkpoint_path=tmp_path / "ck_ref.json",
                  **GOLDEN_KWARGS)

        ck = tmp_path / "ck.json"
        shutil.copyfile(GOLDEN_V2_FULL, ck)
        events = []
        tracer = Tracer()
        out = tmp_path / "resumed.json"
        run_audit(root, out_path=out, checkpoint_path=ck, **GOLDEN_KWARGS,
                  tracer=tracer,
                  progress=lambda event, payload: events.append((event, payload)))
        assert events[0] == (
            "resume", {"completed": 1, "mid_field": True, "discarded_parts": 0}
        )
        assert [p["chunk"] for e, p in events if e == "chunk"] == [2, 3]
        assert not [s for s in tracer.spans if s.name == "halo_prime"]
        assert out.read_bytes() == ref.read_bytes()

    def test_killed_again_one_chunk_later_still_resumes(self, tmp_path):
        """The chunk streamed after the resume covers 4 of the 7 halo
        slices, so its record must stay full-state: a light one would
        prime an under-filled ring on the second resume."""
        root = golden_tree(tmp_path / "tree")
        ref = tmp_path / "ref.json"
        run_audit(root, out_path=ref, checkpoint_path=tmp_path / "ck_ref.json",
                  **GOLDEN_KWARGS)

        ck = tmp_path / "ck.json"
        shutil.copyfile(GOLDEN_V2_FULL, ck)
        out = tmp_path / "resumed.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, **GOLDEN_KWARGS,
                      stop_after_chunks=1)
        record = AuditCheckpoint(ck).load()["in_progress"]
        assert record["chunks_done"] == 2 and "halo_crc" not in record
        assert record["stream"]["ssim"]["fifo"]["buf"].shape == (8, 5, 3, 3)
        run_audit(root, out_path=out, checkpoint_path=ck, **GOLDEN_KWARGS)
        assert out.read_bytes() == ref.read_bytes()


def test_save_transient_heap_is_bounded(tmp_path, rng):
    """Array bytes go to the file from the arrays' own buffers: the
    transient heap of a save stays under 1.25x the largest array even
    when one array needs a (single) contiguous copy."""
    fifo = rng.normal(size=(8, 5, 96, 96))  # 2.8 MiB, the SSIM ring's size
    state = {
        "fifo": fifo,
        "carry": rng.normal(size=(10, 96, 96)),
        "strided": fifo[:, :, ::2, ::2],
    }
    ck = AuditCheckpoint(tmp_path / "ck.json")
    ck.save(state)  # imports, directory creation
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ck.save(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.25 * fifo.nbytes
    assert ck.path.stat().st_size > sum(a.nbytes for a in state.values())
