"""Audit checkpoint files: exact state, atomically replaced.

A checkpoint holds the audit's progress — which fields are finished
(with their final metric values) and, when a field is mid-stream, the
:class:`~repro.core.streaming.StreamingChecker` cursors and partials
after the last completed chunk (ring and carry are re-derived on resume,
see :mod:`repro.audit.runner`; older files holding them still load).
Two properties make kill/resume bit-identical to an uninterrupted run:

* **exact serialisation** — the file is one self-describing binary
  container: an 8-byte magic, the header length and header CRC-32, a
  small sorted-key JSON header (the document with every array replaced
  by an index into an array table of dtype/shape/offset/nbytes/crc32),
  then the arrays' raw little-endian bytes written straight from the
  state arrays' own buffers.  Python floats survive the JSON header
  because ``json`` emits ``repr``-style shortest round-trip
  representations (including ``Infinity`` for the accumulator's initial
  extrema);
* **atomic persistence** — like the calibration table, every save writes
  a temp file in the target directory and ``os.replace``\\ s it over the
  checkpoint, so a SIGKILL at any instant leaves either the previous or
  the new consistent snapshot, never a torn file.  (Process-kill-safe,
  not power-loss-safe: nothing is ``fsync``\\ ed.)

:meth:`AuditCheckpoint.load` validates before it trusts — magic, header
CRC, exact file size, the array table's dtype/shape/offset bounds, then
every segment's CRC — and raises only :class:`~repro.errors.DataIOError`.
A file without the magic is read as the v1 format (one JSON document
with base64 arrays, :func:`decode_state`), so a checkpoint left by a
killed older run still resumes.  There is one writer.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import shutil
import struct
import threading
import warnings
import zlib
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

from repro.errors import DataIOError

__all__ = [
    "AuditCheckpoint",
    "encode_state",
    "decode_state",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_FORMAT_V1",
    "CHECKPOINT_MAGIC",
    "PART_GLOB",
    "field_progress",
    "load_part",
    "part_path_for",
    "parts_dir_for",
    "remove_parts",
    "sweep_stale_temps",
]

CHECKPOINT_FORMAT = "cuzchecker-audit-checkpoint-v2"
CHECKPOINT_FORMAT_V1 = "cuzchecker-audit-checkpoint-v1"

#: first 8 bytes of a v2 container (a v1 file starts with ``{``)
CHECKPOINT_MAGIC = b"CUZCKPT\x02"

#: magic, header length, header CRC-32 — all little-endian
_PREFIX = struct.Struct("<8sII")

_NDARRAY_KEY = "__ndarray__"

#: the array dtypes a container may hold, by their little-endian
#: ``dtype.str``; anything else (object, strings, structured) is refused
#: on both sides — nothing read from disk ever reaches ``np.dtype`` unvetted
_DTYPES = {
    np.dtype(code).newbyteorder("<").str: np.dtype(code).newbyteorder("<")
    for code in "?bBhHiIqQefdFD"
}


def _encode(obj, on_array):
    """Convert a state structure into JSON-safe values, handing every
    array to ``on_array`` for its replacement."""
    if isinstance(obj, np.ndarray):
        return on_array(obj)
    if isinstance(obj, dict):
        return {str(k): _encode(v, on_array) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v, on_array) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _decode(obj, on_array):
    """Inverse walk: every ``{"__ndarray__": ...}`` node goes to ``on_array``."""
    if isinstance(obj, dict):
        if _NDARRAY_KEY in obj:
            return on_array(obj)
        return {k: _decode(v, on_array) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v, on_array) for v in obj]
    return obj


def _little_endian_bytes(arr: np.ndarray) -> np.ndarray:
    """``arr``'s C-order little-endian bytes as a flat uint8 view — a
    view of ``arr`` itself (no copy) for the native contiguous arrays
    the streaming state is made of."""
    little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return np.ascontiguousarray(little).reshape(-1).view(np.uint8)


def _b64_array(arr: np.ndarray) -> dict:
    return {
        _NDARRAY_KEY: base64.b64encode(_little_endian_bytes(arr)).decode("ascii"),
        "dtype": str(arr.dtype.newbyteorder("<")),
        "shape": list(arr.shape),
    }


def _unb64_array(node: dict) -> np.ndarray:
    raw = base64.b64decode(node[_NDARRAY_KEY])
    arr = np.frombuffer(raw, dtype=np.dtype(node["dtype"]))
    arr = arr.reshape(tuple(int(s) for s in node["shape"]))
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


def encode_state(obj):
    """The v1 (JSON + base64) encoding of a state structure.

    Arrays become ``{"__ndarray__": <base64>, "dtype": ..., "shape": ...}``
    with explicit little-endian byte order.  Nothing writes this to a
    checkpoint any more; it stays as the reference encoder for the v1
    read path and for JSON round-trips of accumulator state.
    """
    return _encode(obj, _b64_array)


def decode_state(obj):
    """Inverse of :func:`encode_state` (arrays come back bit-identical)."""
    return _decode(obj, _unb64_array)


# -- the v2 container ------------------------------------------------------


def _pack(doc: dict) -> tuple[bytes, list]:
    """``(prefix + header bytes, segment buffers)`` for one document."""
    table: list[dict] = []
    buffers: list = []
    offset = 0

    def on_array(arr):
        nonlocal offset
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in _DTYPES:
            raise TypeError(f"cannot checkpoint an array of dtype {arr.dtype}")
        data = _little_endian_bytes(arr)
        nbytes = len(data)
        table.append(
            {
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": nbytes,
                "crc32": zlib.crc32(data),
            }
        )
        buffers.append(data)
        offset += nbytes
        return {_NDARRAY_KEY: len(table) - 1}

    tree = _encode(doc, on_array)
    header = json.dumps(
        {"arrays": table, "doc": tree, "payload_nbytes": offset}, sort_keys=True
    ).encode("utf-8")
    prefix = _PREFIX.pack(CHECKPOINT_MAGIC, len(header), zlib.crc32(header))
    return prefix + header, buffers


class _ShortFile(DataIOError):
    """The file ends before its own prefix/header says it should."""


def _read_header(prefix: bytes, fh, path: Path) -> dict:
    """Validate a v2 file's header given its first ``_PREFIX.size``
    bytes (magic already matched) and the binary handle they came from,
    leaving the handle at the first payload byte.

    Checks, in order: the prefix is whole, the declared header fits in
    the file, the header CRC, the header's JSON structure, and that the
    file is exactly prefix + header + ``payload_nbytes`` long.  No read
    or allocation is sized by a value the file merely claims.
    """
    size = os.fstat(fh.fileno()).st_size
    if len(prefix) != _PREFIX.size:
        raise _ShortFile(f"corrupt audit checkpoint {path}: truncated prefix")
    _, header_len, header_crc = _PREFIX.unpack(prefix)
    if header_len > size - _PREFIX.size:
        raise _ShortFile(
            f"corrupt audit checkpoint {path}: header of {header_len} bytes "
            f"does not fit a {size}-byte file"
        )
    raw = fh.read(header_len)
    if len(raw) != header_len or zlib.crc32(raw) != header_crc:
        raise DataIOError(f"corrupt audit checkpoint {path}: header CRC mismatch")
    try:
        header = json.loads(raw.decode("utf-8"))
        payload_nbytes = header["payload_nbytes"]
        if (
            not isinstance(header["arrays"], list)
            or not isinstance(header["doc"], dict)
            or type(payload_nbytes) is not int
            or payload_nbytes < 0
        ):
            raise TypeError("malformed header")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataIOError(f"corrupt audit checkpoint {path}: {exc}") from exc
    expected = _PREFIX.size + header_len + payload_nbytes
    if expected != size:
        raise (_ShortFile if size < expected else DataIOError)(
            f"corrupt audit checkpoint {path}: file is {size} bytes, its "
            f"header declares {expected}"
        )
    return header


def _check_table(table: list, payload_nbytes: int, path: Path) -> None:
    """Every array entry names a known dtype, a sane shape, and the byte
    range its dtype × shape implies; the ranges tile the payload exactly
    (so every payload byte is under exactly one segment CRC)."""
    cursor = 0
    for i, entry in enumerate(table):
        try:
            dtype = _DTYPES.get(entry["dtype"])
            shape, offset = entry["shape"], entry["offset"]
            nbytes, crc = entry["nbytes"], entry["crc32"]
            ok = (
                dtype is not None
                and isinstance(shape, list)
                and all(type(s) is int and s >= 0 for s in shape)
                and type(offset) is int
                and type(nbytes) is int
                and type(crc) is int
                and offset == cursor
                and nbytes == math.prod(shape) * dtype.itemsize
                and offset + nbytes <= payload_nbytes
            )
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise DataIOError(
                f"corrupt audit checkpoint {path}: array table entry {i} is "
                "malformed or out of bounds"
            )
        cursor += nbytes
    if cursor != payload_nbytes:
        raise DataIOError(
            f"corrupt audit checkpoint {path}: array table covers {cursor} of "
            f"{payload_nbytes} payload bytes"
        )


def _unpack(header: dict, payload: memoryview, path: Path) -> dict:
    """The document of a validated header, arrays materialised from
    ``payload`` (CRC-checked) as native-byte-order copies."""
    table = header["arrays"]
    _check_table(table, len(payload), path)
    segments = []
    for i, entry in enumerate(table):
        data = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        if zlib.crc32(data) != entry["crc32"]:
            raise DataIOError(
                f"corrupt audit checkpoint {path}: CRC mismatch in array "
                f"segment {i}"
            )
        arr = np.frombuffer(data, dtype=_DTYPES[entry["dtype"]])
        arr = arr.reshape(tuple(entry["shape"]))
        segments.append(arr.astype(arr.dtype.newbyteorder("="), copy=True))

    def on_array(node):
        index = node[_NDARRAY_KEY]
        if type(index) is not int or not 0 <= index < len(segments):
            raise ValueError(f"array reference {index!r} out of range")
        return segments[index]

    try:
        return _decode(header["doc"], on_array)
    except ValueError as exc:
        raise DataIOError(f"corrupt audit checkpoint {path}: {exc}") from exc


def _parse_v1(blob: bytes, path: Path, decode) -> dict:
    """A v1 checkpoint: one JSON document (``decode`` turns its base64
    arrays back into ndarrays; ``peek`` passes the identity)."""
    try:
        doc = decode(json.loads(blob.decode("utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataIOError(f"corrupt audit checkpoint {path}: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT_V1:
        raise DataIOError(f"{path} is not an audit checkpoint (format={fmt!r})")
    return doc


class AuditCheckpoint:
    """One audit's checkpoint file with atomic save/load/delete."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, payload: dict) -> None:
        """Atomically replace the checkpoint with ``payload``.

        The temp file lives in the checkpoint's directory so the
        ``os.replace`` stays on one filesystem (a cross-device rename
        would not be atomic).  Array bytes go to the file straight from
        the arrays' own buffers — the transient heap is the small JSON
        header, which is what lets the out-of-core audit checkpoint
        between every chunk under its address-space cap.
        """
        doc = dict(payload)
        doc["format"] = CHECKPOINT_FORMAT
        head, buffers = _pack(doc)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(
                f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            with tmp.open("wb") as fh:
                fh.write(head)
                for data in buffers:
                    fh.write(data)
            os.replace(tmp, self.path)

    def load(self) -> dict | None:
        """The decoded checkpoint, or ``None`` when absent.

        Every check runs before a value is trusted (see the module
        docstring); any failure is a :class:`DataIOError`.
        """
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return None
        with fh:
            prefix = fh.read(_PREFIX.size)
            if not prefix.startswith(CHECKPOINT_MAGIC):
                return _parse_v1(prefix + fh.read(), self.path, decode_state)
            header = _read_header(prefix, fh, self.path)
            payload = fh.read(header["payload_nbytes"])
        return _unpack(header, memoryview(payload), self.path)

    def peek(self) -> dict | None:
        """The document *without* its arrays, or ``None`` when the file
        is absent or ends early (a non-atomic filesystem caught
        mid-replace).

        Reads and CRC-checks the header only — never the array segments
        — so a progress monitor polls ``completed``/``chunks_done``
        without decoding anything.  Arrays appear as their
        ``{"__ndarray__": <table index>}`` placeholders.
        """
        try:
            fh = self.path.open("rb")
        except FileNotFoundError:
            return None
        with fh:
            prefix = fh.read(_PREFIX.size)
            if len(prefix) < len(CHECKPOINT_MAGIC):
                return None
            if not prefix.startswith(CHECKPOINT_MAGIC):
                return _parse_v1(prefix + fh.read(), self.path, lambda doc: doc)
            try:
                header = _read_header(prefix, fh, self.path)
            except _ShortFile:
                return None
        return header["doc"]

    def delete(self) -> None:
        """Remove the checkpoint and any temp file a killed writer of it
        left behind (idempotent)."""
        with self._lock:
            self.path.unlink(missing_ok=True)
            sweep_stale_temps(self.path.parent, self.path.name)


def sweep_stale_temps(directory: str | Path, name_glob: str) -> int:
    """Remove ``.<name>.<pid>.<tid>.tmp`` files killed writers orphaned.

    A SIGKILL between a save's open and its ``os.replace`` leaves the
    temp file (a whole checkpoint's bytes) behind with nothing to claim
    it.  ``name_glob`` matches the checkpoint name(s); temps carrying
    this process's own pid belong to a live writer and are left alone.
    Returns how many were removed.
    """
    own = str(os.getpid())
    removed = 0
    for tmp in Path(directory).glob(f".{name_glob}.*.*.tmp"):
        stem, pid, tid, _ = tmp.name.rsplit(".", 3)
        if (
            not fnmatchcase(stem, f".{name_glob}")  # a longer name's temp
            or not (pid.isdigit() and tid.isdigit())
            or pid == own
        ):
            continue
        tmp.unlink(missing_ok=True)
        removed += 1
    return removed


# -- per-field part files (parallel audit) ---------------------------------
#
# A parallel audit cannot funnel every chunk's state through one file:
# each atomic save rewrites the whole document, so concurrent workers
# would clobber each other.  Instead every worker owns one *part* file —
# an AuditCheckpoint of just its field's progress — in a sibling
# ``<checkpoint>.parts/`` directory, and the coordinator folds the parts
# into the single main checkpoint.  A kill between a worker's save and
# the coordinator's merge therefore loses nothing: resume scans leftover
# parts and they always carry at least the merged snapshot's progress.

#: name pattern of part files inside a parts directory
PART_GLOB = "part-*.json"


def parts_dir_for(checkpoint_path: str | Path) -> Path:
    """The per-field part directory that rides next to a checkpoint."""
    checkpoint_path = Path(checkpoint_path)
    return checkpoint_path.with_name(checkpoint_path.name + ".parts")


def part_path_for(parts_dir: str | Path, key: str) -> Path:
    """One worker-owned part file per audit key (hashed: keys hold '/')."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    return Path(parts_dir) / f"part-{digest}.json"


def field_progress(doc: dict) -> dict:
    """The mid-field resume record inside a checkpoint entry or a worker
    part file (``halo_crc`` is absent from full-state records)."""
    keys = ("key", "chunks_done", "bytes_streamed", "stream", "halo_crc")
    return {k: doc[k] for k in keys if k in doc}


def load_part(path: str | Path) -> dict | None:
    """A part file's document, or ``None`` when it is absent or corrupt.

    A corrupt part costs its field the progress it recorded (the field
    falls back to the main checkpoint's snapshot, or to chunk 0), so it
    is never dropped silently: one ``RuntimeWarning`` names the file and
    the reason.
    """
    try:
        return AuditCheckpoint(path).load()
    except DataIOError as exc:
        warnings.warn(
            f"discarding unreadable audit part file {path}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def remove_parts(parts_dir: str | Path) -> None:
    """Delete a part directory and everything in it — orphaned temp
    files included (idempotent)."""
    shutil.rmtree(parts_dir, ignore_errors=True)
