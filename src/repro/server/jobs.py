"""Job model, admission control, and fair scheduling for the server.

The server accepts assessment *jobs* — JSON specs naming the data to
assess — and runs them on one shared
:class:`~repro.service.session.CheckerSession`.  This module owns the
parts that need no sockets:

* :class:`Job` — one submission's full lifecycle (queued → running →
  done/failed), its own :class:`~repro.telemetry.tracer.Tracer` (the
  span feed *is* the progress stream; the chrome-trace exporter renders
  it for ``GET /jobs/<id>/trace``), and JSON views;
* :class:`JobQueue` — a bounded admission queue with per-tenant fair
  scheduling: tenants hold FIFO sub-queues and dispatch round-robins
  across tenants, so one flooding client cannot starve the others;
* :func:`execute_job` — the spec interpreter: raw-binary path pairs,
  base64 ``.npy`` uploads, or synthetic dataset+codec runs, all routed
  through the session so every job shares the warm plan/scratch state.
"""

from __future__ import annotations

import base64
import binascii
import io
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckerError
from repro.telemetry.tracer import Tracer

__all__ = ["Job", "JobQueue", "QueueFullError", "execute_job"]


class QueueFullError(CheckerError):
    """Admission control rejected a submission (HTTP 429)."""


@dataclass
class Job:
    """One submitted assessment and everything observable about it."""

    spec: dict
    tenant: str = "default"
    id: str = field(default_factory=lambda: f"job-{secrets.token_hex(6)}")
    status: str = "queued"  # queued | running | done | failed
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    report: object | None = None
    #: per-job tracer — the job's progress feed and trace export
    tracer: Tracer = field(default_factory=Tracer)

    def progress(self) -> dict:
        """Live progress read off the telemetry span feed."""
        spans = list(self.tracer.spans)
        out = {"spans": len(spans)}
        if spans:
            last = spans[-1]
            out["last_span"] = last.name
            out["last_category"] = last.category
        return out

    def to_dict(self, include_report: bool = True) -> dict:
        out = {
            "id": self.id,
            "tenant": self.tenant,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": self.progress(),
        }
        if self.error is not None:
            out["error"] = self.error
        if include_report and self.report is not None:
            out["report"] = self.report.to_dict()
        return out

    def summary(self) -> dict:
        return self.to_dict(include_report=False)


class JobQueue:
    """Bounded admission + per-tenant round-robin dispatch.

    ``submit`` is O(1) and raises :class:`QueueFullError` once
    ``max_pending`` jobs are waiting — the server maps that to HTTP 429
    instead of buffering unboundedly.  ``next_job`` pops the head of the
    next tenant's FIFO and rotates the tenant ring, so each tenant with
    pending work gets every k-th slot regardless of how many jobs any
    single tenant queued.
    """

    def __init__(self, max_pending: int = 64):
        if max_pending < 1:
            raise CheckerError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._queues: dict[str, deque[Job]] = {}
        self._ring: deque[str] = deque()
        self._pending = 0

    def __len__(self) -> int:
        with self._lock:
            return self._pending

    def depths(self) -> dict[str, int]:
        """Pending jobs per tenant (the ``/metrics`` queue view)."""
        with self._lock:
            return {t: len(q) for t, q in self._queues.items() if q}

    def submit(self, job: Job) -> None:
        with self._lock:
            if self._pending >= self.max_pending:
                raise QueueFullError(
                    f"admission queue full ({self.max_pending} pending)"
                )
            q = self._queues.setdefault(job.tenant, deque())
            if job.tenant not in self._ring:
                self._ring.append(job.tenant)
            q.append(job)
            self._pending += 1

    def next_job(self) -> Job | None:
        """Pop the next job fairly, or ``None`` when everything is idle."""
        with self._lock:
            for _ in range(len(self._ring)):
                tenant = self._ring[0]
                self._ring.rotate(-1)
                q = self._queues.get(tenant)
                if q:
                    self._pending -= 1
                    return q.popleft()
            return None


# ---------------------------------------------------------------------------
# spec interpretation
# ---------------------------------------------------------------------------

_SPEC_KINDS = (
    "original_path/decompressed_path (+shape)",
    "original_npy_b64/decompressed_npy_b64",
    "dataset (+codec)",
    "audit_root (+codec/audit_workers)",
)


class _AuditReport:
    """Adapter giving a run_audit dict the ``.to_dict()`` face the job
    serialiser expects from assessment reports."""

    def __init__(self, report: dict):
        self.report = report

    def to_dict(self) -> dict:
        return self.report


def _decode_npy(b64_text: str) -> np.ndarray:
    try:
        if not isinstance(b64_text, str):
            raise ValueError(f"expected a base64 string, got {type(b64_text).__name__}")
        raw = base64.b64decode(b64_text.encode("ascii"), validate=True)
        if not raw.startswith(b"\x93NUMPY"):  # np.load would try zip, then pickle
            raise ValueError("not an .npy file")
        return np.load(io.BytesIO(raw), allow_pickle=False)
    except (ValueError, binascii.Error, EOFError, OSError) as exc:
        raise CheckerError(f"invalid .npy upload: {exc}") from exc


def _job_config(session, spec: dict):
    """Overlay a job's metric/backend/tiling/executor knobs onto the
    session default config (same overlay the CLI flags use)."""
    from repro.cli import _apply_overrides

    if not any(
        spec.get(k)
        for k in ("metrics", "backend", "tiling", "executor", "calibration")
    ):
        return None  # no overrides: share the session's default checker
    return _apply_overrides(
        session.config,
        spec.get("metrics"),
        spec.get("backend"),
        spec.get("tiling"),
        spec.get("executor"),
        spec.get("calibration"),
    )


def _codec_from_spec(spec: dict):
    from repro.compressors.registry import get_compressor

    codec = spec.get("codec", "sz")
    if codec == "zfp":
        return get_compressor("zfp", rate=float(spec.get("rate", 8.0)))
    if codec == "decimate":
        return get_compressor("decimate")
    return get_compressor(codec, rel_bound=float(spec.get("rel_bound", 1e-3)))


def execute_job(session, job: Job):
    """Run one job's spec on the shared session and return its report.

    Three spec kinds are accepted:

    * **path reference** — ``original_path`` + ``decompressed_path`` +
      ``shape`` (+ optional ``dtype``/``endian``): headerless raw pairs
      already on the server's filesystem;
    * **npy upload** — ``original_npy_b64`` + ``decompressed_npy_b64``:
      base64-encoded ``.npy`` payloads carried in the JSON body (once
      decoded, ``job.spec`` keeps only each payload's length);
    * **synthetic** — ``dataset`` (+ ``field``/``scale``/``codec``/
      ``rel_bound``/``rate``): generate a field, compress it with a
      registered codec, and assess the round trip;
    * **archive audit** — ``audit_root`` (+ ``codec``/``rel_bound``/
      ``rate``/``chunk_nz``/``audit_workers``/``use_ssim``/``fresh``/
      ``out_path``/``checkpoint_path``): a resumable
      :meth:`~repro.service.session.CheckerSession.audit_archive` over a
      bundle tree on the server's filesystem; the job report is the
      audit report, and the job's span feed carries the chunk progress.
    """
    spec = job.spec
    config = _job_config(session, spec)

    if "original_path" in spec or "decompressed_path" in spec:
        from repro.io.raw import read_raw

        if not (spec.get("original_path") and spec.get("decompressed_path")):
            raise CheckerError(
                "path jobs need both original_path and decompressed_path"
            )
        shape = spec.get("shape")
        if not shape or len(shape) != 3:
            raise CheckerError("path jobs need a 3-element shape")
        shape = tuple(int(x) for x in shape)
        dtype = spec.get("dtype", "float32")
        endian = spec.get("endian", "little")
        orig = read_raw(spec["original_path"], shape, dtype=dtype, endian=endian)
        dec = read_raw(
            spec["decompressed_path"], shape, dtype=dtype, endian=endian
        )
        return session.assess(
            orig, dec, name=f"job:{job.id}", job_id=job.id,
            config=config, tracer=job.tracer,
        )

    if "original_npy_b64" in spec or "decompressed_npy_b64" in spec:
        if not (
            spec.get("original_npy_b64") and spec.get("decompressed_npy_b64")
        ):
            raise CheckerError(
                "npy jobs need both original_npy_b64 and decompressed_npy_b64"
            )
        try:
            orig = _decode_npy(spec["original_npy_b64"])
            dec = _decode_npy(spec["decompressed_npy_b64"])
        finally:
            # the job table keeps every spec: retain each upload's size,
            # not its base64 text (megabytes per job, decoded or not)
            for key in ("original_npy_b64", "decompressed_npy_b64"):
                if isinstance(spec[key], str):
                    spec[key] = len(spec[key])
        return session.assess(
            orig, dec, name=f"job:{job.id}", job_id=job.id,
            config=config, tracer=job.tracer,
        )

    if "audit_root" in spec:
        codec = spec.get("codec", "sz")
        if codec == "zfp":
            codec_args = {"rate": float(spec.get("rate", 8.0))}
        elif codec == "decimate":
            codec_args = {}
        else:
            codec_args = {"rel_bound": float(spec.get("rel_bound", 1e-3))}
        report = session.audit_archive(
            spec["audit_root"],
            out_path=spec.get("out_path"),
            checkpoint_path=spec.get("checkpoint_path"),
            codec=codec,
            codec_args=codec_args,
            chunk_nz=(
                int(spec["chunk_nz"]) if spec.get("chunk_nz") is not None
                else None
            ),
            use_ssim=bool(spec.get("use_ssim", True)),
            resume=not bool(spec.get("fresh", False)),
            workers=spec.get("audit_workers"),
            tracer=job.tracer,
        )
        return _AuditReport(report)

    if "dataset" in spec:
        from repro.datasets.registry import (
            dataset_info,
            generate_field,
            scaled_shape,
        )

        info = dataset_info(spec["dataset"])
        field_name = spec.get("field") or info.field_names[0]
        shape = scaled_shape(spec["dataset"], float(spec.get("scale", 0.125)))
        data = generate_field(spec["dataset"], field_name, shape=shape)
        return session.assess_compressor(
            data.data, _codec_from_spec(spec),
            name=f"job:{job.id}", job_id=job.id,
            config=config, tracer=job.tracer,
        )

    raise CheckerError(
        "unrecognised job spec; expected one of: " + "; ".join(_SPEC_KINDS)
    )
