"""The archive-fleet auditor: walk, stream, checkpoint, resume.

``run_audit`` assesses every field of every bundle under a directory
tree with bounded memory:

* bundles are discovered deterministically (sorted manifest paths) and
  fields run in manifest order, so two runs over the same tree do the
  same work in the same order;
* each field streams through
  :meth:`~repro.io.bundle.DatasetBundle.iter_field_chunks` — one z-slab
  chunk resident at a time, verified against its manifest SHA-256 —
  into a :class:`~repro.core.streaming.StreamingChecker` obtained from
  a warm :class:`~repro.service.session.CheckerSession`;
* the decompressed side is produced chunk-wise by an error-bounded
  codec (compress + decompress per chunk), which keeps the pipeline
  deterministic per chunk and therefore replayable after a kill;
* after every chunk the stream's cursors and partials (not its SSIM
  ring or error-slice carry: a resume re-derives those from the last few
  chunks) land in an :class:`~repro.audit.checkpoint.AuditCheckpoint`
  (atomic replace), so a SIGKILL at any instant loses at most the chunk
  in flight and the resumed report is byte-for-byte identical to an
  uninterrupted run.

With ``workers`` > 1 (or ``"auto"`` on a multicore host) the audit fans
one field per process-pool worker (:mod:`repro.audit.parallel`): each
worker streams its field through its own warm session, checkpointing to
a worker-owned *part* file after every chunk, and the coordinator folds
the parts into the same single atomic checkpoint — so kill/resume, the
checkpoint contract, and the final report bytes are identical to the
serial path whatever the worker count.  ``"auto"`` prices the pool with
the dispatch cost model and stays serial when spin-up would not
amortise (small archives, single-core hosts).

SSIM streams exactly when the bundle manifest carries the field's value
range (v2/v3 bundles record it at write time — the global dynamic range
a mid-stream checker cannot otherwise know); v1 bundles audit without
SSIM rather than paying a second pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.audit.checkpoint import (
    PART_GLOB,
    AuditCheckpoint,
    field_progress,
    load_part,
    parts_dir_for,
    remove_parts,
    sweep_stale_temps,
)
from repro.errors import CheckerError, DataIOError
from repro.io.bundle import load_bundle
from repro.telemetry.tracer import NULL_TRACER

__all__ = [
    "AuditInterrupted",
    "AuditResumeError",
    "REPORT_FORMAT",
    "discover_bundles",
    "resolve_audit_workers",
    "run_audit",
]

REPORT_FORMAT = "cuzchecker-audit-report-v1"


class AuditInterrupted(CheckerError):
    """Raised by the ``stop_after_chunks`` test hook: the deterministic
    stand-in for a SIGKILL, thrown *after* the chunk's checkpoint is on
    disk so tests can resume exactly like a killed process would.  In a
    parallel audit the cap applies per worker (each stops after that
    many chunks of its own field), which keeps the hook deterministic
    whatever the scheduling."""

    def __init__(self, chunks_processed: int):
        self.chunks_processed = chunks_processed
        super().__init__(
            f"audit interrupted after {chunks_processed} chunk(s) (test hook)"
        )


class AuditResumeError(CheckerError):
    """The chunks a checkpoint's SSIM ring and autocorrelation carry are
    re-derived from no longer reproduce the bytes it recorded (archive or
    codec changed, codec not deterministic) or do not span them; nothing
    was written."""


def discover_bundles(root: str | Path) -> list[Path]:
    """Bundle directories under ``root``, sorted by relative path."""
    root = Path(root)
    if not root.is_dir():
        raise DataIOError(f"audit root {root} is not a directory")
    found = sorted(p.parent for p in root.rglob("manifest.json"))
    if not found:
        raise DataIOError(f"no bundles (manifest.json) found under {root}")
    return found


def _codec_for(codec: str, codec_args: dict | None):
    from repro.compressors.registry import get_compressor

    return get_compressor(codec, **(codec_args or {}))


def _fingerprint(
    root: Path,
    bundles: list[Path],
    codec: str,
    codec_args: dict,
    chunk_nz: int | None,
    max_lag: int,
    use_ssim: bool,
) -> dict:
    """Everything the resumed run must agree on with the killed run.

    Deliberately excludes the worker count: a serial run may resume a
    killed parallel one (and vice versa) because both maintain the same
    checkpoint contract.
    """
    listing = []
    for path in bundles:
        b = load_bundle(path)
        listing.append(
            {
                "rel": path.relative_to(root).as_posix(),
                "name": b.name,
                "shape": list(b.shape),
                "dtype": b.dtype,
                "version": b.version,
                "fields": list(b.field_names),
            }
        )
    return {
        "codec": codec,
        "codec_args": json.loads(json.dumps(codec_args, sort_keys=True)),
        "chunk_nz": chunk_nz,
        "max_lag": max_lag,
        "use_ssim": use_ssim,
        "bundles": listing,
    }


def _fingerprint_sha(fingerprint: dict) -> str:
    """Short digest stamped on part files (the full fingerprint lives in
    the main checkpoint only)."""
    blob = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_report_atomic(report: dict, out_path: Path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_name(
        f".{out_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    tmp.write_text(text)
    os.replace(tmp, out_path)


def resolve_audit_workers(
    workers: int | str | None,
    n_pending: int,
    field_nbytes: int,
    chunk_nbytes: int,
) -> int:
    """How many audit workers to actually run.

    ``"auto"`` (or ``None``) consults the host — processes must be
    available and the :func:`~repro.parallel.executor.auto_workers`
    core/RAM cap (clamped by *field* bytes: chunks stream, but each
    worker's spectral/SSIM accumulators are field-sized) must exceed
    one — then prices every candidate count
    with the dispatch cost model
    (:func:`~repro.engine.dispatch.predict_pool_seconds` over per-field
    task estimates) and keeps the argmin.  An archive too small to
    amortise pool spin-up prices out at 1 and runs the plain serial
    loop.  An explicit integer is honoured even on a single-core host
    (CI forces 2 there to exercise the coordinator), capped only by the
    number of pending fields; ``"serial"`` is 1.
    """
    if isinstance(workers, str):
        if workers == "serial":
            return 1
        if workers != "auto":
            try:
                workers = int(workers)
            except ValueError:
                raise CheckerError(
                    f"audit workers must be 'auto', 'serial', or a positive "
                    f"integer; got {workers!r}"
                ) from None
    if workers is None or workers == "auto":
        if n_pending <= 1:
            return 1
        from repro.parallel.executor import auto_workers, process_available

        if not process_available():
            return 1
        # RAM-clamp by *field* bytes, not chunk bytes: chunks stream,
        # but a worker's spectral/SSIM accumulators are field-sized
        # (measured ~16x the field; EXPERIMENTS.md "worker footprint")
        cap = auto_workers(
            n_pending, executor="process", task_nbytes=field_nbytes
        )
        if cap <= 1:
            return 1
        try:
            from repro.engine.dispatch import (
                estimate_assess_seconds,
                predict_pool_seconds,
            )

            task_s = estimate_assess_seconds(field_nbytes)
            serial_s = n_pending * task_s
            best = min(
                range(1, cap + 1),
                key=lambda w: predict_pool_seconds(
                    n_pending, task_s, w, "process"
                ),
            )
            best_s = predict_pool_seconds(n_pending, task_s, best, "process")
            return best if best > 1 and best_s < serial_s else 1
        except Exception:  # noqa: BLE001 — serial is always a safe answer
            return 1
    workers = int(workers)
    if workers < 1:
        raise CheckerError(f"audit workers must be >= 1, got {workers}")
    return max(1, min(workers, max(1, n_pending)))


def run_audit(
    root: str | Path,
    out_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    codec: str = "sz",
    codec_args: dict | None = None,
    chunk_nz: int | None = None,
    max_lag: int | None = None,
    use_ssim: bool = True,
    verify: bool = True,
    resume: bool = True,
    workers: int | str | None = None,
    session=None,
    tracer=None,
    progress=None,
    stop_after_chunks: int | None = None,
) -> dict:
    """Assess every field under ``root``; resumable, bounded memory.

    Parameters
    ----------
    root:
        Directory tree containing bundle directories (any nesting).
    out_path:
        Final JSON report (default ``<root>/audit_report.json``),
        written atomically; byte-for-byte deterministic for a given
        tree + configuration — *including* the worker count, which is
        what the parallel kill/resume CI job asserts.
    checkpoint_path:
        Checkpoint file (default ``<root>/.audit_checkpoint.json``),
        replaced atomically after every chunk and deleted once the
        report is on disk.  A parallel run adds a sibling
        ``<checkpoint>.parts/`` directory of worker-owned part files,
        removed with the checkpoint.  Temp files a killed earlier run
        orphaned next to either are swept when the audit starts.
    codec / codec_args:
        The chunk-wise compressor under assessment (registry name +
        constructor kwargs).  Compression is applied per chunk, so the
        error structure is chunk-local — documented audit semantics,
        and the property that makes resume exact.
    chunk_nz:
        Slab depth for v1 (unchunked) bundles; v2/v3 bundles always
        stream their manifest chunk table.
    max_lag:
        Autocorrelation lags (default: the session config's
        ``pattern2.max_lag``), clamped per field to fit the plane.
    use_ssim:
        Stream SSIM for fields whose manifest records a value range.
    verify:
        Check per-chunk SHA-256 digests while streaming (v2/v3 bundles).
    resume:
        Continue from an existing checkpoint; ``False`` starts fresh.
    workers:
        ``"auto"`` (default, also read from the session config's
        ``audit_workers``), ``"serial"``, or an explicit count — see
        :func:`resolve_audit_workers`.  Not part of the resume
        fingerprint: a serial run may resume a killed parallel one.
    session:
        A :class:`~repro.service.session.CheckerSession` to run on (one
        is created and closed internally when omitted).
    progress:
        Optional callback ``(event: str, payload: dict)`` for CLI
        progress lines.  The ``"resume"`` event's ``discarded_parts``
        counts worker part files that failed validation (each also
        raised a ``RuntimeWarning``); their fields resume from the main
        checkpoint's snapshot instead.  ``primed_chunks`` (when non-zero)
        counts the chunks re-read to rebuild ring and carry — one
        ``halo_prime`` span each.
    stop_after_chunks:
        Test hook — raise :class:`AuditInterrupted` after this many
        chunks were processed *in this run* (checkpoint already saved).
        Parallel runs apply the cap per worker.
    """
    root = Path(root)
    out_path = Path(out_path) if out_path else root / "audit_report.json"
    checkpoint = AuditCheckpoint(
        checkpoint_path if checkpoint_path else root / ".audit_checkpoint.json"
    )
    parts_dir = parts_dir_for(checkpoint.path)
    if codec_args is None and codec in ("sz", "sz2", "uniform_quant"):
        codec_args = {"rel_bound": 1e-3}
    codec_args = dict(codec_args or {})
    compressor = _codec_for(codec, codec_args)

    own_session = session is None
    if own_session:
        from repro.service.session import CheckerSession

        session = CheckerSession()
        session.open()
    tracer = tracer if tracer is not None else session.tracer
    if tracer is None:
        tracer = NULL_TRACER
    notify = progress or (lambda event, payload: None)

    try:
        bundles = discover_bundles(root)
        cfg = session.config
        lag_default = cfg.pattern2.max_lag if max_lag is None else int(max_lag)
        if workers is None:
            workers = getattr(cfg, "audit_workers", "auto")
        fingerprint = _fingerprint(
            root, bundles, codec, codec_args, chunk_nz, lag_default, use_ssim
        )
        fp_sha = _fingerprint_sha(fingerprint)

        # temp files a SIGKILLed writer orphaned (each a whole checkpoint's
        # bytes) are claimed by nothing else
        sweep_stale_temps(checkpoint.path.parent, checkpoint.path.name)
        sweep_stale_temps(parts_dir, PART_GLOB)

        completed: dict[str, dict] = {}
        in_flight: dict[str, dict] = {}
        if resume:
            snapshot = checkpoint.load()
            if snapshot is not None:
                if snapshot["fingerprint"] != fingerprint:
                    raise CheckerError(
                        f"checkpoint {checkpoint.path} was written by a "
                        "different audit configuration or bundle tree; "
                        "rerun with resume disabled (--fresh) to discard it"
                    )
                completed = {r["key"]: r for r in snapshot["completed"]}
                current = snapshot.get("in_progress")
                if current is not None:
                    in_flight[current["key"]] = current
                for key, state in (snapshot.get("in_flight") or {}).items():
                    in_flight[key] = state
            discarded = _overlay_parts(parts_dir, fp_sha, completed, in_flight)
            if completed or in_flight or discarded:
                payload = {
                    "completed": len(completed),
                    "mid_field": bool(in_flight),
                    "discarded_parts": discarded,
                }
                primed = sum(len(s.get("halo_crc", ())) for s in in_flight.values())
                if primed:
                    payload["primed_chunks"] = primed
                notify("resume", payload)
        else:
            checkpoint.delete()
            remove_parts(parts_dir)

        # deterministic field inventory: (bundle, rel, field, key, chunks)
        inventory = []
        field_nbytes = 0
        chunk_nbytes = 0
        for bundle_path in bundles:
            bundle = load_bundle(bundle_path)
            rel = bundle_path.relative_to(root).as_posix()
            itemsize = 4 if bundle.dtype == "float32" else 8
            nbytes = math.prod(bundle.shape) * itemsize
            for field_name in bundle.field_names:
                key = f"{rel}::{field_name}"
                table = bundle.field_chunks(field_name, chunk_nz)
                inventory.append((bundle, rel, field_name, key, len(table)))
                if key not in completed:
                    field_nbytes = max(field_nbytes, nbytes)
                    chunk_nbytes = max(
                        chunk_nbytes, max(c.nbytes for c in table)
                    )
        pending = [e for e in inventory if e[3] not in completed]
        n_workers = resolve_audit_workers(
            workers, len(pending), field_nbytes, chunk_nbytes
        )

        if n_workers > 1 and len(pending) > 1:
            from repro.audit.parallel import run_parallel_audit

            run_parallel_audit(
                pending=pending,
                workers=n_workers,
                checkpoint=checkpoint,
                parts_dir=parts_dir,
                fingerprint=fingerprint,
                fp_sha=fp_sha,
                completed=completed,
                in_flight=in_flight,
                codec=codec,
                codec_args=codec_args,
                chunk_nz=chunk_nz,
                lag_default=lag_default,
                use_ssim=use_ssim,
                verify=verify,
                config=cfg,
                tracer=tracer,
                notify=notify,
                stop_after_chunks=stop_after_chunks,
            )
        else:
            _run_serial(
                pending,
                compressor,
                session,
                tracer,
                cfg,
                lag_default,
                use_ssim,
                verify,
                chunk_nz,
                checkpoint,
                fingerprint,
                completed,
                in_flight,
                notify,
                stop_after_chunks,
            )

        results = [completed[key] for _, _, _, key, _ in inventory]
        report = {
            "format": REPORT_FORMAT,
            "codec": codec,
            "codec_args": codec_args,
            "chunk_nz": chunk_nz,
            "max_lag": lag_default,
            "use_ssim": use_ssim,
            "fields": results,
            "totals": {
                "bundles": len(bundles),
                "fields": len(results),
                "chunks": sum(r["chunks"] for r in results),
                "bytes_streamed": sum(r["bytes_streamed"] for r in results),
            },
        }
        _write_report_atomic(report, out_path)
        checkpoint.delete()
        remove_parts(parts_dir)
        notify("done", {"out": str(out_path), "totals": report["totals"]})
        return report
    finally:
        if own_session:
            session.close(wait=True)


def _overlay_parts(parts_dir, fp_sha, completed, in_flight) -> int:
    """Fold leftover worker part files into the resume state.

    Parts may be *newer* than the last coordinator merge (a kill can
    land between a worker's save and the merge), so they win over the
    main checkpoint's entries.  Parts from a different fingerprint are
    ignored.  A corrupt part is discarded — warned about by
    :func:`load_part`, removed so its worker starts clean — and its field
    falls back to the main checkpoint's snapshot; returns how many were.
    """
    discarded = 0
    for path in sorted(Path(parts_dir).glob(PART_GLOB)):
        doc = load_part(path)
        if doc is None:
            path.unlink(missing_ok=True)
            discarded += 1
            continue
        if doc.get("fingerprint_sha") != fp_sha:
            continue
        key = doc.get("key")
        if not key or key in completed:
            continue
        if doc.get("done"):
            completed[key] = doc["result"]
            in_flight.pop(key, None)
        else:
            in_flight[key] = field_progress(doc)
    return discarded


def _run_serial(
    pending,
    compressor,
    session,
    tracer,
    cfg,
    lag_default,
    use_ssim,
    verify,
    chunk_nz,
    checkpoint,
    fingerprint,
    completed,
    in_flight,
    notify,
    stop_after_chunks,
):
    """The single-process audit loop: one field at a time, checkpoint
    after every chunk.  ``in_flight`` states not yet consumed (left by a
    killed parallel run) ride along in every save so a later kill keeps
    their progress too."""

    def save_checkpoint(current: dict | None) -> None:
        payload = {
            "fingerprint": fingerprint,
            "completed": list(completed.values()),
            "in_progress": current,
        }
        if in_flight:
            payload["in_flight"] = in_flight
        checkpoint.save(payload)

    processed = 0
    for bundle, rel, field_name, key, n_chunks in pending:
        resume_state = in_flight.pop(key, None)

        def on_chunk(progress):
            nonlocal processed
            save_checkpoint(progress)
            processed += 1
            notify(
                "chunk",
                {
                    "key": key,
                    "chunk": progress["chunks_done"],
                    "of": n_chunks,
                    "bytes": progress["bytes_streamed"],
                },
            )
            if (
                stop_after_chunks is not None
                and processed >= stop_after_chunks
            ):
                raise AuditInterrupted(processed)

        result = _stream_field(
            bundle,
            rel,
            field_name,
            key,
            compressor,
            session,
            tracer,
            cfg,
            lag_default,
            use_ssim,
            verify,
            chunk_nz,
            resume_state,
            on_chunk,
        )
        completed[key] = result
        save_checkpoint(None)
        notify("field_done", {"key": key, "result": result})


def _ssim_config(bundle, field_name, cfg, use_ssim):
    """The streaming SSIM configuration for one field, or ``None``.

    Streaming SSIM needs the global dynamic range up front; only v2/v3
    manifests record it.  Degenerate (constant) fields and fields
    smaller than the window skip SSIM deterministically.
    """
    if not use_ssim:
        return None
    rng = bundle.value_range(field_name)
    if rng is None or rng[1] <= rng[0]:
        return None
    p3 = cfg.pattern3
    if min(bundle.shape) < p3.window:
        return None
    return replace(p3, dynamic_range=rng[1] - rng[0])


def _stream_field(
    bundle,
    rel,
    field_name,
    key,
    compressor,
    session,
    tracer,
    cfg,
    lag_default,
    use_ssim,
    verify,
    chunk_nz,
    resume_state,
    on_chunk,
):
    """Stream one field chunk-by-chunk into a fresh streaming checker.

    The shared core of the serial loop and every parallel worker — the
    same code path on the same bytes is what makes reports byte-identical
    across worker counts.  ``on_chunk(progress)`` runs after every chunk
    update with the field's resume record (checkpointing lives there)
    and may raise :class:`AuditInterrupted`.

    The record holds the stream state *without* its halo plus
    ``[crc32(original), crc32(round trip)]`` of each chunk covering the
    last ``checker.halo`` slices (the contiguous run ending at
    ``chunks_done - 1``).  Resuming replays exactly those chunks (one
    resident at a time) through ``checker.prime``; a CRC mismatch, or a
    run that does not reach back ``halo`` slices, is an
    :class:`AuditResumeError`.  A full-state record (older writers) has
    no ``halo_crc`` and replays nothing; the chunks streamed after such a
    resume are saved full-state too until their CRCs span the halo.
    """
    ny, nx = bundle.shape[1], bundle.shape[2]
    lag = max(0, min(lag_default, min(ny, nx) - 1))
    ssim_cfg = _ssim_config(bundle, field_name, cfg, use_ssim)
    checker = session.open_stream(
        (ny, nx),
        max_lag=lag,
        ssim=ssim_cfg,
        pwr_floor=cfg.pattern1.pwr_floor,
        tracer=tracer,
    )
    chunk_table = bundle.field_chunks(field_name, chunk_nz)
    halo = checker.halo

    def spans_halo(first: int, z_done: int) -> bool:
        """Chunks ``first``.. hold all of the last ``halo`` slices before ``z_done``."""
        if not halo or first == 0:
            return True
        return 0 < first < len(chunk_table) and chunk_table[first].z0 <= z_done - halo

    def resume_error(why: str) -> AuditResumeError:
        return AuditResumeError(
            f"cannot resume {rel}::{field_name}: {why}; rerun with resume "
            "disabled (--fresh) to discard the checkpoint"
        )

    start = 0
    bytes_streamed = 0
    halo_crc: list[list[int]] = []
    if resume_state is not None and resume_state.get("key") == key:
        checker.load_state(resume_state["stream"])
        start = int(resume_state["chunks_done"])
        bytes_streamed = int(resume_state["bytes_streamed"])
        halo_crc = [list(pair) for pair in resume_state.get("halo_crc", ())]
        z_done = sum(c.nz for c in chunk_table[:start])
        if "halo_crc" in resume_state and not spans_halo(start - len(halo_crc), z_done):
            raise resume_error("its checkpoint records too few chunks to re-derive the halo from")
    first = start - len(halo_crc)

    with tracer.span(
        "audit_field",
        category="job",
        bundle=rel,
        field=field_name,
        chunks=len(chunk_table),
        resumed_at=start,
    ) as field_span:
        for info, block in bundle.iter_field_chunks(
            field_name, chunk_nz=chunk_nz, verify=verify, start=first
        ):
            replay = info.index < start
            with tracer.span(
                "halo_prime" if replay else "chunk_read",
                category="chunk",
                bytes=info.nbytes,
                stored_bytes=info.stored,
                bundle=rel,
                field=field_name,
                chunk=info.index,
                z0=info.z0,
            ):
                dec = compressor.decompress(compressor.compress(block))
            crcs = [zlib.crc32(block), zlib.crc32(np.ascontiguousarray(dec))]
            if replay:
                if crcs != halo_crc[info.index - first]:
                    raise resume_error(
                        f"chunk {info.index} no longer reproduces the bytes its "
                        "checkpoint recorded (archive or codec changed, or the "
                        "codec is not deterministic)"
                    )
                checker.prime(info.z0, block, dec)
                continue
            checker.update(block, dec)
            bytes_streamed += info.nbytes
            z_done = info.z0 + info.nz
            if halo:
                # keep the chunks covering the last `halo` slices: the
                # front one goes once its successor reaches back that far
                halo_crc.append(crcs)
                while len(halo_crc) > 1 and spans_halo(info.index + 2 - len(halo_crc), z_done):
                    del halo_crc[0]
            # after a full-state resume the CRC run starts shorter than the
            # halo and could not re-derive it: save the halo until it does
            light = spans_halo(info.index + 1 - len(halo_crc), z_done)
            progress = {
                "key": key,
                "chunks_done": info.index + 1,
                "bytes_streamed": bytes_streamed,
                "stream": checker.state_dict(halo=not light),
            }
            if light:
                progress["halo_crc"] = halo_crc
            on_chunk(progress)
        field_span.attrs["bytes_streamed"] = bytes_streamed

    res = checker.finalize()
    scalars = {k: float(v) for k, v in res.scalars().items()}
    return {
        "key": key,
        "bundle": rel,
        "field": field_name,
        "shape": list(bundle.shape),
        "dtype": bundle.dtype,
        "chunks": len(chunk_table),
        "bytes_streamed": bytes_streamed,
        "scalars": scalars,
        "autocorrelation": (
            [float(v) for v in res.autocorrelation]
            if res.autocorrelation is not None
            else None
        ),
        "ssim": float(res.ssim) if res.ssim is not None else None,
    }
