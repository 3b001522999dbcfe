"""Kill/resume smoke test for the resumable archive audit (CI gate).

Builds a small chunked bundle tree, then proves the audit's crash
contract with a *real* SIGKILL:

1. run ``cuzchecker audit`` uninterrupted -> reference report;
2. run it again on a second checkpoint, SIGKILL the process once the
   checkpoint shows progress (at least one chunk committed);
3. resume from the surviving checkpoint;
4. assert the resumed report equals the reference **byte-for-byte**, and
   that the checkpoint was deleted after success.

Exit code 0 on success.  On failure the workdir keeps the checkpoints,
reports, and chunk-span traces for the CI artifact upload.

``--workers`` forwards to ``--audit-workers`` on every run (so CI can
SIGKILL a *parallel* audit and prove the part-file merge resumes it
byte-identically), ``--resume-workers`` overrides it for the resumed run
only (a killed serial audit picked up by two workers), and
``--bundle-codec`` packs the generated tree's chunks with zlib/zstd.
``--max-checkpoint-bytes`` stats the checkpoint and every worker part
file on each poll and fails the run if one ever exceeds the bound — the
checkpoint holds cursors and partials, not the SSIM ring.

Usage::

    PYTHONPATH=src python tools/audit_smoke.py [--workdir audit_work]
        [--workers 2] [--resume-workers 2] [--bundle-codec zlib]
        [--max-checkpoint-bytes 65536]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _audit_cmd(
    root: Path, out: Path, ckpt: Path, trace: Path, workers: str | None = None
) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "audit", str(root),
        "--out", str(out), "--checkpoint", str(ckpt),
        "--codec", "sz", "--rel-bound", "1e-3",
        "--trace", str(trace),
    ]
    if workers is not None:
        cmd += ["--audit-workers", str(workers)]
    return cmd


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env['PYTHONPATH']}" if env.get(
        "PYTHONPATH"
    ) else str(SRC)
    return env


def _use_src() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_tree(root: Path, codec: str | None = None) -> None:
    _use_src()
    from repro.datasets.registry import generate_dataset
    from repro.io.bundle import save_bundle, save_bundle_chunked, verify_bundle

    specs = [
        ("setA/miranda", "miranda", 0.08, 2, 4),
        ("setA/hurricane", "hurricane", 0.07, 2, 3),
        ("setB/nyx", "nyx", 0.06, 1, 4),
    ]
    for rel, dataset, scale, n_fields, chunk_nz in specs:
        ds = generate_dataset(dataset, scale=scale, n_fields=n_fields)
        bundle = save_bundle_chunked(
            ds, root / rel, chunk_nz=chunk_nz, codec=codec
        )
        verify_bundle(bundle)
    # one v1 (unchunked) bundle proves the audit walks mixed generations
    ds = generate_dataset("scale_letkf", scale=0.05, n_fields=1)
    save_bundle(ds, root / "setB/letkf_v1")
    n = len(list(root.rglob("manifest.json")))
    print(f"built {n} bundles under {root}")


def checkpoint_progress(ckpt: Path) -> tuple[int, int]:
    """(completed fields, max chunks done across in-flight fields).

    A serial run carries one ``in_progress`` field; a parallel run's
    coordinator merges the worker part files into an ``in_flight`` map
    on every poll.  Both shapes count as progress here.  Only the
    checkpoint's header is read (``peek``) — this polls every 2 ms.
    """
    _use_src()
    from repro.audit.checkpoint import AuditCheckpoint

    doc = AuditCheckpoint(ckpt).peek()
    if doc is None:
        return (0, 0)  # absent, or mid-replace on some exotic fs
    progress = doc.get("in_progress") or {}
    chunks = int(progress.get("chunks_done", 0))
    for state in (doc.get("in_flight") or {}).values():
        chunks = max(chunks, int(state.get("chunks_done", 0)))
    return (len(doc.get("completed", [])), chunks)


def largest_checkpoint_file(ckpt: Path) -> int:
    """Size of the biggest of the checkpoint and its worker part files
    (0 when none exists; one replaced between listing and stat is the
    next poll's business)."""
    largest = 0
    for path in [ckpt, *ckpt.with_name(ckpt.name + ".parts").glob("part-*.json")]:
        try:
            largest = max(largest, path.stat().st_size)
        except FileNotFoundError:
            pass
    return largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("audit_smoke_work"))
    parser.add_argument(
        "--min-chunks", type=int, default=2,
        help="kill once this many chunks of the in-flight field are "
        "committed (or once any field completed)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument(
        "--workers", default=None,
        help="forwarded to --audit-workers on every audit invocation "
        "(default: the config default, 'auto')",
    )
    parser.add_argument(
        "--resume-workers", default=None,
        help="--audit-workers for the resumed run only (default: --workers)",
    )
    parser.add_argument(
        "--bundle-codec", default=None, choices=("raw", "zlib", "zstd"),
        help="chunk codec for the generated bundle tree (default raw)",
    )
    parser.add_argument(
        "--max-checkpoint-bytes", type=int, default=None,
        help="fail if the checkpoint or any worker part file is ever "
        "larger than this while the killed run is polled",
    )
    args = parser.parse_args(argv)

    work = args.workdir
    work.mkdir(parents=True, exist_ok=True)
    archive = work / "archive"
    if not (archive / "setA/miranda/manifest.json").exists():
        build_tree(archive, codec=args.bundle_codec)

    ref = work / "report_reference.json"
    killed = work / "report_killed.json"
    ck_ref = work / "checkpoint_reference.json"
    ck_kill = work / "checkpoint_killed.json"
    env = _env()

    # 1. uninterrupted reference
    t0 = time.monotonic()
    subprocess.run(
        _audit_cmd(
            archive, ref, ck_ref, work / "trace_reference.json",
            workers=args.workers,
        ),
        env=env, check=True, timeout=args.timeout,
    )
    print(f"reference audit: {time.monotonic() - t0:.1f}s")
    if ck_ref.exists():
        print("FAIL: reference run left its checkpoint behind", file=sys.stderr)
        return 1

    # 2. SIGKILL a second run mid-flight
    proc = subprocess.Popen(
        _audit_cmd(
            archive, killed, ck_kill, work / "trace_killed.json",
            workers=args.workers,
        ),
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + args.timeout
    killed_mid_run = False
    largest = 0
    while time.monotonic() < deadline:
        done_fields, chunks = checkpoint_progress(ck_kill)
        largest = max(largest, largest_checkpoint_file(ck_kill))
        if proc.poll() is not None:
            break  # finished before we could kill it
        if done_fields >= 1 or chunks >= args.min_chunks:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            killed_mid_run = True
            print(
                f"SIGKILLed audit at {done_fields} field(s) done, "
                f"{chunks} chunk(s) into the next"
            )
            break
        time.sleep(0.002)
    if not killed_mid_run:
        print(
            "FAIL: audit finished before the kill threshold was reached — "
            "grow the tree or lower --min-chunks", file=sys.stderr,
        )
        return 1
    if not ck_kill.exists():
        print("FAIL: no checkpoint survived the SIGKILL", file=sys.stderr)
        return 1
    if killed.exists():
        print("FAIL: killed run should not have written a report", file=sys.stderr)
        return 1
    largest = max(largest, largest_checkpoint_file(ck_kill))
    print(f"largest checkpoint/part file seen: {largest} bytes")
    if args.max_checkpoint_bytes is not None and largest > args.max_checkpoint_bytes:
        print(
            f"FAIL: a checkpoint or part file reached {largest} bytes, over "
            f"the {args.max_checkpoint_bytes}-byte bound — is the SSIM ring "
            "or the autocorrelation carry being persisted again?",
            file=sys.stderr,
        )
        return 1

    # 3. resume
    t0 = time.monotonic()
    subprocess.run(
        _audit_cmd(
            archive, killed, ck_kill, work / "trace_resumed.json",
            workers=args.resume_workers or args.workers,
        ),
        env=env, check=True, timeout=args.timeout,
    )
    print(f"resumed audit: {time.monotonic() - t0:.1f}s")

    # 4. byte-for-byte equality + checkpoint cleanup
    if ck_kill.exists():
        print("FAIL: resumed run left its checkpoint behind", file=sys.stderr)
        return 1
    parts = ck_kill.with_name(ck_kill.name + ".parts")
    if parts.exists():
        print(
            "FAIL: resumed run left its worker part files behind",
            file=sys.stderr,
        )
        return 1
    ref_bytes = ref.read_bytes()
    killed_bytes = killed.read_bytes()
    if ref_bytes != killed_bytes:
        print(
            f"FAIL: resumed report differs from the uninterrupted one "
            f"({len(ref_bytes)} vs {len(killed_bytes)} bytes) — see "
            f"{ref} / {killed}", file=sys.stderr,
        )
        return 1
    totals = json.loads(ref_bytes)["totals"]
    print(
        f"PASS: kill/resume report byte-identical to the uninterrupted run "
        f"({totals['fields']} fields, {totals['chunks']} chunks, "
        f"{totals['bytes_streamed']} bytes streamed)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
