"""Command-line front end: ``cuzchecker`` / ``python -m repro``.

Subcommands
-----------

``analyze``      assess an original/decompressed raw-binary pair
``assess``       compress a synthetic field with a codec and assess it
``audit``        resumable out-of-core assessment of a bundle tree
``check``        assess + acceptance criteria (exit code for CI gates)
``estimate``     predict SZ compression ratio without compressing
``explain``      print the execution plan for a metric selection
``generate``     synthesise a dataset bundle on disk
``table1``       print the pattern classification (paper Table I)
``table2``       print the runtime profile (paper Table II)
``profile``      run an assessment under the telemetry tracer and export profiles
``serve``        run the resident assessment server (HTTP/JSON, warm caches)
``speedups``     print modelled speedups (paper Figs. 10/12)
``throughput``   print modelled throughputs (paper Fig. 11)
``trace``        export a chrome://tracing timeline of a kernel plan

Every assessment subcommand routes through one
:class:`~repro.service.session.CheckerSession`, the same warm-state
service layer the server runs on — the CLI is a one-job session.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuzchecker",
        description="cuZ-Checker reproduction: GPU-model-based lossy "
        "compression assessment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="assess an original/decompressed pair")
    p.add_argument("original", help="raw float32 binary of the original data")
    p.add_argument("decompressed", help="raw float32 binary of the decompressed data")
    p.add_argument("--shape", required=True, help="z,y,x extents, e.g. 100,500,500")
    p.add_argument("--config", help="Z-checker-style .cfg file")
    p.add_argument("--metrics", help='metric subset, e.g. "psnr,ssim" (default: all)')
    p.add_argument("--backend", help="execution backend: fused-host|metric-oriented|gpusim")
    p.add_argument("--tiling", help="fused-host tiling: auto|off|<slab depth>")
    p.add_argument("--executor",
                   help="parallel executor: auto|serial|thread|process")
    p.add_argument("--calibration",
                   help="dispatch calibration table: auto|off|<path>")
    p.add_argument("--json", dest="json_out", help="also write the report as JSON")
    p.add_argument("--dat-dir", help="also export PDFs/autocorrelation as .dat")
    p.add_argument("--html", dest="html_out",
                   help="also write a self-contained HTML report")

    p = sub.add_parser("assess", help="compress a synthetic field and assess it")
    p.add_argument("--dataset", default="miranda", help="hurricane|nyx|scale_letkf|miranda")
    p.add_argument("--field", default=None, help="field name (default: first)")
    p.add_argument("--scale", type=float, default=0.125, help="shape scale factor")
    p.add_argument("--codec", default="sz", help="sz|zfp|uniform_quant|decimate")
    p.add_argument("--rel-bound", type=float, default=1e-3)
    p.add_argument("--rate", type=float, default=8.0, help="zfp bits/value")
    p.add_argument("--metrics", help='metric subset, e.g. "psnr,ssim" (default: all)')
    p.add_argument("--backend", help="execution backend: fused-host|metric-oriented|gpusim")
    p.add_argument("--tiling", help="fused-host tiling: auto|off|<slab depth>")
    p.add_argument("--executor",
                   help="parallel executor: auto|serial|thread|process")
    p.add_argument("--calibration",
                   help="dispatch calibration table: auto|off|<path>")

    p = sub.add_parser(
        "explain",
        help="print the execution plan a metric selection compiles to",
    )
    p.add_argument("--config", help="Z-checker-style .cfg file")
    p.add_argument("--metrics", help='metric subset, e.g. "psnr,ssim" (default: all)')
    p.add_argument("--backend", help="execution backend: fused-host|metric-oriented|gpusim")
    p.add_argument("--tiling", help="fused-host tiling: auto|off|<slab depth>")
    p.add_argument("--executor",
                   help="parallel executor: auto|serial|thread|process")
    p.add_argument("--calibration",
                   help="dispatch calibration table: auto|off|<path>")
    p.add_argument("--shape", default=None,
                   help="optional z,y,x extents to add modelled kernel costs "
                        "and the dispatch candidate table")
    p.add_argument("--json", dest="json_out", action="store_true",
                   help="emit the plan (steps, resolved executor, candidate "
                        "costs) as machine-readable JSON")
    p.add_argument("--session", action="store_true",
                   help="also show which warm caches a resident session "
                        "(cuzchecker serve) would reuse for this plan")

    p = sub.add_parser("generate", help="synthesise a dataset bundle")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="bundle directory")
    p.add_argument("--scale", type=float, default=0.125)
    p.add_argument("--fields", type=int, default=None, help="limit field count")
    p.add_argument("--chunk", type=int, default=None, metavar="NZ",
                   help="write a chunked v2 bundle with NZ-slab chunks "
                        "(per-chunk checksums; streamable by `audit`)")
    p.add_argument("--codec", choices=("raw", "zlib", "zstd"), default=None,
                   help="chunk payload codec (needs --chunk): zlib/zstd "
                        "write a compressed v3 bundle (uncompressed "
                        "digests); zstd falls back to zlib when the "
                        "zstandard package is missing")
    p.add_argument("--dtype", choices=("float32", "float64"), default=None,
                   help="on-disk dtype (default: the fields' own dtype)")

    p = sub.add_parser(
        "audit",
        help="walk a directory tree of bundles and assess every field "
        "chunk-by-chunk with checkpoint/resume (bounded memory)",
    )
    p.add_argument("root", help="directory tree containing bundle directories")
    p.add_argument("--out", default=None,
                   help="final JSON report (default <root>/audit_report.json)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file, replaced atomically after every "
                        "chunk (default <root>/.audit_checkpoint.json; one "
                        "CRC-checked binary container despite the suffix, and "
                        "a JSON checkpoint left by an older version still "
                        "resumes)")
    p.add_argument("--codec", default="sz",
                   help="chunk-wise codec under assessment: "
                        "sz|zfp|uniform_quant|decimate")
    p.add_argument("--rel-bound", type=float, default=1e-3)
    p.add_argument("--rate", type=float, default=8.0, help="zfp bits/value")
    p.add_argument("--chunk", type=int, default=None, metavar="NZ",
                   help="slab depth for v1 (unchunked) bundles")
    p.add_argument("--max-lag", type=int, default=None,
                   help="autocorrelation lags (default: config pattern2)")
    p.add_argument("--no-ssim", action="store_true",
                   help="skip streaming SSIM even when the manifest has "
                        "the field's value range")
    p.add_argument("--no-verify", action="store_true",
                   help="skip per-chunk checksum verification while reading")
    p.add_argument("--audit-workers", default=None, metavar="N",
                   help="field-parallel worker processes: auto (cost-model "
                        "priced, default), serial, or an explicit count; "
                        "kill/resume and the report bytes are identical "
                        "whatever the count")
    p.add_argument("--fresh", action="store_true",
                   help="ignore and discard an existing checkpoint")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also export the chunk-read spans as a chrome trace")

    sub.add_parser("table1", help="print the metric pattern classification")

    p = sub.add_parser("table2", help="print the Table II runtime profile")
    p.add_argument("--paper-shapes", action="store_true", default=True)

    p = sub.add_parser(
        "profile",
        help="run an assessment under the telemetry tracer and export "
        "a chrome trace, a CSV, and per-kernel/per-metric summaries",
    )
    p.add_argument("original", nargs="?", default=None,
                   help="raw float32 original (omit to profile a synthetic field)")
    p.add_argument("decompressed", nargs="?", default=None,
                   help="raw float32 decompressed (needs --shape)")
    p.add_argument("--shape", help="z,y,x extents of the raw pair")
    p.add_argument("--dataset", default="hurricane",
                   help="synthetic dataset when no file pair is given")
    p.add_argument("--field", default=None, help="field name (default: first)")
    p.add_argument("--scale", type=float, default=0.05, help="shape scale factor")
    p.add_argument("--codec", default="sz",
                   help="codec for the synthetic path: sz|zfp|uniform_quant|decimate")
    p.add_argument("--rel-bound", type=float, default=1e-3)
    p.add_argument("--rate", type=float, default=8.0, help="zfp bits/value")
    p.add_argument("--metrics", help='metric subset, e.g. "psnr,ssim" (default: all)')
    p.add_argument("--backend", help="execution backend: fused-host|metric-oriented|gpusim")
    p.add_argument("--tiling", help="fused-host tiling: auto|off|<slab depth>")
    p.add_argument("--executor",
                   help="parallel executor: auto|serial|thread|process")
    p.add_argument("--calibration",
                   help="dispatch calibration table: auto|off|<path>")
    p.add_argument("--memory", action="store_true",
                   help="also record per-span tracemalloc peaks (slower)")
    p.add_argument("--repeat", type=int, default=1,
                   help="profile this many assessment runs in one trace")
    p.add_argument("--out-dir", default="profile_out",
                   help="directory for trace.json and spans.csv")

    p = sub.add_parser(
        "serve",
        help="run the resident assessment server (asyncio HTTP/JSON with "
        "cross-request warm caches)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 picks a free one and prints it)")
    p.add_argument("--config", help="Z-checker-style .cfg file")
    p.add_argument("--metrics", help='metric subset, e.g. "psnr,ssim" (default: all)')
    p.add_argument("--backend", help="execution backend: fused-host|metric-oriented|gpusim")
    p.add_argument("--tiling", help="fused-host tiling: auto|off|<slab depth>")
    p.add_argument("--executor",
                   help="parallel executor: auto|serial|thread|process")
    p.add_argument("--calibration",
                   help="dispatch calibration table: auto|off|<path>")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission-control bound on queued jobs (429 beyond)")
    p.add_argument("--job-workers", type=int, default=1,
                   help="concurrent assessment jobs (threads on the shared "
                        "session)")

    p = sub.add_parser("speedups", help="print modelled speedups (Figs. 10/12)")
    p.add_argument("--pattern", type=int, choices=(1, 2, 3), default=None,
                   help="per-pattern speedups; omit for overall (Fig. 10)")

    p = sub.add_parser("throughput", help="print modelled throughputs (Fig. 11)")
    p.add_argument("--pattern", type=int, choices=(1, 2, 3), required=True)

    p = sub.add_parser(
        "check",
        help="assess a codec and apply acceptance criteria (exit 1 on fail)",
    )
    p.add_argument("--dataset", default="miranda")
    p.add_argument("--field", default=None)
    p.add_argument("--scale", type=float, default=0.125)
    p.add_argument("--codec", default="sz")
    p.add_argument("--rel-bound", type=float, default=1e-3)
    p.add_argument("--rate", type=float, default=8.0)
    p.add_argument("--preset", choices=("lenient", "strict"), default="strict")
    p.add_argument("--min-psnr", type=float, default=None)
    p.add_argument("--min-ssim", type=float, default=None)

    p = sub.add_parser(
        "estimate",
        help="predict a field's SZ compression ratio without compressing",
    )
    p.add_argument("--dataset", default="miranda")
    p.add_argument("--field", default=None)
    p.add_argument("--scale", type=float, default=0.125)
    p.add_argument("--rel-bound", type=float, action="append",
                   help="repeatable; default 1e-2, 1e-3, 1e-4")
    p.add_argument("--verify", action="store_true",
                   help="also run the real compressor and show the error")

    p = sub.add_parser(
        "trace", help="export a chrome://tracing timeline of a kernel plan"
    )
    p.add_argument("--framework", choices=("cuZC", "moZC"), default="cuZC")
    p.add_argument("--pattern", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--dataset", default="hurricane")
    p.add_argument("--out", required=True, help="trace JSON path")

    return parser


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = tuple(int(tok) for tok in text.replace("x", ",").split(",") if tok)
    if len(parts) != 3:
        raise SystemExit(f"--shape needs three extents, got {text!r}")
    return parts  # type: ignore[return-value]


def _apply_overrides(
    config,
    metrics: str | None,
    backend: str | None,
    tiling: str | None = None,
    executor: str | None = None,
    calibration: str | None = None,
):
    """Overlay ``--metrics``/``--backend``/``--tiling``/``--executor``/
    ``--calibration``."""
    from dataclasses import replace

    from repro.config.defaults import default_config

    config = config or default_config()
    if metrics:
        text = metrics.strip()
        selection: tuple[str, ...] | str
        if text.lower() == "all":
            selection = "all"
        else:
            selection = tuple(t.strip() for t in text.split(",") if t.strip())
        config = replace(config, metrics=selection)
    if backend:
        config = replace(config, backend=backend)
    if tiling:
        text = tiling.strip().lower()
        if text in ("auto", "off"):
            config = replace(config, tiling=text)
        else:
            try:
                config = replace(config, tiling=int(text))
            except ValueError:
                raise SystemExit(
                    f"--tiling must be auto, off or a slab depth, got {tiling!r}"
                ) from None
    if executor:
        text = executor.strip().lower()
        if text not in ("auto", "serial", "thread", "process"):
            raise SystemExit(
                f"--executor must be auto, serial, thread or process, "
                f"got {executor!r}"
            )
        config = replace(config, executor=text)
    if calibration:
        config = replace(config, calibration=calibration.strip())
    return config


def _cmd_analyze(args) -> int:
    from repro.config.parser import load_config
    from repro.core.output import report_to_text, write_report_dats, write_report_json
    from repro.io.raw import read_raw
    from repro.service.session import CheckerSession

    shape = _parse_shape(args.shape)
    orig = read_raw(args.original, shape)
    dec = read_raw(args.decompressed, shape)
    config = load_config(args.config) if args.config else None
    config = _apply_overrides(config, args.metrics, args.backend, args.tiling,
                              args.executor, args.calibration)
    # a one-job session: the CLI shares the server's warm code path
    with CheckerSession(config=config, with_baselines=True) as session:
        report = session.assess(orig, dec)
    print(report_to_text(report))
    if args.json_out:
        write_report_json(report, args.json_out)
        print(f"\nJSON report written to {args.json_out}")
    if args.dat_dir:
        paths = write_report_dats(report, args.dat_dir)
        print(f".dat series written: {', '.join(str(p) for p in paths)}")
    if args.html_out:
        from repro.viz.html import write_report_html

        write_report_html(report, args.html_out)
        print(f"HTML report written to {args.html_out}")
    return 0


def _cmd_assess(args) -> int:
    from repro.compressors.registry import get_compressor
    from repro.core.output import report_to_text
    from repro.datasets.registry import dataset_info, generate_field, scaled_shape
    from repro.service.session import CheckerSession

    info = dataset_info(args.dataset)
    field_name = args.field or info.field_names[0]
    shape = scaled_shape(args.dataset, args.scale)
    field = generate_field(args.dataset, field_name, shape=shape)
    if args.codec == "zfp":
        codec = get_compressor("zfp", rate=args.rate)
    elif args.codec == "decimate":
        codec = get_compressor("decimate")
    else:
        codec = get_compressor(args.codec, rel_bound=args.rel_bound)
    print(
        f"assessing {args.codec} on {args.dataset}/{field_name} "
        f"shape={shape} ..."
    )
    config = _apply_overrides(None, args.metrics, args.backend, args.tiling,
                              args.executor, args.calibration)
    with CheckerSession(config=config) as session:
        report = session.assess_compressor(field.data, codec)
    print(report_to_text(report))
    return 0


def _cmd_explain(args) -> int:
    import json

    from repro.config.parser import load_config
    from repro.engine.plan import build_plan

    config = load_config(args.config) if args.config else None
    config = _apply_overrides(config, args.metrics, args.backend, args.tiling,
                              args.executor, args.calibration)
    shape = _parse_shape(args.shape) if args.shape else None
    plan = build_plan(config, shape=shape)
    if args.json_out:
        payload = plan.to_dict(shape)
        if getattr(args, "session", False):
            from repro.service.session import CheckerSession

            payload["session"] = CheckerSession(config=config).stats()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plan.explain(shape))
        if getattr(args, "session", False):
            from repro.service.session import CheckerSession

            print(CheckerSession(config=config).describe_warm_state(shape))
    return 0


def _cmd_generate(args) -> int:
    from repro.datasets.registry import generate_dataset
    from repro.io.bundle import save_bundle, save_bundle_chunked

    ds = generate_dataset(args.dataset, scale=args.scale, n_fields=args.fields)
    if args.chunk is not None:
        bundle = save_bundle_chunked(
            ds, args.out, chunk_nz=args.chunk, dtype=args.dtype,
            codec=args.codec,
        )
        n_chunks = sum(len(bundle.chunks[f]) for f in bundle.field_names)
        line = (
            f"wrote {len(bundle.field_names)} fields of shape {bundle.shape} "
            f"to {bundle.root} (chunked v{bundle.version}: {n_chunks} chunks "
            f"of {args.chunk} slabs, per-chunk sha256"
        )
        if bundle.codec != "raw":
            raw = sum(
                c.nbytes for f in bundle.field_names for c in bundle.chunks[f]
            )
            stored = sum(
                c.stored for f in bundle.field_names for c in bundle.chunks[f]
            )
            line += (
                f", {bundle.codec}-packed {stored / 1e6:.1f} of "
                f"{raw / 1e6:.1f} MB = {raw / max(stored, 1):.2f}x"
            )
        print(line + ")")
    elif args.codec is not None:
        from repro.errors import CheckerError

        raise CheckerError("--codec requires --chunk (chunked bundles only)")
    else:
        bundle = save_bundle(ds, args.out, dtype=args.dtype)
        print(
            f"wrote {len(bundle.field_names)} fields of shape {bundle.shape} "
            f"to {bundle.root}"
        )
    return 0


def _cmd_audit(args) -> int:
    from repro.audit.runner import run_audit
    from repro.service.session import CheckerSession
    from repro.telemetry import Tracer
    from repro.telemetry.tracer import NULL_TRACER

    if args.codec == "zfp":
        codec_args = {"rate": args.rate}
    elif args.codec == "decimate":
        codec_args = {}
    else:
        codec_args = {"rel_bound": args.rel_bound}
    tracer = Tracer() if args.trace else NULL_TRACER

    def progress(event, payload):
        if event == "resume":
            extra = " mid-field" if payload["mid_field"] else ""
            if payload["discarded_parts"]:
                extra += (
                    f" ({payload['discarded_parts']} corrupt worker part "
                    "file(s) discarded)"
                )
            if payload.get("primed_chunks"):
                extra += f", re-deriving {payload['primed_chunks']} chunk(s) of halo"
            print(
                f"resuming from checkpoint: {payload['completed']} field(s) "
                f"already done{extra}",
                flush=True,
            )
        elif event == "field_done":
            r = payload["result"]
            psnr = r["scalars"].get("psnr")
            ssim = r["ssim"]
            line = (
                f"  {r['bundle']}/{r['field']}: {r['chunks']} chunks, "
                f"{r['bytes_streamed'] / 1e6:.1f} MB"
            )
            if psnr is not None:
                line += f", psnr {psnr:.2f}"
            if ssim is not None:
                line += f", ssim {ssim:.4f}"
            print(line, flush=True)

    with CheckerSession(tracer=tracer) as session:
        report = run_audit(
            args.root,
            out_path=args.out,
            checkpoint_path=args.checkpoint,
            codec=args.codec,
            codec_args=codec_args,
            chunk_nz=args.chunk,
            max_lag=args.max_lag,
            use_ssim=not args.no_ssim,
            verify=not args.no_verify,
            resume=not args.fresh,
            workers=args.audit_workers,
            session=session,
            tracer=tracer,
            progress=progress,
        )
    totals = report["totals"]
    print(
        f"audited {totals['fields']} field(s) in {totals['bundles']} "
        f"bundle(s): {totals['chunks']} chunks, "
        f"{totals['bytes_streamed'] / 1e6:.1f} MB streamed"
    )
    if args.trace:
        from repro.telemetry import write_chrome_trace

        path = write_chrome_trace(
            tracer.spans, args.trace,
            process_name=f"cuzchecker audit: {args.root}",
        )
        print(f"chunk-span trace -> {path}")
    return 0


def _cmd_table1(args) -> int:
    from repro.metrics.base import table1

    for category, metrics in table1().items():
        print(f"{category}:")
        for name in metrics:
            print(f"  {name}")
    return 0


def _cmd_table2(args) -> int:
    from repro.core.profiles import runtime_profile
    from repro.datasets.registry import PAPER_SHAPES
    from repro.viz.ascii import ascii_table

    rows = [r.formatted() for r in runtime_profile(PAPER_SHAPES)]
    print(ascii_table(rows, title="Runtime profile (paper Table II)"))
    return 0


def _cmd_profile(args) -> int:
    import tracemalloc
    from pathlib import Path

    from repro.telemetry import Tracer, summary_tables, write_chrome_trace, write_csv

    tracer = Tracer(trace_memory=args.memory)
    if args.memory:
        tracemalloc.start()
    if args.original is not None:
        if args.decompressed is None or not args.shape:
            raise SystemExit(
                "profile needs either no positionals (synthetic field) or "
                "an original+decompressed raw pair with --shape"
            )
        from repro.io.raw import read_raw
        from repro.service.session import CheckerSession

        shape = _parse_shape(args.shape)
        orig = read_raw(args.original, shape)
        dec = read_raw(args.decompressed, shape)
        config = _apply_overrides(None, args.metrics, args.backend,
                                  args.tiling, args.executor,
                                  args.calibration)
        source = f"{args.original} vs {args.decompressed} {shape}"
        # --repeat under one session shows the warm-path profile: the
        # first job builds the plan, the rest hit the shape memo
        with CheckerSession(config=config) as session:
            for _ in range(max(1, args.repeat)):
                session.assess(orig, dec, tracer=tracer)
    else:
        from repro.compressors.registry import get_compressor
        from repro.datasets.registry import dataset_info, generate_field, scaled_shape
        from repro.service.session import CheckerSession

        info = dataset_info(args.dataset)
        field_name = args.field or info.field_names[0]
        shape = scaled_shape(args.dataset, args.scale)
        field = generate_field(args.dataset, field_name, shape=shape)
        if args.codec == "zfp":
            codec = get_compressor("zfp", rate=args.rate)
        elif args.codec == "decimate":
            codec = get_compressor("decimate")
        else:
            codec = get_compressor(args.codec, rel_bound=args.rel_bound)
        config = _apply_overrides(None, args.metrics, args.backend,
                                  args.tiling, args.executor,
                                  args.calibration)
        source = f"{args.codec} on {args.dataset}/{field_name} {shape}"
        with CheckerSession(config=config) as session:
            for _ in range(max(1, args.repeat)):
                session.assess_compressor(field.data, codec, tracer=tracer)

    if args.memory:
        tracemalloc.stop()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(
        tracer.spans, out_dir / "trace.json", process_name=f"cuzchecker profile: {source}"
    )
    csv_path = write_csv(tracer.spans, out_dir / "spans.csv")
    print(f"profiled {source}")
    print(summary_tables(tracer.spans))
    print(f"\nchrome trace -> {trace_path} (open in chrome://tracing or "
          "https://ui.perfetto.dev)")
    print(f"span CSV     -> {csv_path}")
    return 0


def _cmd_speedups(args) -> int:
    from repro.analysis.speedup import overall_speedups, speedup_table
    from repro.datasets.registry import PAPER_SHAPES
    from repro.viz.ascii import ascii_table

    if args.pattern is None:
        rows = overall_speedups(PAPER_SHAPES)
        title = "Overall speedups (paper Fig. 10)"
    else:
        rows = speedup_table(PAPER_SHAPES, args.pattern)
        title = f"Pattern-{args.pattern} speedups (paper Fig. 12)"
    print(
        ascii_table(
            [
                {
                    "dataset": r.dataset,
                    "baseline": r.baseline,
                    "speedup": f"{r.speedup:.2f}x",
                }
                for r in rows
            ],
            title=title,
        )
    )
    return 0


def _cmd_throughput(args) -> int:
    from repro.analysis.throughput import pattern_throughputs
    from repro.datasets.registry import PAPER_SHAPES
    from repro.viz.ascii import ascii_table

    rows = pattern_throughputs(PAPER_SHAPES, args.pattern)
    unit = "MB/s" if args.pattern == 3 else "GB/s"
    print(
        ascii_table(
            [
                {
                    "framework": r.framework,
                    "dataset": r.dataset,
                    f"throughput [{unit}]": (
                        f"{r.mbps:.1f}" if args.pattern == 3 else f"{r.gbps:.2f}"
                    ),
                }
                for r in rows
            ],
            title=f"Pattern-{args.pattern} throughput (paper Fig. 11)",
        )
    )
    return 0


def _cmd_check(args) -> int:
    from repro.compressors.registry import get_compressor
    from repro.core.acceptance import AcceptanceCriteria
    from repro.datasets.registry import dataset_info, generate_field, scaled_shape
    from repro.service.session import CheckerSession

    info = dataset_info(args.dataset)
    field_name = args.field or info.field_names[0]
    field = generate_field(
        args.dataset, field_name, shape=scaled_shape(args.dataset, args.scale)
    )
    if args.codec == "zfp":
        codec = get_compressor("zfp", rate=args.rate)
    elif args.codec == "decimate":
        codec = get_compressor("decimate")
    else:
        codec = get_compressor(args.codec, rel_bound=args.rel_bound)
    with CheckerSession() as session:
        report = session.assess_compressor(
            field.data, codec, with_baselines=False
        )

    criteria = (
        AcceptanceCriteria.strict()
        if args.preset == "strict"
        else AcceptanceCriteria.lenient()
    )
    from dataclasses import replace as _replace

    if args.min_psnr is not None:
        criteria = _replace(criteria, min_psnr=args.min_psnr)
    if args.min_ssim is not None:
        criteria = _replace(criteria, min_ssim=args.min_ssim)
    verdict = criteria.evaluate(report)
    print(f"codec {args.codec} on {args.dataset}/{field_name}:")
    print(verdict.describe())
    return 0 if verdict.passed else 1


def _cmd_estimate(args) -> int:
    from repro.datasets.registry import dataset_info, generate_field, scaled_shape
    from repro.metrics.compressibility import delta_entropy, estimate_sz_ratio
    from repro.viz.ascii import ascii_table

    info = dataset_info(args.dataset)
    field_name = args.field or info.field_names[0]
    shape = scaled_shape(args.dataset, args.scale)
    field = generate_field(args.dataset, field_name, shape=shape)
    bounds = args.rel_bound or [1e-2, 1e-3, 1e-4]
    rows = []
    for rel in bounds:
        row = {
            "rel bound": f"{rel:g}",
            "delta entropy [b/v]": f"{delta_entropy(field.data, rel_bound=rel):.2f}",
            "predicted ratio": f"{estimate_sz_ratio(field.data, rel_bound=rel):.2f}",
        }
        if args.verify:
            from repro.compressors.sz import SZCompressor

            row["actual ratio"] = f"{SZCompressor(rel_bound=rel).ratio(field.data):.2f}"
        rows.append(row)
    print(
        ascii_table(
            rows,
            title=f"compressibility of {args.dataset}/{field_name} {shape}",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.config.defaults import default_config
    from repro.datasets.registry import PAPER_SHAPES
    from repro.gpusim.trace import write_chrome_trace
    from repro.kernels.metric_oriented import (
        plan_mo_pattern1,
        plan_mo_pattern2,
        plan_mo_pattern3,
    )
    from repro.kernels.pattern1 import plan_pattern1
    from repro.kernels.pattern2 import plan_pattern2
    from repro.kernels.pattern3 import plan_pattern3

    config = default_config()
    shape = PAPER_SHAPES[args.dataset.lower()]
    if args.framework == "cuZC":
        planners = {
            1: lambda: [plan_pattern1(shape, config.pattern1)],
            2: lambda: [plan_pattern2(shape, config.pattern2)],
            3: lambda: [plan_pattern3(shape, config.pattern3)],
        }
    else:
        planners = {
            1: lambda: plan_mo_pattern1(shape, config.pattern1),
            2: lambda: plan_mo_pattern2(shape, config.pattern2),
            3: lambda: plan_mo_pattern3(shape, config.pattern3),
        }
    plans = planners[args.pattern]()
    path = write_chrome_trace(
        plans, args.out,
        process_name=f"{args.framework} pattern-{args.pattern} ({args.dataset})",
    )
    print(f"trace with {len(plans)} kernel plan(s) written to {path}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.config.parser import load_config
    from repro.server.app import AssessmentServer
    from repro.service.session import CheckerSession

    config = load_config(args.config) if args.config else None
    config = _apply_overrides(config, args.metrics, args.backend, args.tiling,
                              args.executor, args.calibration)
    session = CheckerSession(config=config)
    server = AssessmentServer(
        session=session,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        job_workers=args.job_workers,
    )

    async def _run() -> None:
        await server.start()
        # the smoke harness parses this line to discover a --port 0 bind
        print(
            f"session {session.session_id} serving on "
            f"http://{server.host}:{server.port}",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        session.close(wait=True)  # idempotent; covers Ctrl-C mid-accept
    from repro.parallel.shm import active_segment_count

    print(
        f"server stopped cleanly (live shm segments: {active_segment_count()})",
        flush=True,
    )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "assess": _cmd_assess,
    "audit": _cmd_audit,
    "explain": _cmd_explain,
    "generate": _cmd_generate,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "speedups": _cmd_speedups,
    "throughput": _cmd_throughput,
    "check": _cmd_check,
    "estimate": _cmd_estimate,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
