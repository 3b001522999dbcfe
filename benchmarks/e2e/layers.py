"""The per-layer metric catalogue and the calls that feed it.

Layers are the ``src/repro`` packages.  ``PER_LAYER`` is the single
source of the metric names, units and directions (``BENCHMARK.json``
repeats them; the self-check asserts the two agree).  ``TARGETS`` names
the function, method or property whose spans feed each timing metric.

Timing metrics are **self time in seconds per traced op** (mean over the
traced ops); the metrics in ``SETUP_METRICS`` are the total *inclusive*
seconds of that step during set-up.  ``*_MBps`` metrics divide the
payload bytes of the same spans by their *inclusive* duration.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracing import Span, Target, self_times

__all__ = ["PER_LAYER", "SETUP_METRICS", "TARGETS", "derive"]

# (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    ("datasets.generate_s", "s", "lower"),
    ("io.raw_read_s", "s", "lower"),
    ("io.raw_read_MBps", "MB/s", "higher"),
    ("io.chunk_read_s", "s", "lower"),
    ("io.chunk_read_MBps", "MB/s", "higher"),
    ("io.chunk_decode_s", "s", "lower"),
    ("io.chunk_encode_s", "s", "lower"),
    ("io.chunks", "count", "lower"),
    ("io.stored_ratio", "ratio", "lower"),
    ("io.bundle_write_s", "s", "lower"),
    ("io.bundle_write_MBps", "MB/s", "higher"),
    ("io.verify_bundle_s", "s", "lower"),
    ("compressors.compress_s", "s", "lower"),
    ("compressors.decompress_s", "s", "lower"),
    ("compressors.compress_MBps", "MB/s", "higher"),
    ("compressors.decompress_MBps", "MB/s", "higher"),
    ("compressors.huffman_encode_s", "s", "lower"),
    ("compressors.huffman_decode_s", "s", "lower"),
    ("compressors.huffman_symbols", "count", "lower"),
    ("compressors.predict_quantize_s", "s", "lower"),
    ("compressors.reconstruct_s", "s", "lower"),
    ("compressors.ratio", "ratio", "higher"),
    ("compressors.bound_violations", "count", "lower"),
    ("core.workspace_build_s", "s", "lower"),
    ("core.workspace_bytes", "B", "lower"),
    ("core.report_serialize_s", "s", "lower"),
    ("core.stream_update_s", "s", "lower"),
    ("core.stream_finalize_s", "s", "lower"),
    ("engine.plan_build_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("engine.plan_execute_s", "s", "lower"),
    ("engine.predicted_over_measured", "ratio", "lower"),
    ("engine.tile_accumulate_s", "s", "lower"),
    ("kernels.pattern1_s", "s", "lower"),
    ("kernels.pattern2_s", "s", "lower"),
    ("kernels.pattern3_s", "s", "lower"),
    ("kernels.pattern1_MBps", "MB/s", "higher"),
    ("kernels.pattern2_MBps", "MB/s", "higher"),
    ("kernels.pattern3_MBps", "MB/s", "higher"),
    ("kernels.pattern1_share", "ratio", "lower"),
    ("kernels.pattern2_share", "ratio", "lower"),
    ("kernels.pattern3_share", "ratio", "lower"),
    ("metrics.auxiliary_s", "s", "lower"),
    ("metrics.spectral_s", "s", "lower"),
    ("metrics.autocorrelation_s", "s", "lower"),
    ("service.session_open_s", "s", "lower"),
    ("service.assess_overhead_s", "s", "lower"),
    ("service.plan_cache_hit_ratio", "ratio", "higher"),
    ("service.scratch_pool_bytes", "B", "lower"),
    ("server.startup_s", "s", "lower"),
    ("server.shutdown_s", "s", "lower"),
    ("server.http_post_s", "s", "lower"),
    ("server.queue_wait_s", "s", "lower"),
    ("server.exec_s", "s", "lower"),
    ("server.poll_overhead_s", "s", "lower"),
    ("server.jobs_per_s", "1/s", "higher"),
    ("server.rejected_429", "count", "lower"),
    ("server.rss_MB", "MB", "lower"),
    ("audit.stream_field_s", "s", "lower"),
    ("audit.checkpoint_write_s", "s", "lower"),
    ("audit.checkpoint_bytes", "B", "lower"),
    ("audit.checkpoints", "count", "lower"),
    ("audit.report_write_s", "s", "lower"),
    ("audit.chunks_per_s", "1/s", "higher"),
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_warm_s", "s", "lower"),
    ("cli.cold_penalty_s", "s", "lower"),
    ("telemetry.trace_overhead_share", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.failed_share", "ratio", "lower"),
]

#: metrics measured over the set-up phase instead of per traced op
SETUP_METRICS = frozenset(
    {
        "datasets.generate_s",
        "io.bundle_write_s",
        "io.chunk_encode_s",
        "io.verify_bundle_s",
        "service.session_open_s",
    }
)

SETUP_OP = "setup"


def _result_nbytes(args, kwargs, result):
    return result.nbytes


def _data_arg_nbytes(args, kwargs, result):
    return args[1].nbytes  # (self, data)


def _pair_nbytes(args, kwargs, result):
    return args[0].nbytes + args[1].nbytes  # (orig, dec, ...), computed


def _payload_len(args, kwargs, result):
    return len(result.payload)


def _chunk_nbytes(args, kwargs, item):
    return item[0].nbytes


def _chunk_stored(args, kwargs, item):
    return item[0].stored


def _dataset_nbytes(args, kwargs, result):
    return args[0].nbytes


def _symbol_count(args, kwargs, result):
    return int(args[0].size)


def _prediction(args, kwargs, result):
    decision = getattr(args[0], "decision", None)
    if decision is None:
        return None
    return decision.chosen.label, decision.chosen.total_ms


def _checkpoint_size(args, kwargs, result):
    return os.path.getsize(args[0].path)


def _returned(args, kwargs, result):
    return result


_W = "repro.core.workspace"
_C = "repro.compressors"

TARGETS: list[Target] = [
    Target("datasets.generate_s", "repro.datasets.registry", "generate_field"),
    Target("io.raw_read_s", "repro.io.raw", "read_raw", nbytes=_result_nbytes),
    Target("io.chunk_read_s", "repro.io.bundle", "DatasetBundle.iter_field_chunks",
           nbytes=_chunk_nbytes, note=_chunk_stored),
    Target("io.chunk_decode_s", "repro.io.chunkcodec", "decode_chunk"),
    Target("io.chunk_encode_s", "repro.io.chunkcodec", "encode_chunk"),
    Target("io.bundle_write_s", "repro.io.bundle", "save_bundle_chunked",
           nbytes=_dataset_nbytes),
    Target("io.verify_bundle_s", "repro.io.bundle", "verify_bundle"),
    Target("compressors.compress_s", f"{_C}.sz", "SZCompressor.compress",
           nbytes=_data_arg_nbytes, note=_payload_len),
    Target("compressors.decompress_s", f"{_C}.sz", "SZCompressor.decompress",
           nbytes=_result_nbytes),
    Target("compressors.compress_s", f"{_C}.zfp", "ZFPCompressor.compress",
           nbytes=_data_arg_nbytes, note=_payload_len),
    Target("compressors.decompress_s", f"{_C}.zfp", "ZFPCompressor.decompress",
           nbytes=_result_nbytes),
    Target("compressors.huffman_encode_s", f"{_C}.huffman", "huffman_encode",
           note=_symbol_count),
    Target("compressors.huffman_decode_s", f"{_C}.huffman", "huffman_decode"),
    Target("compressors.predict_quantize_s", f"{_C}.quantizer", "prequantize"),
    Target("compressors.predict_quantize_s", f"{_C}.predictor", "lorenzo_residuals"),
    Target("compressors.reconstruct_s", f"{_C}.predictor", "lorenzo_reconstruct"),
    Target("compressors.reconstruct_s", f"{_C}.quantizer", "dequantize"),
    Target("core.workspace_build_s", _W, "MetricWorkspace.__init__"),
    Target("core.workspace_build_s", _W, "MetricWorkspace.o64"),
    Target("core.workspace_build_s", _W, "MetricWorkspace.d64"),
    Target("core.workspace_build_s", _W, "MetricWorkspace.err"),
    # the engine itself asks for the footprint after each pattern step;
    # noting the answer avoids keeping a workspace alive from here
    Target("core.workspace_build_s", _W, "MetricWorkspace.cached_nbytes",
           note=_returned),
    Target("core.report_serialize_s", "repro.core.report", "AssessmentReport.to_dict"),
    Target("core.stream_update_s", "repro.core.streaming", "StreamingChecker.update"),
    Target("core.stream_finalize_s", "repro.core.streaming", "StreamingChecker.finalize"),
    Target("engine.plan_build_s", "repro.engine.plan", "build_plan"),
    Target("engine.dispatch_s", "repro.engine.dispatch", "choose"),
    Target("engine.plan_execute_s", "repro.engine.plan", "ExecutionPlan.execute",
           note=_prediction),
    Target("engine.tile_accumulate_s", "repro.engine.tiling", "TileAccumulator.add_block"),
    Target("kernels.pattern1_s", "repro.kernels.pattern1", "execute_pattern1",
           nbytes=_pair_nbytes),
    Target("kernels.pattern2_s", "repro.kernels.pattern2", "execute_pattern2",
           nbytes=_pair_nbytes),
    Target("kernels.pattern3_s", "repro.kernels.pattern3", "execute_pattern3",
           nbytes=_pair_nbytes),
    Target("metrics.auxiliary_s", _W, "MetricWorkspace.pearson"),
    Target("metrics.auxiliary_s", _W, "MetricWorkspace.data_properties"),
    Target("metrics.spectral_s", "repro.metrics.spectral", "spectral_comparison"),
    Target("metrics.autocorrelation_s", "repro.kernels.pattern2", "_fused_autocorr"),
    Target("metrics.autocorrelation_s", "repro.engine.tiling",
           "TileAccumulator.finalize_autocorr"),
    Target("service.session_open_s", "repro.service.session", "CheckerSession.open"),
    Target("service.assess_overhead_s", "repro.service.session", "CheckerSession.assess"),
    Target("service.assess_overhead_s", "repro.service.session",
           "CheckerSession.assess_compressor"),
    Target("audit.stream_field_s", "repro.audit.runner", "_stream_field"),
    Target("audit.checkpoint_write_s", "repro.audit.checkpoint", "AuditCheckpoint.save",
           note=_checkpoint_size),
    Target("audit.report_write_s", "repro.audit.runner", "_write_report_atomic"),
]


def _div(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def derive(spans: list[Span], traced_ops: int, op_wall_s: float) -> dict[str, float]:
    """Span-derived per-layer metrics.

    ``traced_ops`` is how many ops ran with the wrappers installed and
    ``op_wall_s`` their summed wall clock; spans whose ``op`` is
    ``"setup"`` feed only the set-up metrics.
    """
    op_self: dict[str, float] = defaultdict(float)
    setup_incl: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    nbytes: dict[str, int] = defaultdict(int)
    by_metric: dict[str, list[Span]] = defaultdict(list)  # op phase only
    root_s = 0.0
    for span, own in zip(spans, self_times(spans)):
        in_setup = span.op == SETUP_OP
        if not in_setup:
            by_metric[span.metric].append(span)
            if span.parent is None:
                root_s += span.duration
        if in_setup != (span.metric in SETUP_METRICS):
            continue  # warm-up work, or a set-up step an op repeats
        if in_setup:
            setup_incl[span.metric] += span.duration
        else:
            op_self[span.metric] += own
        incl[span.metric] += span.duration
        nbytes[span.metric] += span.nbytes

    ops = max(traced_ops, 1)
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            out[name] = (
                setup_incl[name] if name in SETUP_METRICS else op_self[name] / ops
            )
        elif name.endswith("_MBps"):
            source = name[: -len("_MBps")] + "_s"
            out[name] = _div(nbytes[source], incl[source]) / 1e6
    for p in (1, 2, 3):
        out[f"kernels.pattern{p}_share"] = _div(
            op_self[f"kernels.pattern{p}_s"], op_wall_s
        )

    # the generator's last span ends in StopIteration and carries no chunk
    chunks = [s for s in by_metric["io.chunk_read_s"] if s.extra is not None]
    out["io.chunks"] = len(chunks) / ops
    out["io.stored_ratio"] = _div(
        sum(s.extra for s in chunks), sum(s.nbytes for s in chunks)
    )
    out["audit.chunks_per_s"] = _div(len(chunks), op_wall_s)

    compress = by_metric["compressors.compress_s"]
    out["compressors.ratio"] = _div(
        sum(s.nbytes for s in compress), sum(s.extra for s in compress)
    )
    out["compressors.huffman_symbols"] = (
        sum(s.extra for s in by_metric["compressors.huffman_encode_s"]) / ops
    )
    out["core.workspace_bytes"] = max(
        (
            s.extra for s in by_metric["core.workspace_build_s"]
            if isinstance(s.extra, int)
        ),
        default=0,
    )
    saves = by_metric["audit.checkpoint_write_s"]
    out["audit.checkpoints"] = len(saves) / ops
    out["audit.checkpoint_bytes"] = sum(s.extra for s in saves) / ops

    # calibration drift: what the dispatcher predicted for the chosen
    # candidate over what the whole plan execution actually took
    runs = [s for s in by_metric["engine.plan_execute_s"] if s.extra is not None]
    out["engine.predicted_over_measured"] = _div(
        sum(s.extra[1] for s in runs) / 1e3, sum(s.duration for s in runs)
    )
    out["bench.unattributed_share"] = max(0.0, 1.0 - _div(root_s, op_wall_s))
    return out


def chosen_layout(spans: list[Span]) -> str:
    """The dispatcher's ``backend/layout`` label of the traced ops."""
    labels = sorted(
        {
            s.extra[0]
            for s in spans
            if s.metric == "engine.plan_execute_s" and s.extra is not None
        }
    )
    return ",".join(labels) if labels else "none"
