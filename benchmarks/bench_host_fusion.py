"""Wall-clock benchmark of the host-side fused execution engine.

Measures, on real NumPy execution (no modelled costs):

* **fused vs unfused** — ``compare_data`` with the shared
  :class:`~repro.core.workspace.MetricWorkspace` against the historical
  per-consumer scans (``CheckerConfig(backend="metric-oriented")``);
* **parallel batch scaling** — ``parallel_compare_pairs`` at 1/2/4
  workers over a multi-field synthetic dataset (thread pool, and a
  second section for the shared-memory process pool where available);
* **slab parallelism** — ``parallel_stream_field`` on one large field
  (thread and process sections likewise);
* **sliding vs naive SSIM** — the summed-area fast path against the
  explicit per-window oracle;
* **adaptive dispatch** — every static (backend, tiling) candidate vs
  the calibrated cost-model choice (``dispatch`` section; gated to be
  within 5% of the best static by ``tools/check_bench.py``);
* **parallel archive audit** — ``run_audit`` over a tree of zlib-packed
  chunked bundles, serial vs two forced worker processes, with an
  in-bench byte-identity assertion on the two reports
  (``audit_parallel`` section; core-aware gate in ``check_bench.py``).

Appends one entry to the ``runs`` trajectory in ``BENCH_host_fusion.json``
(repo root by default) so successive PRs can track the speedups.  Exits
non-zero if the fused path is slower than the unfused path — the CI gate.

Run: ``PYTHONPATH=src python benchmarks/bench_host_fusion.py [--quick]``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path


def _host_fingerprint() -> dict:
    """Host identity recorded in every section so committed runs and
    calibration tables are attributable to the machine that produced
    them (cores, RAM, python/numpy versions)."""
    from repro.engine.dispatch import host_fingerprint

    return host_fingerprint()


def _best_of(fn, repeats: int) -> float:
    """Best (minimum) wall-clock of ``repeats`` calls — noise-robust."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _make_pair(shape, seed=0, rel_noise=1e-3):
    import numpy as np

    from repro.datasets.registry import generate_field

    orig = generate_field("hurricane", "TCf48", shape=shape, seed=seed).data
    rng = np.random.default_rng(seed + 1)
    amp = float(orig.max() - orig.min()) * rel_noise
    dec = (orig + rng.normal(scale=amp, size=orig.shape)).astype(orig.dtype)
    return orig, dec


def bench_fused(shape, repeats):
    from repro.config.defaults import default_config
    from repro.core.compare import compare_data

    orig, dec = _make_pair(shape)
    fused_cfg = default_config()
    unfused_cfg = replace(default_config(), backend="metric-oriented")
    t_fused = _best_of(
        lambda: compare_data(orig, dec, config=fused_cfg, with_baselines=False),
        repeats,
    )
    t_unfused = _best_of(
        lambda: compare_data(orig, dec, config=unfused_cfg, with_baselines=False),
        repeats,
    )
    return {
        "shape": list(shape),
        "fused_seconds": t_fused,
        "unfused_seconds": t_unfused,
        "speedup": t_unfused / t_fused,
    }


def bench_parallel(shape, n_fields, repeats, executor=None):
    from repro.parallel import parallel_compare_pairs, warm_process_pool

    pairs = [
        (f"field{i}", *_make_pair(shape, seed=10 + i)) for i in range(n_fields)
    ]
    out = {"shape": list(shape), "n_fields": n_fields, "workers": {}}
    if executor:
        out["executor"] = executor
    t1 = None
    for w in (1, 2, 4):
        if executor == "process" and w > 1:
            # spawn + import up front so the timed region is steady-state
            warm_process_pool(w)
        t = _best_of(
            lambda w=w: parallel_compare_pairs(pairs, workers=w, executor=executor),
            repeats,
        )
        t1 = t1 if t1 is not None else t
        out["workers"][str(w)] = {"seconds": t, "speedup_vs_1": t1 / t}
    return out


def bench_slab(shape, repeats, executor=None):
    from repro.parallel import parallel_stream_field, warm_process_pool

    orig, dec = _make_pair(shape, seed=42)
    L = float(orig.max() - orig.min())
    from repro.kernels.pattern3 import Pattern3Config

    cfg = Pattern3Config(dynamic_range=L)
    out = {"shape": list(shape), "workers": {}}
    if executor:
        out["executor"] = executor
    t1 = None
    for w in (1, 2, 4):
        if executor == "process" and w > 1:
            warm_process_pool(w)
        t = _best_of(
            lambda w=w: parallel_stream_field(
                orig, dec, ssim=cfg, workers=w, executor=executor
            ),
            repeats,
        )
        t1 = t1 if t1 is not None else t
        out["workers"][str(w)] = {"seconds": t, "speedup_vs_1": t1 / t}
    return out


def bench_ssim(shape, repeats):
    import math

    from repro.metrics.ssim import SsimConfig, ssim3d, ssim3d_naive

    orig, dec = _make_pair(shape, seed=99)
    cfg = SsimConfig(window=6, step=2)
    # the sliding path is sub-millisecond here — without many repeats its
    # best-of (and so the gated ratio) swings tens of percent run to run
    t_sliding = _best_of(lambda: ssim3d(orig, dec, cfg), max(repeats, 10))
    t_naive = _best_of(lambda: ssim3d_naive(orig, dec, cfg), 2)
    a = ssim3d(orig, dec, cfg).ssim
    b = ssim3d_naive(orig, dec, cfg).ssim
    if not math.isclose(a, b, rel_tol=1e-9):
        raise SystemExit(f"sliding SSIM {a} != naive SSIM {b}")
    return {
        "shape": list(shape),
        "sliding_seconds": t_sliding,
        "naive_seconds": t_naive,
        "speedup": t_naive / t_sliding,
        "ssim": a,
    }


def bench_tiled(shape, repeats, quick):
    """Tiled (cache-blocked) vs whole-array fused path: seconds + peak heap.

    Patterns 1+2 only (the tiled surface; SSIM and the spectral FFT are
    whole-array either way and would just dilute both sides equally).
    Peak memory is tracemalloc's high-water mark over one assessment,
    measured with a cold scratch pool on both sides for fairness.
    """
    import tracemalloc

    from repro.config.defaults import default_config
    from repro.core.compare import compare_data
    from repro.core.workspace import default_scratch_pool

    from repro.engine.tiling import resolve_slab

    orig, dec = _make_pair(shape, seed=7)
    base = replace(default_config(), patterns=(1, 2), auxiliary=False)
    # pin the slab depth explicitly: "auto" now hands layout selection to
    # the adaptive dispatcher, and this section measures the tiled
    # execution engine itself, not the dispatcher's choice.  Quick shapes
    # sit below the "auto" size floor — force a slab there.
    slab = 8 if quick else resolve_slab(shape, "auto", orig.dtype.itemsize)
    tiled_cfg = replace(base, tiling=slab if slab else 8)
    whole_cfg = replace(base, tiling="off")

    def _run(cfg):
        return compare_data(orig, dec, config=cfg, with_baselines=False)

    # the gated quantity is a ratio of two short measurements — extra
    # best-of repeats keep its run-to-run spread inside the gate margin
    repeats = max(repeats, 5)
    t_tiled = _best_of(lambda: _run(tiled_cfg), repeats)
    t_whole = _best_of(lambda: _run(whole_cfg), repeats)

    def _peak(cfg):
        default_scratch_pool().clear()
        tracemalloc.start()
        try:
            _run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_tiled = _peak(tiled_cfg)
    peak_whole = _peak(whole_cfg)
    return {
        "shape": list(shape),
        "tiled_seconds": t_tiled,
        "whole_seconds": t_whole,
        "speedup": t_whole / t_tiled,
        "peak_tiled_mb": peak_tiled / 2**20,
        "peak_whole_mb": peak_whole / 2**20,
        "peak_ratio": peak_tiled / peak_whole,
        # the gate wants bigger-is-better quantities
        "peak_reduction": peak_whole / peak_tiled,
    }


def bench_audit(shape, n_bundles, repeats):
    """Parallel archive audit vs the serial loop over the same tree.

    Builds a throwaway tree of single-field zlib-packed chunked bundles,
    audits it serially and with two forced worker processes (pool warmed
    so the timed region is steady-state), and asserts the two reports
    are byte-identical — the bench doubles as an end-to-end check of the
    coordinator's checkpoint merge.  ``speedup_vs_serial`` is the gated
    quantity (``check_bench.py::audit_gate``): >1x on multi-core hosts,
    an overhead floor on single-core ones.
    """
    import shutil
    import tempfile

    import numpy as np

    from repro.audit import run_audit
    from repro.datasets.fields import Dataset, Field
    from repro.io.bundle import save_bundle_chunked
    from repro.parallel import process_available, warm_process_pool

    root = Path(tempfile.mkdtemp(prefix="cuzchecker_bench_audit_"))
    try:
        rng = np.random.default_rng(2024)
        for i in range(n_bundles):
            ds = Dataset(name=f"bundle{i}", description="bench")
            ds.add(Field(
                f"field{i}",
                (rng.standard_normal(shape) * 50).astype(np.float32),
            ))
            save_bundle_chunked(
                ds, root / f"bundle{i}", chunk_nz=max(shape[0] // 4, 1),
                codec="zlib",
            )
        out = root / "report.json"
        t_serial = _best_of(
            lambda: run_audit(root, out_path=out, workers="serial"), repeats
        )
        serial_bytes = out.read_bytes()
        result = {
            "shape": list(shape),
            "n_bundles": n_bundles,
            "codec": "zlib",
            "serial_seconds": t_serial,
        }
        if process_available():
            warm_process_pool(2)
            t_parallel = _best_of(
                lambda: run_audit(root, out_path=out, workers=2), repeats
            )
            if out.read_bytes() != serial_bytes:
                raise SystemExit(
                    "parallel audit report differs from the serial report"
                )
            result.update(
                workers=2,
                parallel_seconds=t_parallel,
                speedup_vs_serial=t_serial / t_parallel,
            )
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_dispatch(shapes, repeats):
    """Adaptive dispatch vs every static (backend, tiling) candidate.

    Per case: time each static candidate the dispatcher enumerates for
    the shape, fold the traced measured/predicted ratios into a fresh
    calibration table, then build the *adaptive* plan against that table
    and time what it chose.  The gate (``check_bench.py::dispatch_gate``)
    demands the adaptive plan either picked the measured-best candidate
    or landed within 5% of it.
    """
    import tempfile

    from repro.config.defaults import default_config
    from repro.core.compare import compare_data  # noqa: F401 — warm import
    from repro.engine.dispatch import (
        CalibrationTable,
        choose,
        clear_decision_cache,
    )
    from repro.engine.plan import build_plan
    from repro.telemetry.tracer import Tracer, calibration_observations

    fd, tmp = tempfile.mkstemp(prefix="cuzchecker_cal_", suffix=".json")
    os.close(fd)
    table = CalibrationTable.load(tmp)
    base_cfg = replace(default_config(), calibration="off")
    cases = []
    for shape in shapes:
        orig, dec = _make_pair(shape, seed=5)
        itemsize = orig.dtype.itemsize
        # the statics are exactly the candidate set the dispatcher would
        # enumerate uncalibrated for this shape
        candidates = choose(build_plan(base_cfg), shape, itemsize).candidates
        statics = {}
        observations = {}
        for cand in candidates:
            tiling = "off" if cand.slab is None else int(cand.slab)
            cfg = replace(base_cfg, backend=cand.backend, tiling=tiling)
            splan = build_plan(cfg, shape=shape, itemsize=itemsize)
            tracer = Tracer()
            statics[cand.label] = _best_of(
                lambda: splan.execute(orig, dec, tracer=tracer), repeats
            )
            for key, measured, base in calibration_observations(tracer.spans):
                prev = observations.get(key)
                if prev is None or measured < prev[0]:
                    observations[key] = (measured, base)
        for key, (measured, base) in sorted(observations.items()):
            table.fold(key, measured, base)
        table.save(tmp)
        clear_decision_cache()

        adaptive_cfg = replace(base_cfg, calibration=tmp)
        aplan = build_plan(adaptive_cfg, shape=shape, itemsize=itemsize)
        t_adaptive = _best_of(lambda: aplan.execute(orig, dec), repeats)
        chosen = aplan.decision.chosen.label
        best_label = min(statics, key=statics.get)
        best_seconds = statics[best_label]
        cases.append(
            {
                "shape": list(shape),
                "statics": statics,
                "best_static": best_label,
                "best_static_seconds": best_seconds,
                "adaptive_chosen": chosen,
                "adaptive_seconds": t_adaptive,
                "adaptive_vs_best": t_adaptive / best_seconds,
                "matched_best": chosen == best_label,
            }
        )
    os.unlink(tmp)
    return {"cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small shapes, fewer repeats (CI)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_host_fusion.json",
    )
    args = parser.parse_args(argv)

    if args.quick:
        shape, par_shape, slab_shape = (16, 64, 64), (12, 48, 48), (32, 48, 48)
        tiled_shape = (24, 64, 64)
        dispatch_shapes = [(16, 64, 64)]
        n_fields, repeats = 3, 2
    else:
        shape, par_shape, slab_shape = (32, 128, 128), (16, 80, 80), (64, 96, 96)
        tiled_shape = (64, 256, 256)
        # second case sits above the auto-tiling floor so slab candidates
        # join the static sweep
        dispatch_shapes = [(32, 128, 128), (64, 192, 192)]
        n_fields, repeats = 4, 3

    try:
        avail_cores = len(os.sched_getaffinity(0))
    except AttributeError:
        avail_cores = os.cpu_count() or 1

    entry = {
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "avail_cores": avail_cores,
        "fused": bench_fused(shape, repeats),
        "parallel": bench_parallel(par_shape, n_fields, repeats),
        "slab": bench_slab(slab_shape, repeats),
        "ssim": bench_ssim((10, 28, 28), repeats),
        "tiled": bench_tiled(tiled_shape, repeats, args.quick),
        "dispatch": bench_dispatch(dispatch_shapes, repeats),
        "audit_parallel": bench_audit(
            (16, 48, 48) if args.quick else (32, 96, 96),
            n_bundles=4,
            repeats=max(repeats - 1, 1),
        ),
    }

    from repro.parallel import process_available

    if process_available():
        entry["parallel_process"] = bench_parallel(
            par_shape, n_fields, repeats, executor="process"
        )
        entry["slab_process"] = bench_slab(slab_shape, repeats, executor="process")
        # how processes compare to the GIL-bound thread pool on this host,
        # measured in the same run
        for proc_key, thread_key in (
            ("parallel_process", "parallel"), ("slab_process", "slab"),
        ):
            t_thread = entry[thread_key]["workers"]["4"]["seconds"]
            t_proc = entry[proc_key]["workers"]["4"]["seconds"]
            entry[proc_key]["vs_thread_x4"] = t_thread / t_proc

    host = _host_fingerprint()
    for section in entry.values():
        if isinstance(section, dict):
            section["host"] = host

    doc = {"runs": []}
    if args.output.exists():
        try:
            doc = json.loads(args.output.read_text())
        except json.JSONDecodeError:
            pass
    doc.setdefault("runs", []).append(entry)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")

    f = entry["fused"]
    print(
        f"fused {f['fused_seconds']:.3f}s vs unfused {f['unfused_seconds']:.3f}s "
        f"-> {f['speedup']:.2f}x"
    )
    for w, row in entry["parallel"]["workers"].items():
        print(f"parallel x{w}: {row['seconds']:.3f}s ({row['speedup_vs_1']:.2f}x)")
    for key in ("parallel_process", "slab_process"):
        if key not in entry:
            continue
        for w, row in entry[key]["workers"].items():
            print(f"{key} x{w}: {row['seconds']:.3f}s ({row['speedup_vs_1']:.2f}x)")
        print(f"{key} vs thread x4: {entry[key]['vs_thread_x4']:.2f}x "
              f"({entry['avail_cores']} usable cores)")
    s = entry["ssim"]
    print(
        f"ssim sliding {s['sliding_seconds']:.4f}s vs naive "
        f"{s['naive_seconds']:.3f}s -> {s['speedup']:.0f}x"
    )
    t = entry["tiled"]
    print(
        f"tiled {t['tiled_seconds']:.3f}s vs whole {t['whole_seconds']:.3f}s "
        f"-> {t['speedup']:.2f}x; peak {t['peak_tiled_mb']:.1f} MB vs "
        f"{t['peak_whole_mb']:.1f} MB ({t['peak_ratio']:.2f}x)"
    )
    a = entry["audit_parallel"]
    if "parallel_seconds" in a:
        print(
            f"audit serial {a['serial_seconds']:.3f}s vs x{a['workers']} "
            f"{a['parallel_seconds']:.3f}s -> {a['speedup_vs_serial']:.2f}x "
            f"({a['n_bundles']} {a['codec']} bundles)"
        )
    else:
        print(f"audit serial {a['serial_seconds']:.3f}s (process pool unavailable)")
    for case in entry["dispatch"]["cases"]:
        mark = "==" if case["matched_best"] else "~"
        print(
            f"dispatch {tuple(case['shape'])}: adaptive chose "
            f"{case['adaptive_chosen']} ({case['adaptive_seconds']:.3f}s) "
            f"{mark} best static {case['best_static']} "
            f"({case['best_static_seconds']:.3f}s, "
            f"{case['adaptive_vs_best']:.3f}x)"
        )
    print(f"trajectory -> {args.output}")

    if f["speedup"] < 1.0:
        print("FAIL: fused path slower than unfused", file=sys.stderr)
        return 1
    # quick shapes are cache-resident by design — blocking can't win
    # there, so the hard in-run gate applies to the full-size run only
    # (the trajectory gate still tracks the quick ratio against its own
    # quick baseline).  Layout selection is cost-model-driven now — the
    # dispatcher simply never picks the slab layout on hosts where it
    # loses — so the floor only bounds how badly tiling may lose where
    # the memory-constrained committed runs sit near parity (0.83-0.98
    # observed on the 1-core reference container, ±15% run-to-run).
    if not args.quick and t["speedup"] < 0.75:
        print("FAIL: tiled path slower than whole-array", file=sys.stderr)
        return 1
    if case_fail := [
        c for c in entry["dispatch"]["cases"]
        if not c["matched_best"] and c["adaptive_vs_best"] > 1.05
    ]:
        for c in case_fail:
            print(
                f"FAIL: adaptive dispatch {c['adaptive_vs_best']:.3f}x the "
                f"best static on {tuple(c['shape'])}", file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
