#!/usr/bin/env python3
"""Layered end-to-end benchmark of the cuZ-Checker reproduction.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload assess_warm --seed 7 --seconds 16 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a shorter pass with the timing wrappers of
``tracing.py`` installed and reports the per-layer metrics.

Without ``--workload`` it runs every workload, both passes, each in a
fresh process, and writes one result set to ``results/``::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7 [--repeats 5] [--quick]

See README.md in this directory for the metric and workload tables.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS pools must be pinned before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
sys.path.insert(0, str(E2E_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
DEFAULT_SEED = 20210921
RESULTS_DIR = E2E_DIR / "results"
RESULT_SCHEMA = "cuzchecker-e2e-result-v1"
SETUP_ROUNDS = 3
clock = time.perf_counter


def scaled_ops(base_ops: int, seconds: float) -> int:
    """Op counts are fixed per run length, so they repeat exactly."""
    return max(1, round(base_ops * seconds / RUN_SECONDS))


def _value(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _collect_failures(wl, runs) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages: list[str] = []
    for timed in runs:
        wl.verify(timed)
        attempted += len(timed.results)
        failed += len(timed.errors)
        for i, msgs in sorted(timed.errors.items()):
            messages += [f"op {i}: {m}" for m in msgs]
    return attempted, failed, messages


def run_untraced(wl, n_ops: int) -> dict:
    from harness import cpu_seconds, median, tail_percentile, tail_value

    wl.setup()
    rounds = [clock() - _T0]  # the first set-up counts from process start
    cpu0 = cpu_seconds(wl.live_pids())
    timed = wl.run_timed(n_ops)
    cpu_s = cpu_seconds(wl.live_pids()) - cpu0
    peak_rss_mb = wl.peak_rss_mb()
    attempted, failed, messages = _collect_failures(wl, [timed])
    # one set-up is noisy (cold imports, first-touch page faults), so it is
    # repeated and the median reported — after the timed ops, so that they
    # run in the state a single set-up leaves behind
    while len(rounds) < SETUP_ROUNDS:
        wl.teardown()
        t0 = clock()
        wl.setup()
        rounds.append(clock() - t0)
    setup_s = median(rounds)
    ok = attempted - failed
    metrics = {
        "setup_s": _value(setup_s, "s"),
        "op_s_p50": _value(median(timed.latencies), "s"),
        "op_s_tail": _value(tail_value(timed.latencies), "s"),
        "throughput_MBps": _value(
            ok * wl.bytes_per_op / timed.busy_s / 1e6, "MB/s"
        ),
        "cpu_s_per_op": _value(cpu_s / attempted, "s"),
        "peak_rss_MB": _value(peak_rss_mb, "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "ops": n_ops,
        "tail_percentile": tail_percentile(n_ops),
    }


def run_traced(wl, n_ops: int, recorder, rebinder) -> dict:
    from harness import median
    from layers import PER_LAYER, SETUP_OP, chosen_layout, derive
    from tracing import chrome_trace, leftover_wrappers

    recorder.op = SETUP_OP
    with rebinder:
        wl.setup()
    pairs = max(2, n_ops // 3)
    plain, traced = wl.run_traced(pairs, rebinder)
    attempted, failed, messages = _collect_failures(
        wl, [plain, traced, *wl.side_runs]
    )
    left = leftover_wrappers()
    if left:
        failed += 1
        messages.append(f"timing wrappers left installed: {left[:5]}")

    values = derive(recorder.spans, len(traced.results), traced.busy_s)
    base = median(plain.latencies)
    values["telemetry.trace_overhead_share"] = (
        (median(traced.latencies) - base) / base if base > 0 else 0.0
    )
    values["bench.failed_share"] = failed / max(attempted, 1)
    values.update(wl.layer_extras())

    RESULTS_DIR.mkdir(exist_ok=True)
    chrome_trace(
        recorder.spans,
        RESULTS_DIR / f"trace-{wl.name}.json",
        f"e2e {wl.name} seed {wl.seed}",
    )
    metrics = {
        name: _value(values.get(name, 0.0), unit) for name, unit, _ in PER_LAYER
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "ops": len(traced.results),
        "layout": chosen_layout(recorder.spans),
        "spans": len(recorder.spans),
    }


def run_one(args) -> int:
    """One workload, one pass — the command ``BENCHMARK.json`` names."""
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {REPO_ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    from harness import WorkDir, host_info
    from layers import TARGETS
    from tracing import Recorder, Rebinder
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    n_ops = scaled_ops(cls.base_ops, args.seconds)
    recorder = rebinder = None
    if args.trace:
        recorder = Recorder()
        rebinder = Rebinder(recorder, TARGETS)
    with WorkDir() as work:
        wl = cls(args.seed, work.path, recorder)
        try:
            if args.trace:
                doc = run_traced(wl, n_ops, recorder, rebinder)
            else:
                doc = run_untraced(wl, n_ops)
        finally:
            if rebinder is not None:
                rebinder.uninstall()
            wl.teardown()
            _release_repro_state()

    doc.update(
        schema=RESULT_SCHEMA,
        workload=wl.name,
        load=wl.load,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        comparable=args.seconds == RUN_SECONDS,
        correct=doc["failed"] == 0,
        host=host_info(),
    )
    _print_run(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": doc["correct"],
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": doc["metrics"],
            }
        )
    )
    return 0 if doc["correct"] else 1


def _release_repro_state() -> None:
    """No pool worker or shared-memory segment outlives a run (the
    workloads use serial executors, so this is a guard, not a habit)."""
    executor = sys.modules.get("repro.parallel.executor")
    if executor is not None:
        executor.shutdown_pools(wait=True)
    shm = sys.modules.get("repro.parallel.shm")
    if shm is not None and shm.active_segment_count():
        print(f"warning: {shm.active_segment_count()} shm segment(s) still "
              "registered at exit", file=sys.stderr)


def _print_run(doc: dict) -> None:
    head = (
        f"{doc['workload']} ({doc['load']}): seed {doc['seed']}, "
        f"{doc['ops']} {'traced ' if doc['trace'] else ''}ops"
    )
    if not doc["trace"]:
        pct = doc["tail_percentile"]
        label = "max, <11 samples" if pct >= 100.0 else f"p{pct:.4g}"
        head += f", op_s_tail is {label}"
    else:
        head += f", dispatch chose {doc['layout']}, {doc['spans']} spans"
    if not doc["comparable"]:
        head += "  [shortened run: NOT comparable with full-length results]"
    print(head)
    for name, m in doc["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for message in doc["messages"][:10]:
        print(f"  FAILED {message}")


# ---------------------------------------------------------------------------
# every workload, both passes
# ---------------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")  # drop the JSON line
    if not out.exists():
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} without a result")
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def run_all(args) -> int:
    from harness import git_commit, host_info
    from workloads import WORKLOADS

    RESULTS_DIR.mkdir(exist_ok=True)
    scratch = RESULTS_DIR / f".run-{os.getpid()}.json"
    t0 = clock()
    result = {
        "schema": RESULT_SCHEMA,
        "git_commit": git_commit(),
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "comparable": args.seconds == RUN_SECONDS,
        "repeats": args.repeats,
        "workloads": {},
    }
    correct = True
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for name, cls in WORKLOADS.items():
        runs = [
            _spawn(name, args.seed, args.seconds, 0, scratch)
            for _ in range(args.repeats)
        ]
        traced = _spawn(name, args.seed, args.seconds, 1, scratch)
        correct = correct and traced["correct"] and all(r["correct"] for r in runs)
        result["workloads"][name] = {
            "why": whys[name],
            "load": cls.load,
            "ops": runs[0]["ops"],
            "tail_percentile": runs[0]["tail_percentile"],
            "traced_ops": traced["ops"],
            "layout": traced["layout"],
            "end_to_end": [
                {k: m["value"] for k, m in r["metrics"].items()} for r in runs
            ],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "messages": [m for r in (*runs, traced) for m in r["messages"]],
        }
    result["wall_s"] = clock() - t0
    out = Path(args.out) if args.out else RESULTS_DIR / f"e2e-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"\n{len(WORKLOADS)} workloads x ({args.repeats} untraced + 1 traced) "
          f"in {result['wall_s']:.1f} s -> {out}")
    if not result["comparable"]:
        print("shortened run: NOT comparable with full-length results")
    if not correct:
        print("FAILED: at least one op failed or disagreed with the oracle")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload, one pass (default: all, both passes)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="run length the op counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a quarter of the ops, same field sizes; "
                        "labelled as not comparable")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run test_selfcheck.py and exit")
    args = parser.parse_args(argv)
    if args.selfcheck:
        import pytest

        return int(pytest.main(["-q", str(E2E_DIR / "test_selfcheck.py")]))
    if args.quick:
        args.seconds = RUN_SECONDS / 4
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
