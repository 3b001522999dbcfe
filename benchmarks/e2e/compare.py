#!/usr/bin/env python3
"""Compare two result sets of ``run.py`` under the bounds of BENCHMARK.json.

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the candidate.  One row per
(workload, end-to-end metric) gives both medians, the ratio B/A and a
verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side (distance between
                the first and third quartile, as a share of the median)
                is wider than the bound, so the runs cannot tell — unless
                every run of B reads better than every run of A.

A result set with one run per workload has no measurable spread; take
``--repeats 5`` or more when the verdict matters.  Exits 1 on any
``regressed`` row, 0 otherwise (``--strict`` also fails on
``unresolved``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(median A, median B, ratio B/A, worsening share, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a if med_a else float("inf")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not b_always_better:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "ok"
    return med_a, med_b, ratio, worse, word


def load(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    if "workloads" not in doc:
        raise SystemExit(f"{path} is not a run.py result set")
    return doc


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for wl in spec["workloads"]:
        name = wl["name"]
        runs_a = a["workloads"].get(name, {}).get("end_to_end", [])
        runs_b = b["workloads"].get(name, {}).get("end_to_end", [])
        for metric in spec["end_to_end"]:
            xs = [r[metric["name"]] for r in runs_a]
            ys = [r[metric["name"]] for r in runs_b]
            if not xs or not ys:
                rows.append((name, metric["name"], None, None, None, None, "missing"))
                continue
            rows.append(
                (name, metric["name"],
                 *verdict(xs, ys, metric["better"], metric["bound"]))
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result set of the base commit (A)")
    parser.add_argument("candidate", help="result set of the candidate (B)")
    parser.add_argument("--strict", action="store_true",
                        help="also exit 1 on unresolved or missing rows")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    a, b = load(args.base), load(args.candidate)
    for doc, path in ((a, args.base), (b, args.candidate)):
        if not doc.get("comparable", True):
            print(f"warning: {path} is a shortened run, not comparable")
    if a.get("host") != b.get("host"):
        print("warning: the two sets were measured on different hosts")

    rows = compare(a, b, spec)
    print(f"{'workload':<16} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'B/A':>8}  verdict")
    for name, metric, med_a, med_b, ratio, _worse, word in rows:
        if med_a is None:
            print(f"{name:<16} {metric:<16} {'-':>12} {'-':>12} {'-':>8}  {word}")
            continue
        print(f"{name:<16} {metric:<16} {med_a:>12.5g} {med_b:>12.5g} "
              f"{ratio:>7.3f}x  {word}")
    failed_a = sum(sum(w.get("failed", [])) for w in a["workloads"].values())
    failed_b = sum(sum(w.get("failed", [])) for w in b["workloads"].values())
    print(f"failed ops: A {failed_a}, B {failed_b} (any failure is a regression)")

    words = [r[-1] for r in rows]
    bad = words.count("regressed") + (failed_b > 0)
    soft = words.count("unresolved") + words.count("missing")
    print(f"{words.count('ok')} ok, {words.count('regressed')} regressed, "
          f"{soft} unresolved or missing")
    return 1 if bad or (args.strict and soft) else 0


if __name__ == "__main__":
    sys.exit(main())
