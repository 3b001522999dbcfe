#!/usr/bin/env python3
"""Alternating A/B of one e2e workload between two source trees.

    python tools/ab_e2e.py PARENT_TREE CHANGE_TREE --workload audit_chunked
                           [--pairs 10] [--seed 7] [--quick]

Runs ``benchmarks/e2e/run.py --workload W --trace 0`` from each tree in a
fresh process, ``--pairs`` times, alternating which side goes first
(``parent change``, ``change parent``, ...), after one discarded run per
side (so both trees hold their ``__pycache__``, where bytecode caching
is on, and the page cache is warm for both).  Prints every run, then per end-to-end metric both
medians, the parent's inter-quartile distance, how many pairs the change
won (ties count for neither) and the verdict of
``benchmarks/e2e/compare.py`` under the bounds of ``BENCHMARK.json``:

``ok``          the change's median is within the bound of the parent's;
``regressed``   it is worse by more than the bound;
``unresolved``  the spread of either side is wider than the bound (and
                not every change run beats every parent run), or there
                is a single pair, which has no spread to judge by.

A gain may be claimed only from ten or more pairs, for a metric the
change won in at least nine tenths of them *and* whose medians differ by
more than the parent's inter-quartile distance; the ``gain`` column says
whether all three hold.

Both trees must be clean copies (``git clone`` / ``git archive`` / ``cp
--parents`` of the tracked files) outside the working repo: the same
files run from a tree with build leftovers read a few percent slower.
Exits 1 when a metric regressed or a larger share of ops failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
import compare  # noqa: E402 — the verdict rule and the BENCHMARK.json path


def run_once(tree: Path, args, out: Path) -> dict:
    """One fresh-process run of the workload from ``tree``."""
    cmd = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "0", "--out", str(out),
    ]
    if args.quick:
        cmd.append("--quick")
    out.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} without a result")
    return json.loads(out.read_text())


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="clean tree of the parent commit")
    parser.add_argument("change", type=Path, help="clean tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="passed to run.py: a quarter of the ops")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads(compare.BENCHMARK.read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_e2e-") as tmp:
        out = Path(tmp) / "run.json"
        for tree in trees.values():
            run_once(tree, args, out)  # discarded warm-up
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args, out))
            cells = "  ".join(
                f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.5g}"
                f"/{runs['change'][-1]['metrics'][m['name']]['value']:.5g}"
                for m in spec
            )
            print(f"pair {pair + 1:>2} ({order[0]} first)  parent/change: {cells}",
                  flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pair(s)"
          f"{', --quick (not comparable with full-length runs)' if args.quick else ''}")
    print(f"{'metric':<16} {'parent med':>12} {'change med':>12} {'change/par':>10} "
          f"{'parent IQR':>11} {'wins':>6}  {'gain':<4} verdict")
    words = []
    for metric in spec:
        name, better = metric["name"], metric["better"]
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        med_a, med_b, ratio, _worse, word = compare.verdict(
            a, b, better, metric["bound"]
        )
        if word == "regressed" and args.pairs < 2:
            word = "unresolved"  # one pair has no spread to judge by
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        gain = (
            args.pairs >= 10
            and wins >= 0.9 * args.pairs
            and sign * (med_b - med_a) < 0
            and abs(med_b - med_a) > iqr(a)
        )
        words.append(word)
        print(f"{name:<16} {med_a:>12.5g} {med_b:>12.5g} {ratio:>9.3f}x "
              f"{iqr(a):>11.3g} {wins:>3}/{args.pairs:<2}  "
              f"{'yes' if gain else 'no':<4} {word}")

    share = {
        side: sum(r["failed"] for r in rs) / max(sum(r["attempted"] for r in rs), 1)
        for side, rs in runs.items()
    }
    print(f"failed share: parent {share['parent']:.4f}, change {share['change']:.4f}")
    print(f"{words.count('ok')} ok, {words.count('regressed')} regressed, "
          f"{words.count('unresolved')} unresolved")
    return 1 if "regressed" in words or share["change"] > share["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
