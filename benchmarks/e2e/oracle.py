"""Correctness oracle: what every workload's reports must agree with.

The reference values are computed here in plain NumPy — not through
``MetricWorkspace`` or the pattern kernels — so a fast path that drifts
cannot vouch for itself.  Each ``check_*`` returns a list of mismatch
descriptions; an empty list means the report passed.

Tolerances: the program reduces in float64 with its own summation order
(per-slice partials, dot products), NumPy sums pairwise, so values agree
to ~1e-12 relative on these sizes; ``RTOL`` leaves three orders of
margin.  The sliding-sum SSIM against the per-window naive SSIM gets
``SSIM_RTOL``.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

__all__ = [
    "RTOL",
    "SSIM_RTOL",
    "numpy_metrics",
    "check_metrics",
    "check_ssim_crop",
    "check_streamed_ssim_crop",
    "bound_violations",
    "comparable",
    "check_identical",
]

RTOL = 1e-9
SSIM_RTOL = 1e-7
#: the crop the naive SSIM (a Python loop over windows) is affordable on
SSIM_CROP = (12, 40, 40)


def numpy_metrics(orig: np.ndarray, dec: np.ndarray) -> dict[str, float]:
    """``max_err``, ``mse``, ``psnr`` and ``pearson`` from first principles."""
    o = np.asarray(orig, dtype=np.float64)
    d = np.asarray(dec, dtype=np.float64)
    err = d - o
    mse = float(np.mean(err * err))
    value_range = float(o.max() - o.min())
    co = o - o.mean()
    cd = d - d.mean()
    return {
        "max_err": float(err.max()),
        "mse": mse,
        "psnr": 20.0 * math.log10(value_range) - 10.0 * math.log10(mse),
        "pearson": float(
            np.sum(co * cd) / math.sqrt(np.sum(co * co) * np.sum(cd * cd))
        ),
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_metrics(
    reported: dict, orig: np.ndarray, dec: np.ndarray, names=None
) -> list[str]:
    """Compare a report's scalar metrics with :func:`numpy_metrics`."""
    expected = numpy_metrics(orig, dec)
    problems = []
    for name in names or expected:
        got = reported.get(name)
        if got is None or not _close(float(got), expected[name], RTOL):
            problems.append(f"{name}: reported {got!r}, NumPy {expected[name]!r}")
    return problems


def check_ssim_crop(orig: np.ndarray, dec: np.ndarray, config) -> list[str]:
    """The program's SSIM on a 12-slice crop against ``ssim3d_naive``.

    The crop is assessed through the same one-call API the workloads use
    (a fresh checker, so the op's session caches are left alone).
    """
    from repro.core.compare import compare_data
    from repro.metrics.ssim import ssim3d_naive

    cz, cy, cx = SSIM_CROP
    o = np.ascontiguousarray(orig[:cz, :cy, :cx])
    d = np.ascontiguousarray(dec[:cz, :cy, :cx])
    got = compare_data(o, d, config=config, with_baselines=False).scalars()["ssim"]
    want = ssim3d_naive(o, d, config.pattern3.ssim_config).ssim
    if not _close(got, want, SSIM_RTOL):
        return [f"ssim on {SSIM_CROP} crop: program {got!r}, naive {want!r}"]
    return []


def check_streamed_ssim_crop(orig: np.ndarray, dec: np.ndarray, config) -> list[str]:
    """The streamed SSIM (the audit's path: ``StreamingChecker`` fed the
    crop in two chunks) against ``ssim3d_naive`` at the same range."""
    from repro.core.streaming import StreamingChecker
    from repro.metrics.ssim import ssim3d_naive

    cz, cy, cx = SSIM_CROP
    o = np.ascontiguousarray(orig[:cz, :cy, :cx])
    d = np.ascontiguousarray(dec[:cz, :cy, :cx])
    p3 = replace(config.pattern3, dynamic_range=float(o.max() - o.min()))
    checker = StreamingChecker((cy, cx), max_lag=0, ssim=p3)
    checker.update(o[: cz // 2], d[: cz // 2])
    checker.update(o[cz // 2 :], d[cz // 2 :])
    got = checker.finalize().ssim
    want = ssim3d_naive(o, d, p3.ssim_config).ssim
    if not _close(got, want, SSIM_RTOL):
        return [f"streamed ssim on {SSIM_CROP} crop: program {got!r}, naive {want!r}"]
    return []


def bound_violations(orig: np.ndarray, dec: np.ndarray, rel_bound: float) -> int:
    """Elements whose error exceeds the value-range-relative SZ bound."""
    o = np.asarray(orig, dtype=np.float64)
    bound = rel_bound * float(o.max() - o.min())
    return int(np.count_nonzero(np.abs(np.asarray(dec, dtype=np.float64) - o) > bound))


def comparable(report: dict) -> str:
    """Canonical JSON of a report minus what legitimately varies between
    runs: modelled ``timings`` (the CLI adds baselines, the server does
    not) and the wall-clock ``*_throughput`` auxiliaries."""
    slim = {k: v for k, v in report.items() if k != "timings"}
    if isinstance(slim.get("metrics"), dict):
        slim["metrics"] = {
            k: v for k, v in slim["metrics"].items()
            if not k.endswith("_throughput")
        }
    return json.dumps(slim, sort_keys=True)


def check_identical(got: str | bytes, want: str | bytes, what: str) -> list[str]:
    return [] if got == want else [f"{what} differs from the reference"]
