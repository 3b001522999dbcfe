"""Multi-GPU cuZ-Checker: scaling model and exact pattern-1 merging."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config.defaults import default_config
from repro.config.schema import CheckerConfig
from repro.core.frameworks import CuZC
from repro.engine.plan import build_plan
from repro.errors import ShapeError
from repro.kernels.pattern1 import Pattern1Result, result_from_sums
from repro.multigpu.comm import NvLinkSpec, NVLINK_V100, allreduce_time, halo_exchange_time
from repro.multigpu.partition import partition_z
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["MultiGpuTiming", "MultiGpuCuZC", "merge_pattern1"]


@dataclass(frozen=True)
class MultiGpuTiming:
    """Timing decomposition of one multi-GPU assessment."""

    n_gpus: int
    local_seconds: float
    halo_seconds: float
    allreduce_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.local_seconds + self.halo_seconds + self.allreduce_seconds

    def scaling_efficiency(self, single_gpu_seconds: float) -> float:
        """Strong-scaling efficiency vs a one-GPU run."""
        return single_gpu_seconds / (self.n_gpus * self.total_seconds)


class MultiGpuCuZC:
    """Z-decomposed cuZ-Checker across ``n_gpus`` simulated V100s."""

    def __init__(
        self,
        n_gpus: int,
        config: CheckerConfig | None = None,
        link: NvLinkSpec = NVLINK_V100,
    ):
        if n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")
        self.n_gpus = n_gpus
        self.config = config or default_config()
        self.link = link
        self._cuzc = CuZC()
        # per-rank plan: pattern 1 only, standalone execution so a rank's
        # reductions are bit-identical to a bare single-device pattern-1
        # run whatever the global backend choice is (the merge is tested
        # against that at rel=1e-12)
        self._rank_plan = build_plan(
            replace(self.config, metrics="all", patterns=(1,), auxiliary=False),
            backend="metric-oriented",
        )

    def _halo(self) -> int:
        """One-sided z-halo required by the configured metrics."""
        halo = 0
        if 2 in self.config.patterns:
            halo = max(halo, self.config.pattern2.max_lag, 2)
        if 3 in self.config.patterns:
            halo = max(halo, self.config.pattern3.window - 1)
        return halo

    def estimate(self, shape: tuple[int, int, int]) -> MultiGpuTiming:
        """Modelled execution time of the decomposed assessment."""
        nz, ny, nx = shape
        halo = self._halo()
        parts = partition_z(nz, self.n_gpus, halo)
        plane_bytes = ny * nx * 4 * 2  # both fields
        slowest = 0.0
        worst_halo = 0.0
        for part in parts:
            lo, hi = part.with_halo
            local_shape = (hi - lo, ny, nx)
            t = self._cuzc.estimate(local_shape, self.config).total_seconds
            slowest = max(slowest, t)
            worst_halo = max(
                worst_halo,
                halo_exchange_time(
                    max(part.halo_lo, part.halo_hi) * plane_bytes, self.link
                ),
            )
        # the final merge moves the per-GPU reduction records: a few
        # hundred scalars plus the two PDF histograms
        merge_bytes = 4 * (2 * self.config.pattern1.pdf_bins + 64)
        ar = allreduce_time(merge_bytes, self.n_gpus, self.link)
        return MultiGpuTiming(
            n_gpus=self.n_gpus,
            local_seconds=slowest,
            halo_seconds=worst_halo,
            allreduce_seconds=ar,
        )

    def assess_pattern1(
        self,
        orig: np.ndarray,
        dec: np.ndarray,
        tracer: Tracer | None = None,
    ) -> Pattern1Result:
        """Functional decomposed pattern-1 run with exact merging.

        Each rank reduces its owned planes; the merged result equals a
        single-device run bit-for-bit up to FP summation order (tested).
        With a ``tracer``, each rank records into its own sub-tracer and
        the per-rank traces are merged back with stable ids — one export
        track per rank, every rank's spans hanging off its ``rank<i>``
        span.
        """
        orig = np.asarray(orig)
        dec = np.asarray(dec)
        if orig.shape != dec.shape or orig.ndim != 3:
            raise ShapeError("pattern-1 multi-GPU assessment needs matching 3-D fields")
        tracer = tracer if tracer is not None else NULL_TRACER
        parts = partition_z(orig.shape[0], self.n_gpus, halo=0)
        results = []
        with tracer.span(
            "multigpu.pattern1", category="plan",
            ranks=len(parts), bytes=orig.nbytes + dec.nbytes,
        ):
            for rank, part in enumerate(parts):
                sl = slice(part.z0, part.z1)
                sub = Tracer(enabled=tracer.enabled, clock=tracer._clock)
                with tracer.span(
                    f"rank{rank}", category="rank",
                    rank=rank, z0=part.z0, z1=part.z1,
                ) as rank_span:
                    rank_report = self._rank_plan.execute(
                        orig[sl], dec[sl], tracer=sub
                    )
                if tracer.enabled:
                    tracer.merge(sub, parent=rank_span, track=rank + 1)
                results.append(rank_report.pattern1)
        return merge_pattern1(results)


def merge_pattern1(results: list[Pattern1Result]) -> Pattern1Result:
    """Merge per-rank pattern-1 reductions into the global result.

    PDFs are not merged (their bin ranges are rank-local); the scalar
    metrics merge exactly from the sufficient statistics each rank's
    fused kernel produced.
    """
    if not results:
        raise ValueError("nothing to merge")
    with_pwr = [r for r in results if float(r.extras.get("pwr_count", 0.0)) > 0]
    merged = result_from_sums(
        sum(r.n for r in results),
        min(r.min_err for r in results),
        max(r.max_err for r in results),
        sum(r.avg_err * r.n for r in results),
        sum(r.avg_abs_err * r.n for r in results),
        sum(r.mse * r.n for r in results),
        min(r.min_orig for r in results),
        max(r.max_orig for r in results),
        sum(r.mean_orig * r.n for r in results),
        sum((r.var_orig + r.mean_orig**2) * r.n for r in results),
        min((r.min_pwr_err for r in with_pwr), default=0.0),
        max((r.max_pwr_err for r in with_pwr), default=0.0),
        sum(float(r.extras["sum_pwr"]) for r in with_pwr),
        sum(float(r.extras["pwr_count"]) for r in with_pwr),
        None,
        None,
    )
    merged.extras["merged_ranks"] = len(results)
    return merged
