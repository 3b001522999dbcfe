"""CuZChecker: the pattern-oriented assessment coordinator.

This is the reproduction of the paper's "GPU module coordinator": it
builds one :class:`~repro.engine.plan.ExecutionPlan` from the requested
metrics — mapping them onto the three computational patterns (Table I)
and wiring the cross-pattern data reuse where the autocorrelation
normalisation consumes the error moments the pattern-1 kernel already
produced — then executes the plan on the configured backend and attaches
the modelled framework timings.

On the fused-host backend, large 3-D fields additionally execute in the
cache-blocked tiled mode (``config.tiling``, see
:mod:`repro.engine.tiling`): z-slabs stream through every selected
pattern-1/2 reduction while cache-hot instead of materialising
whole-array intermediates per metric.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.config.defaults import default_config
from repro.config.schema import CheckerConfig
from repro.core.frameworks import CuZC, FrameworkTiming, MoZC, OmpZC
from repro.core.report import AssessmentReport
from repro.telemetry.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.engine.backends import Backend
    from repro.engine.plan import ExecutionPlan

__all__ = ["CuZChecker"]


class CuZChecker:
    """Pattern-oriented lossy compression assessment (the paper's cuZC).

    Parameters
    ----------
    config:
        Assessment configuration; defaults to the paper's evaluation
        setup (all metrics, autocorr lags ≤ 10, SSIM window 8 step 1).
    with_baselines:
        If true, reports also carry modelled moZC / ompZC timings so that
        speedups can be read directly off each report.
    backend:
        Execution backend override (name or instance); defaults to the
        plan's resolution of ``config.backend``.
    tracer:
        Telemetry tracer every assessment records its span hierarchy
        into; defaults to the disabled no-op tracer.
    """

    def __init__(
        self,
        config: CheckerConfig | None = None,
        with_baselines: bool = False,
        backend: str | Backend | None = None,
        tracer: Tracer | None = None,
    ):
        from repro.engine.plan import build_plan

        self.config = config or default_config()
        # the plan validates the configuration exactly once; batch and
        # parallel drivers reuse this checker instead of re-validating
        self.plan: ExecutionPlan = build_plan(self.config, backend=backend)
        self.with_baselines = with_baselines
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._backend_arg = backend
        # per-shape adaptive plans (dataclasses.replace of self.plan —
        # dispatch never re-validates the already-validated config)
        self._plans: dict[tuple, ExecutionPlan] = {}
        #: warm-state observability: how often the per-shape plan memo
        #: served an assessment without re-running dispatch (a resident
        #: session exports these through ``/metrics``)
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self._cuzc = CuZC()
        self._mozc = MoZC()
        self._ompzc = OmpZC()

    # -- coordinator ------------------------------------------------------

    def needed_patterns(self) -> tuple[int, ...]:
        """Patterns required by the configured metric selection."""
        return self.plan.patterns

    def assess(
        self,
        orig: np.ndarray,
        dec: np.ndarray,
        backend: str | Backend | None = None,
        tracer: Tracer | None = None,
        extras: dict | None = None,
    ) -> AssessmentReport:
        """Run the configured assessment on one data pair.

        The executing plan is re-targeted per input shape by the adaptive
        dispatcher (memoised per shape/dtype); an explicit ``backend``
        argument bypasses dispatch entirely — the caller asked for that
        backend, not for the cheapest one.
        """
        plan = self.plan
        if backend is None:
            arr = np.asarray(orig)
            if arr.ndim == 3:
                key = (arr.shape, arr.dtype.itemsize)
                plan = self._plans.get(key)
                if plan is None:
                    from repro.engine.dispatch import dispatch_plan

                    pinned = None
                    if self._backend_arg is not None or self.config.backend:
                        pinned = self.plan.backend
                    plan = dispatch_plan(
                        self.plan, arr.shape, arr.dtype.itemsize, pinned=pinned
                    )
                    self._plans[key] = plan
                    self.plan_cache_misses += 1
                else:
                    self.plan_cache_hits += 1
            else:
                plan = self.plan
        report = plan.execute(
            orig, dec, backend=backend,
            tracer=tracer if tracer is not None else self.tracer,
            extras=extras,
        )
        report.timings["cuZC"] = self.estimate(report.shape)
        if self.with_baselines:
            report.timings["moZC"] = self._mozc.estimate(report.shape, self.config)
            report.timings["ompZC"] = self._ompzc.estimate(report.shape, self.config)
        return report

    def explain(self, shape: tuple[int, int, int] | None = None) -> str:
        """Human-readable execution schedule (see ``repro explain``)."""
        return self.plan.explain(shape)

    def estimate(self, shape: tuple[int, int, int]) -> FrameworkTiming:
        """Modelled cuZC execution time for a dataset shape."""
        return self._cuzc.estimate(shape, self.config)
