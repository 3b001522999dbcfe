"""Execution planning: metric subset → pattern groups → dependency DAG.

:func:`build_plan` is the single place where a requested metric selection
is turned into work.  It validates the configuration once, expands the
selection against the metric registry, groups metrics by their Table I
pattern, orders the resulting steps so cross-pattern intermediates flow
forward (the pattern-2 autocorrelation normalisation consumes the error
moments the pattern-1 reductions already produced), and binds the plan to
a named :class:`~repro.engine.backends.Backend`.

Every assessment entry point — :class:`~repro.core.checker.CuZChecker`,
the streaming checker, batch/parallel/multi-GPU drivers and
:func:`~repro.core.compare.compare_data` — builds one of these plans
instead of hand-dispatching pattern kernels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.config.schema import CheckerConfig
from repro.core.report import AssessmentReport
from repro.engine.backends import Backend, get_backend
from repro.errors import ShapeError
from repro.gpusim.counters import KernelStats
from repro.metrics.base import (
    METRIC_REGISTRY,
    Pattern,
    canonical_metric_order,
    resolve_metrics,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "PlanStep",
    "ExecutionPlan",
    "build_plan",
    "resolve_backend_name",
    "resolve_executor_name",
]

#: auxiliary metrics the assessment itself computes; the remaining
#: auxiliary registry entries (compression_ratio, *_throughput) are
#: provided by the compressor driver, not by array analysis
_CHECKER_AUX = frozenset({"pearson", "spectral", "entropy", "mean", "std"})

_PATTERN_IDS = {
    Pattern.GLOBAL_REDUCTION: 1,
    Pattern.STENCIL: 2,
    Pattern.SLIDING_WINDOW: 3,
}

_STEP_LABELS = {
    "pattern1": "pattern 1 (global reduction)",
    "pattern2": "pattern 2 (stencil-like)",
    "pattern3": "pattern 3 (sliding window)",
    "auxiliary": "auxiliary (host-side)",
}


@dataclass(frozen=True)
class PlanStep:
    """One schedulable unit of an :class:`ExecutionPlan`.

    ``consumes``/``produces`` name the cross-step intermediates of the
    dependency DAG (workspace arrays and the pattern-1 error moments);
    they drive :meth:`ExecutionPlan.explain` and document why the steps
    are ordered the way they are.
    """

    kind: str  # "pattern1" | "pattern2" | "pattern3" | "auxiliary"
    metrics: tuple[str, ...]
    consumes: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()

    @property
    def pattern_id(self) -> int | None:
        """Numeric pattern id for kernel steps, ``None`` for auxiliary."""
        if self.kind.startswith("pattern"):
            return int(self.kind[-1])
        return None


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, ordered schedule for one metric selection.

    Plans are immutable and reusable: one plan can execute any number of
    data pairs (each :meth:`execute` gets a fresh backend run context),
    which is how the batch and parallel drivers amortise configuration
    validation across a whole dataset.
    """

    config: CheckerConfig
    #: the resolved selection, Table-I ordered
    metrics: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    #: default backend name; ``execute`` may override per call
    backend: str
    #: requested metrics no step computes (compression bookkeeping that
    #: the compressor driver fills in, or auxiliary metrics disabled by
    #: ``auxiliary=False``)
    unplanned: tuple[str, ...] = ()
    #: parallel executor the batch/slab drivers should use for plans
    #: built from this configuration ("auto" | "serial" | "thread" |
    #: "process"); single-pair execution ignores it
    executor: str = "auto"
    #: adaptive-dispatch verdict (:class:`repro.engine.dispatch.Decision`)
    #: when the plan was built or re-targeted for a concrete shape;
    #: ``None`` for shape-free plans (static rules apply)
    decision: object | None = None

    # -- execution ---------------------------------------------------------

    @property
    def patterns(self) -> tuple[int, ...]:
        """Numeric pattern ids this plan launches, sorted."""
        return tuple(
            sorted(s.pattern_id for s in self.steps if s.pattern_id is not None)
        )

    def execute(
        self,
        orig: np.ndarray,
        dec: np.ndarray,
        backend: str | Backend | None = None,
        tracer: Tracer | None = None,
        extras: dict | None = None,
    ) -> AssessmentReport:
        """Run the plan on one data pair and return the filled report.

        With a ``tracer``, the run records the plan → step → kernel span
        hierarchy (see :mod:`repro.telemetry`); without one, the hooks
        cost a single attribute check per region.  ``extras`` seeds the
        run context's extras dict — process workers pass
        ``{"shm_bytes": ...}`` so the host spans record how much of the
        input arrived over shared memory.
        """
        orig = np.asarray(orig)
        dec = np.asarray(dec)
        if orig.shape != dec.shape:
            raise ShapeError(
                f"original {orig.shape} and decompressed {dec.shape} differ"
            )
        if orig.ndim != 3:
            raise ShapeError(f"cuZ-Checker assesses 3-D fields, got {orig.shape}")

        tracer = tracer if tracer is not None else NULL_TRACER
        be = get_backend(backend if backend is not None else self.backend)
        report = AssessmentReport(shape=orig.shape, config=self.config)
        # per-step cost predictions feed the calibration loop: spans carry
        # the dispatcher's base prediction so ``tools/calibrate.py fit``
        # can fold measured/predicted ratios back into the table.  An
        # explicit backend override bypasses the decision (it priced a
        # different backend).
        predicted = None
        decision = self.decision
        if (
            decision is not None
            and backend is None
            and tuple(orig.shape) == decision.shape
        ):
            predicted = decision.chosen.steps
        with tracer.span(
            "plan",
            category="plan",
            bytes=orig.nbytes + dec.nbytes,
            backend=be.name,
            shape=str(tuple(orig.shape)),
            metrics=",".join(self.metrics),
        ):
            ctx = be.begin(self, orig, dec)
            ctx.tracer = tracer
            if extras:
                ctx.extras.update(extras)
            for i, step in enumerate(self.steps):
                attrs = dict(
                    category="step",
                    pattern=step.pattern_id if step.pattern_id is not None else "aux",
                    metrics=",".join(step.metrics),
                )
                if predicted is not None and i < len(predicted):
                    attrs["predicted_ms"] = predicted[i].ms
                    attrs["predicted_base_ms"] = predicted[i].base_ms
                    attrs["calibration_key"] = predicted[i].key
                with tracer.span(step.kind, **attrs):
                    be.run_step(step, ctx, report)
        return report

    # -- introspection -----------------------------------------------------

    def kernel_plans(
        self,
        shape: tuple[int, int, int],
        backend: str | Backend | None = None,
    ) -> list[KernelStats]:
        """Modelled kernel launches for a dataset shape, in step order."""
        be = get_backend(backend if backend is not None else self.backend)
        out: list[KernelStats] = []
        for step in self.steps:
            out.extend(be.kernel_plans(step, shape, self.config))
        return out

    def explain(self, shape: tuple[int, int, int] | None = None) -> str:
        """Human-readable schedule; with ``shape``, adds modelled cost."""
        lines = [
            f"execution plan: {len(self.metrics)} metric(s) -> "
            f"{len(self.steps)} step(s), backend={self.backend}",
            f"  device: {self.config.device}; patterns enabled: "
            + (", ".join(str(p) for p in self.config.patterns) or "none"),
        ]
        tiling = getattr(self.config, "tiling", "off")
        tiling_line = f"  tiling: {tiling}"
        if shape is not None:
            from repro.engine.tiling import resolve_slab

            slab = resolve_slab(tuple(shape), tiling)
            resolved = "whole-array" if slab is None else f"slab_nz={slab}"
            tiling_line += f" ({resolved} for shape {tuple(shape)})"
        lines.append(tiling_line)
        executor_line = f"  executor: {self.executor}"
        if self.executor in ("auto", "process"):
            from repro.parallel.executor import resolve_executor

            with warnings.catch_warnings():
                # a forced "process" on a host without shared memory
                # warns at run time; explain just reports the outcome
                warnings.simplefilter("ignore")
                resolved_executor = resolve_executor(self.executor)
            executor_line += f" ({resolved_executor} on this host)"
        lines.append(executor_line)
        for i, step in enumerate(self.steps, 1):
            lines.append(f"  step {i}: {_STEP_LABELS[step.kind]}")
            lines.append("    metrics:  " + ", ".join(step.metrics))
            if step.consumes:
                lines.append("    consumes: " + ", ".join(step.consumes))
            if step.produces:
                lines.append("    produces: " + ", ".join(step.produces))
        if self.unplanned:
            lines.append(
                "  not planned (external or disabled): "
                + ", ".join(self.unplanned)
            )
        if shape is not None:
            from repro.core.frameworks import device_by_name
            from repro.gpusim.costmodel import kernel_time

            device = device_by_name(self.config.device)
            plans = self.kernel_plans(shape)
            lines.append(
                f"  modelled kernels for shape {tuple(shape)} on {device.name}:"
            )
            total = 0.0
            for stats in plans:
                seconds = kernel_time(stats, device).total
                total += seconds
                lines.append(
                    f"    {stats.name:<28s} grid={stats.grid_blocks:<6d} "
                    f"t={seconds * 1e3:.3f} ms"
                )
            if not plans:
                lines.append("    (no kernel launches)")
            lines.append(f"    total modelled kernel time: {total * 1e3:.3f} ms")
        decision = self._decision_for(shape)
        if decision is not None:
            lines.append(
                f"  dispatch candidates for shape {tuple(decision.shape)} "
                f"(calibration: {decision.calibration}):"
            )
            for cand in decision.candidates:
                marker = "  <- chosen" if cand is decision.chosen else ""
                lines.append(
                    f"    {cand.label:<28s} predicted={cand.total_ms:8.3f} ms "
                    f"[{cand.source}]{marker}"
                )
        return "\n".join(lines)

    def _decision_for(self, shape):
        """The attached decision when it matches ``shape``, else a fresh
        one computed on the fly (``None`` when dispatch cannot price)."""
        if shape is None:
            return self.decision
        shape = tuple(shape)
        if self.decision is not None and self.decision.shape == shape:
            return self.decision
        from repro.engine.dispatch import dispatch_plan

        return dispatch_plan(self, shape).decision

    def to_dict(self, shape: tuple[int, int, int] | None = None) -> dict:
        """Machine-readable plan description (``cuzchecker explain --json``)."""
        out = {
            "backend": self.backend,
            "executor": self.executor,
            "metrics": list(self.metrics),
            "patterns": list(self.patterns),
            "tiling": getattr(self.config, "tiling", "off"),
            "device": self.config.device,
            "unplanned": list(self.unplanned),
            "steps": [
                {
                    "kind": s.kind,
                    "metrics": list(s.metrics),
                    "consumes": list(s.consumes),
                    "produces": list(s.produces),
                }
                for s in self.steps
            ],
        }
        if self.executor in ("auto", "process"):
            from repro.parallel.executor import resolve_executor

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out["resolved_executor"] = resolve_executor(self.executor)
        if shape is not None:
            out["shape"] = list(shape)
            from repro.core.frameworks import device_by_name
            from repro.gpusim.costmodel import kernel_time

            device = device_by_name(self.config.device)
            out["modelled_kernels"] = [
                {
                    "name": stats.name,
                    "grid_blocks": stats.grid_blocks,
                    "modelled_ms": kernel_time(stats, device).total * 1e3,
                }
                for stats in self.kernel_plans(shape)
            ]
        decision = self._decision_for(shape)
        if decision is not None:
            out["dispatch"] = decision.to_dict()
        return out


def resolve_backend_name(
    config: CheckerConfig, backend: str | Backend | None = None
) -> str:
    """Apply the backend precedence rule: argument > config > ``fused-host``."""
    if isinstance(backend, Backend):
        return backend.name
    if backend:
        return backend
    if config.backend:
        return config.backend
    return "fused-host"


def resolve_executor_name(config: CheckerConfig, executor: str | None = None) -> str:
    """Apply the executor precedence rule: argument > config > ``auto``.

    Resolution stops at the *named* choice — mapping ``"auto"`` onto a
    concrete pool kind is the drivers' job at run time (it depends on the
    executing host, not on the plan).
    """
    if executor:
        return executor
    return getattr(config, "executor", "") or "auto"


def build_plan(
    config: CheckerConfig | None = None,
    backend: str | Backend | None = None,
    shape: tuple[int, int, int] | None = None,
    itemsize: int = 4,
) -> ExecutionPlan:
    """Turn a configuration into an :class:`ExecutionPlan`.

    Validates the configuration exactly once; callers that reuse the
    returned plan (batch, parallel, streaming) never re-validate.

    With a 3-D ``shape``, the plan is additionally run through the
    adaptive dispatcher (:func:`repro.engine.dispatch.dispatch_plan`):
    backend and tiling slab are chosen by calibrated predicted cost and
    the costed candidate table is attached as :attr:`ExecutionPlan.decision`.
    Shape-free plans keep the static rules.
    """
    if config is None:
        from repro.config.defaults import default_config

        config = default_config()
    config.validate()

    metrics = resolve_metrics(config.metrics)
    enabled = set(config.patterns)

    by_pattern: dict[int, list[str]] = {1: [], 2: [], 3: []}
    aux: list[str] = []
    unplanned: list[str] = []
    for name in metrics:
        pid = _PATTERN_IDS.get(METRIC_REGISTRY[name].pattern)
        if pid is None:
            if name in _CHECKER_AUX and config.auxiliary:
                aux.append(name)
            else:
                unplanned.append(name)
        elif pid in enabled:
            by_pattern[pid].append(name)
        else:
            unplanned.append(name)

    steps: list[PlanStep] = []
    if by_pattern[1]:
        steps.append(
            PlanStep(
                kind="pattern1",
                metrics=tuple(by_pattern[1]),
                consumes=("err", "pwr_vals"),
                produces=("err_moments", "value_range"),
            )
        )
    if by_pattern[2]:
        # the autocorrelation normalisation reuses the pattern-1 error
        # moments when that step runs; standalone it recomputes them
        consumes = ("err",)
        if by_pattern[1]:
            consumes += ("err_moments",)
        steps.append(
            PlanStep(kind="pattern2", metrics=tuple(by_pattern[2]),
                     consumes=consumes)
        )
    if by_pattern[3]:
        # the SSIM sweep reads the raw pair slab by slab; the value range
        # comes from the pattern-1 moments when that step runs
        consumes = ("orig", "dec")
        if by_pattern[1]:
            consumes += ("value_range",)
        steps.append(
            PlanStep(kind="pattern3", metrics=tuple(by_pattern[3]),
                     consumes=consumes)
        )
    if aux:
        steps.append(
            PlanStep(kind="auxiliary", metrics=tuple(aux),
                     consumes=("o64", "d64", "moments"))
        )

    backend_name = resolve_backend_name(config, backend)
    if backend_name == "compiled-host":
        from repro.engine import compiled

        if not compiled.available():
            warnings.warn(
                "compiled-host requested but Numba is not importable; "
                "falling back to fused-host",
                RuntimeWarning,
                stacklevel=2,
            )
            backend_name = "fused-host"

    plan = ExecutionPlan(
        config=config,
        metrics=metrics,
        steps=tuple(steps),
        backend=backend_name,
        unplanned=canonical_metric_order(unplanned),
        executor=resolve_executor_name(config),
    )
    if shape is not None and len(tuple(shape)) == 3:
        from repro.engine.dispatch import dispatch_plan

        pinned = backend_name if (backend or config.backend) else None
        plan = dispatch_plan(plan, tuple(shape), itemsize, pinned=pinned)
    return plan
