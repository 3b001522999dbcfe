"""Execution backends: how one :class:`~repro.engine.plan.ExecutionPlan`
step turns into metric values and modelled kernel launches.

The plan layer decides *what* runs (metric subset → pattern groups →
dependency DAG); a :class:`Backend` decides *how*:

``fused-host``
    The shared-:class:`~repro.core.workspace.MetricWorkspace` path: every
    derived array is materialised once and feeds all pattern kernels plus
    the auxiliary metrics — the host analogue of the paper's fused
    cooperative kernels.
``metric-oriented``
    The moZC-style path: each pattern executes standalone (no shared
    workspace, no cross-pattern moment reuse), mirroring one kernel
    pipeline per metric.  Values are tolerance-equal to ``fused-host``
    (SSIM bit for bit: both run the one sweep on the raw pair) — only
    the modelled cost differs (its :meth:`Backend.kernel_plans` returns
    the per-metric moZC kernel lists).
``gpusim``
    The fused dataflow plus modelled-cost execution: every pattern step
    additionally builds its :class:`~repro.gpusim.counters.KernelStats`
    plan, validates the launch geometry against the configured device via
    :class:`repro.gpusim.launch.LaunchConfig`, prices it with the cost
    model, and records it in :attr:`GpuSimBackend.launch_log` — the
    counter tests assert pattern skipping against.

Backends register by name; new execution strategies (async, sharded,
real-GPU) plug in through :func:`register_backend` without touching the
entry points, which all dispatch through plans.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.workspace import MetricWorkspace, default_scratch_pool
from repro.engine.tiling import TiledAssessment, resolve_slab
from repro.errors import CheckerError
from repro.gpusim.counters import KernelStats
from repro.gpusim.launch import LaunchConfig
from repro.kernels.metric_oriented import (
    plan_mo_pattern1,
    plan_mo_pattern2,
    plan_mo_pattern3,
)
from repro.kernels.pattern1 import Pattern1Result, execute_pattern1, plan_pattern1
from repro.kernels.pattern2 import Pattern2Result, execute_pattern2, plan_pattern2
from repro.kernels.pattern3 import Pattern3Result, execute_pattern3, plan_pattern3
from repro.metrics.correlation import pearson
from repro.metrics.properties import data_properties
from repro.metrics.spectral import spectral_comparison
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "RunContext",
    "Backend",
    "FusedHostBackend",
    "MetricOrientedBackend",
    "GpuSimBackend",
    "CompiledHostBackend",
    "register_backend",
    "get_backend",
    "known_backends",
]


@dataclass
class RunContext:
    """Mutable per-execution state shared by a plan's steps.

    Carries the cross-step intermediates of the dependency DAG: the
    workspace (fused backends) and the pattern-1 error moments the
    pattern-2 autocorrelation normalisation consumes — plus the run's
    tracer (:data:`~repro.telemetry.tracer.NULL_TRACER` by default).
    """

    plan: "object"
    orig: np.ndarray
    dec: np.ndarray
    workspace: MetricWorkspace | None = None
    err_mean: float | None = None
    err_var: float | None = None
    tracer: Tracer = NULL_TRACER
    extras: dict = field(default_factory=dict)


class Backend(abc.ABC):
    """One execution strategy for plan steps.

    Subclasses implement the three pattern hooks plus the auxiliary
    computation; the shared :meth:`run_step` orchestration handles step
    dispatch, cross-pattern moment publication, and launch recording.
    """

    #: registry name; subclasses must override
    name: str = ""

    # -- lifecycle ---------------------------------------------------------

    def begin(self, plan, orig: np.ndarray, dec: np.ndarray) -> RunContext:
        """Create the per-execution context (workspace allocation, ...)."""
        return RunContext(plan=plan, orig=orig, dec=dec)

    # -- step execution ----------------------------------------------------

    def run_step(self, step, ctx: RunContext, report) -> None:
        """Execute one plan step, filling ``report`` and updating ``ctx``."""
        default_scratch_pool().sweep_depth = None
        if step.kind == "pattern1":
            with ctx.tracer.span("pattern1", category="kernel", pattern=1) as sp:
                report.pattern1, stats = self._pattern1(ctx)
                # publish the error moments for the pattern-2 normalisation
                ctx.err_mean = report.pattern1.avg_err
                ctx.err_var = max(
                    report.pattern1.mse - report.pattern1.avg_err**2, 0.0
                )
                self._on_launch([stats])
                self._annotate(sp, stats)
                self._annotate_host(sp, ctx)
                self._annotate_sweep(sp)
        elif step.kind == "pattern2":
            with ctx.tracer.span("pattern2", category="kernel", pattern=2) as sp:
                report.pattern2, stats = self._pattern2(ctx)
                self._on_launch([stats])
                self._annotate(sp, stats)
                self._annotate_host(sp, ctx)
                self._annotate_sweep(sp)
        elif step.kind == "pattern3":
            with ctx.tracer.span("pattern3", category="kernel", pattern=3) as sp:
                report.pattern3, stats = self._pattern3(ctx)
                self._on_launch([stats])
                self._annotate(sp, stats)
                self._annotate_host(sp, ctx)
                self._annotate_sweep(sp)
        elif step.kind == "auxiliary":
            with ctx.tracer.span(
                "host.auxiliary", category="kernel", pattern="aux",
                bytes=ctx.orig.nbytes + ctx.dec.nbytes,
            ) as sp:
                report.auxiliary.update(self._auxiliary(ctx, step.metrics))
                self._annotate_host(sp, ctx)
        else:  # pragma: no cover — plans only emit the four kinds
            raise CheckerError(f"unknown plan step kind {step.kind!r}")

    def _on_launch(self, stats_list: list[KernelStats]) -> None:
        """Hook invoked with the kernel stats of each pattern step."""

    def _annotate(self, sp, stats: KernelStats) -> None:
        """Fill a kernel span from the executed kernel's stats record.

        Runs after :meth:`_on_launch` so backends that price launches
        (gpusim) can layer their modelled numbers on top.
        """
        sp.name = stats.name
        sp.bytes = stats.global_bytes
        sp.attrs.update(
            launches=stats.launches,
            grid_blocks=stats.grid_blocks,
            threads_per_block=stats.threads_per_block,
        )

    def _annotate_host(self, sp, ctx: RunContext) -> None:
        """Host-execution attributes: how this backend actually moved data
        (slab depth and cumulative host bytes for the tiled path, cached
        intermediate footprint for the whole-array workspace path, and
        the shared-memory payload when a process worker attached to
        published fields)."""
        tiled = ctx.extras.get("tiled")
        if tiled is not None:
            sp.attrs["tiling_slab"] = tiled.slab
            sp.attrs["host_bytes"] = tiled.bytes_touched
        elif ctx.workspace is not None:
            sp.attrs["host_bytes"] = ctx.workspace.cached_nbytes()
        shm_bytes = ctx.extras.get("shm_bytes")
        if shm_bytes:
            sp.attrs["shm_bytes"] = shm_bytes

    def _annotate_sweep(self, sp) -> None:
        """What the step's z-slab sweep did, as the sweep itself recorded
        it on the thread's pool: the depth it ran with and the arena it
        carved from.  Nothing when no host sweep ran inside the step
        (compiled kernels, results finalised from an earlier tiled pass)."""
        pool = default_scratch_pool()
        if pool.sweep_depth is not None:
            sp.attrs["slab_depth"] = pool.sweep_depth
            sp.attrs["scratch_bytes"] = pool.arena_nbytes()

    # -- pattern hooks -----------------------------------------------------

    @abc.abstractmethod
    def _pattern1(self, ctx: RunContext) -> tuple[Pattern1Result, KernelStats]:
        ...

    @abc.abstractmethod
    def _pattern2(self, ctx: RunContext) -> tuple[Pattern2Result, KernelStats]:
        ...

    @abc.abstractmethod
    def _pattern3(self, ctx: RunContext) -> tuple[Pattern3Result, KernelStats]:
        ...

    @abc.abstractmethod
    def _auxiliary(self, ctx: RunContext, names: tuple[str, ...]) -> dict:
        ...

    # -- introspection -----------------------------------------------------

    def kernel_plans(self, step, shape, config) -> list[KernelStats]:
        """Modelled kernel launches this backend performs for one step."""
        if step.kind == "pattern1":
            return [plan_pattern1(shape, config.pattern1)]
        if step.kind == "pattern2":
            return [plan_pattern2(shape, config.pattern2)]
        if step.kind == "pattern3":
            return [plan_pattern3(shape, config.pattern3)]
        return []  # auxiliary metrics run host-side


class FusedHostBackend(Backend):
    """PR 1's fused path: one shared workspace feeds every consumer."""

    name = "fused-host"

    def begin(self, plan, orig, dec) -> RunContext:
        ctx = super().begin(plan, orig, dec)
        kinds = {s.kind for s in plan.steps}
        has_p1 = "pattern1" in kinds
        has_p2 = "pattern2" in kinds
        slab = None
        if has_p1 or has_p2:
            slab = resolve_slab(
                orig.shape,
                getattr(plan.config, "tiling", "off"),
                itemsize=np.asarray(orig).dtype.itemsize,
            )
        if slab is not None:
            aux_names: tuple[str, ...] = ()
            for s in plan.steps:
                if s.kind == "auxiliary":
                    aux_names = tuple(s.metrics)
            # tiled single-pass mode: no whole-array workspace at all —
            # pattern 3 and the spectral FFT (inherently whole-array)
            # fall back to standalone execution on the raw inputs
            ctx.extras["tiled"] = TiledAssessment(
                orig,
                dec,
                plan.config,
                slab,
                want_pdfs=has_p1,
                want_pattern2=has_p2,
                aux_names=aux_names,
                scratch=default_scratch_pool(),
            )
        else:
            ctx.workspace = MetricWorkspace(
                orig,
                dec,
                pwr_floor=plan.config.pattern1.pwr_floor,
                scratch=default_scratch_pool(),
            )
        return ctx

    def _pattern1(self, ctx):
        tiled = ctx.extras.get("tiled")
        if tiled is not None:
            return tiled.pattern1_result(), plan_pattern1(
                tiled.shape, ctx.plan.config.pattern1
            )
        return execute_pattern1(
            ctx.orig, ctx.dec, ctx.plan.config.pattern1, workspace=ctx.workspace
        )

    def _pattern2(self, ctx):
        tiled = ctx.extras.get("tiled")
        if tiled is not None:
            return tiled.pattern2_result(ctx.err_mean, ctx.err_var), plan_pattern2(
                tiled.shape, ctx.plan.config.pattern2
            )
        err_mean, err_var = ctx.err_mean, ctx.err_var
        if err_mean is None:
            # no pattern-1 step in this plan: take the moments from the
            # shared workspace, which reduces them exactly as the
            # pattern-1 kernel would — a subset plan therefore returns
            # bit-identical values to the full assessment
            es = ctx.workspace.error_stats()
            mse = ctx.workspace.rate_distortion().mse
            err_mean = es.avg_err
            err_var = max(mse - err_mean**2, 0.0)
        return execute_pattern2(
            ctx.orig,
            ctx.dec,
            ctx.plan.config.pattern2,
            err_mean=err_mean,
            err_var=err_var,
            workspace=ctx.workspace,
        )

    def _pattern3(self, ctx):
        return execute_pattern3(
            ctx.orig, ctx.dec, ctx.plan.config.pattern3, workspace=ctx.workspace
        )

    def _auxiliary(self, ctx, names):
        tiled = ctx.extras.get("tiled")
        if tiled is not None:
            out = tiled.aux_values(names)
            if "spectral" in names:
                spectral = spectral_comparison(ctx.orig, ctx.dec)
                out["spectral_mean_rel_err"] = spectral.mean_rel_err
                out["spectral_noise_frequency"] = spectral.noise_frequency
            return out
        # float32→float64 is exact, so handing the workspace's cached
        # views to the FFT is bit-identical and skips the conversion
        # spectral_comparison would otherwise redo
        ws = ctx.workspace
        out: dict[str, float] = {}
        if "pearson" in names:
            out["pearson"] = ws.pearson()
        if {"entropy", "mean", "std"} & set(names):
            props = ws.data_properties()
            if "entropy" in names:
                out["entropy"] = props.entropy
            if "mean" in names:
                out["mean"] = props.mean
            if "std" in names:
                out["std"] = props.std
        if "spectral" in names:
            spectral = spectral_comparison(ws.o64, ws.d64)
            out["spectral_mean_rel_err"] = spectral.mean_rel_err
            out["spectral_noise_frequency"] = spectral.noise_frequency
        return out


class CompiledHostBackend(FusedHostBackend):
    """The fused dataflow with the two measured hot spots — the pattern-2
    ±1 stencil and the sliding SSIM window — replaced by single-pass
    compiled kernels (:mod:`repro.engine.compiled`).

    Values are tolerance-equal to ``fused-host`` (DESIGN §6 table: the
    compiled kernels evaluate the same per-element expressions but group
    their reductions per plane where the host sweeps group them per slab;
    they always compute the full stencil set, so metric subsets stay
    bit-identical among themselves); only the constant factor differs,
    which is why the dispatcher selects this backend purely on calibrated
    cost.
    Without Numba the kernels run interpreted — registration never
    depends on the import, but the dispatcher only *enumerates* this
    backend when :func:`repro.engine.compiled.available` is true, and
    plans that name it explicitly fall back to ``fused-host`` with a
    one-line warning.
    """

    name = "compiled-host"

    def _pattern2(self, ctx):
        from repro.engine.compiled import execute_pattern2_compiled

        if ctx.extras.get("tiled") is not None or ctx.workspace is None:
            # the compiled stencil is a whole-array single pass; tiled
            # layouts keep the interpreted slab path
            return super()._pattern2(ctx)
        err_mean, err_var = ctx.err_mean, ctx.err_var
        if err_mean is None:
            # same moment-resolution rule as the fused path: a subset
            # plan takes the moments from the shared workspace so it
            # returns bit-identical values to the full assessment
            es = ctx.workspace.error_stats()
            mse = ctx.workspace.rate_distortion().mse
            err_mean = es.avg_err
            err_var = max(mse - err_mean**2, 0.0)
        return execute_pattern2_compiled(
            ctx.workspace, ctx.plan.config.pattern2,
            err_mean=err_mean, err_var=err_var,
        )

    def _pattern3(self, ctx):
        from repro.engine.compiled import execute_pattern3_compiled

        if ctx.workspace is None:
            return super()._pattern3(ctx)
        return execute_pattern3_compiled(ctx.workspace, ctx.plan.config.pattern3)


class MetricOrientedBackend(Backend):
    """moZC-style standalone execution: no workspace, no moment reuse."""

    name = "metric-oriented"

    def _pattern1(self, ctx):
        return execute_pattern1(ctx.orig, ctx.dec, ctx.plan.config.pattern1)

    def _pattern2(self, ctx):
        # standalone: the error moments are recomputed on the fly, the
        # per-metric discipline moZC models
        return execute_pattern2(ctx.orig, ctx.dec, ctx.plan.config.pattern2)

    def _pattern3(self, ctx):
        return execute_pattern3(ctx.orig, ctx.dec, ctx.plan.config.pattern3)

    def _auxiliary(self, ctx, names):
        out: dict[str, float] = {}
        if "pearson" in names:
            out["pearson"] = pearson(ctx.orig, ctx.dec)
        if {"entropy", "mean", "std"} & set(names):
            props = data_properties(ctx.orig)
            if "entropy" in names:
                out["entropy"] = props.entropy
            if "mean" in names:
                out["mean"] = props.mean
            if "std" in names:
                out["std"] = props.std
        if "spectral" in names:
            spectral = spectral_comparison(ctx.orig, ctx.dec)
            out["spectral_mean_rel_err"] = spectral.mean_rel_err
            out["spectral_noise_frequency"] = spectral.noise_frequency
        return out

    def kernel_plans(self, step, shape, config):
        if step.kind == "pattern1":
            return plan_mo_pattern1(shape, config.pattern1)
        if step.kind == "pattern2":
            return plan_mo_pattern2(shape, config.pattern2)
        if step.kind == "pattern3":
            return plan_mo_pattern3(shape, config.pattern3)
        return []


class GpuSimBackend(FusedHostBackend):
    """Fused values plus modelled-cost execution on the simulated device.

    Each pattern step's kernel plan is validated as a real launch against
    the configured :class:`~repro.gpusim.device.DeviceSpec` and priced by
    the cost model; :attr:`launch_log` records every launch so tests can
    assert that a subset plan skips the unneeded kernels.
    """

    name = "gpusim"

    def __init__(self):
        self.launch_log: list[KernelStats] = []
        self.modelled_seconds: dict[str, float] = {}
        self.cost_log: dict[str, object] = {}

    def _on_launch(self, stats_list):
        from repro.core.frameworks import device_by_name
        from repro.gpusim.costmodel import kernel_time

        device = device_by_name(self._config.device)
        for stats in stats_list:
            LaunchConfig(
                grid_x=stats.grid_blocks,
                block_x=stats.threads_per_block,
                smem_per_block=stats.smem_per_block,
                regs_per_thread=stats.regs_per_thread,
            ).validate(device)
            cost = kernel_time(stats, device)
            self.modelled_seconds[stats.name] = cost.total
            self.cost_log[stats.name] = cost
            self._device = device
            self.launch_log.append(stats)

    def _annotate(self, sp, stats):
        super()._annotate(sp, stats)
        cost = self.cost_log.get(stats.name)
        if cost is None:  # pragma: no cover — _on_launch always precedes
            return
        sp.attrs.update(
            modelled_ms=cost.total * 1e3,
            modelled_cycles=cost.total * self._device.core_clock_hz,
            occupancy=cost.occupancy.occupancy,
            bound=cost.bound,
        )

    def begin(self, plan, orig, dec):
        self._config = plan.config
        return super().begin(plan, orig, dec)

    @property
    def launched_patterns(self) -> tuple[int, ...]:
        """Distinct pattern ids launched so far, sorted."""
        return tuple(
            sorted({s.meta.get("pattern") for s in self.launch_log} - {None})
        )


_BACKENDS: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Register a backend class under its ``name`` (idempotent)."""
    if not cls.name:
        raise ValueError(f"backend class {cls.__name__} has no name")
    existing = _BACKENDS.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"conflicting registration for backend {cls.name!r}")
    _BACKENDS[cls.name] = cls
    return cls


def known_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend: str | Backend) -> Backend:
    """Resolve a backend name (or pass an instance through).

    Names return a *fresh* instance so per-run state (e.g. the gpusim
    launch log) never leaks between executions.
    """
    if isinstance(backend, Backend):
        return backend
    try:
        return _BACKENDS[backend]()
    except KeyError:
        raise CheckerError(
            f"unknown backend {backend!r}; known: {sorted(_BACKENDS)}"
        ) from None


register_backend(FusedHostBackend)
register_backend(CompiledHostBackend)
register_backend(MetricOrientedBackend)
register_backend(GpuSimBackend)
