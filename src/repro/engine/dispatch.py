"""Cost-model-driven adaptive dispatch with a persistent calibration loop.

The planner (:func:`~repro.engine.plan.build_plan`) knows *what* must run;
this module decides *how* to run it cheapest on the current host.  Given
an :class:`~repro.engine.plan.ExecutionPlan` and a dataset shape, it

1. enumerates execution **candidates** — (backend, tiling slab) pairs the
   registry and :func:`~repro.engine.tiling.slab_candidates` allow for
   that shape,
2. prices every plan step of every candidate with the roofline family:
   :func:`~repro.gpusim.roofline.host_kernel_seconds` for host backends
   and :func:`~repro.gpusim.costmodel.kernel_times` for the modelled
   (gpusim) backend,
3. corrects each prediction with the host's persistent **calibration
   table** — per-(backend, step, layout) measured-vs-predicted ratios
   folded in by ``tools/calibrate.py fit`` after traced runs — and
4. returns a :class:`Decision` whose cheapest candidate the plan adopts.

The loop is the ROADMAP's "predict → measure → correct": out of the box
the host roofs only need to get the *ordering* roughly right; every
``fit`` run nudges the per-kernel ratios toward the measured truth with a
geometric EMA, so predictions converge across runs without ever letting a
stale table change *results* — candidates differ only in layout and
backend, all of which produce identical metric values.

Safety invariants (tested):

* Shapes below :data:`~repro.engine.tiling.AUTO_MIN_BYTES` get exactly
  one slab candidate (whole-array), so small-field behaviour never
  depends on what a calibration table says.
* ``compiled-host`` is enumerated only when Numba imported successfully.
* A pinned backend (``config.backend`` or an explicit ``execute``
  argument) restricts the candidate set to that backend — dispatch then
  only tunes the slab.
* Dispatch never re-validates the configuration (plans validate exactly
  once) and never raises: a shape the kernels cannot handle keeps the
  undecided plan so execution surfaces the canonical error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine import compiled
from repro.engine.backends import get_backend, known_backends
from repro.engine.tiling import resolve_slab, slab_candidates
from repro.errors import CheckerError, ShapeError
from repro.gpusim.roofline import DEFAULT_HOST_ROOF, HostRoof, host_kernel_seconds

__all__ = [
    "CalibrationTable",
    "StepCost",
    "Candidate",
    "Decision",
    "default_calibration_path",
    "resolve_calibration",
    "host_fingerprint",
    "choose",
    "decision_cache_size",
    "dispatch_plan",
    "predict_pool_seconds",
    "estimate_assess_seconds",
    "clear_decision_cache",
]

#: EMA weight of one new observation when folding measured/predicted
#: ratios; 0.5 halves the distance to the measurement per ``fit`` run,
#: giving monotone convergence without letting one noisy run dominate
CALIBRATION_ALPHA = 0.5

#: predicted speedup of the compiled (Numba) kernels over the NumPy
#: fused path, per step kind — seeds only; calibration corrects them
COMPILED_STEP_GAIN = {"pattern2": 0.55, "pattern3": 0.6}

#: fixed per-slab cost of the tiled path (loop + scratch checkout +
#: accumulator fold), per sweep over the volume
SLAB_OVERHEAD_S = 2.5e-4

#: float64 intermediates the whole-array workspace keeps live per input
#: element (o64, d64, err — the rest are transient)
_WHOLE_SET_BYTES_PER_ELEM = 24
#: float64 conversion buffers the tiled path keeps live per slab element
_SLAB_SET_BYTES_PER_ELEM = 24

#: sustained full-assessment throughput of the seed host, in *pair*
#: bytes per second (committed BENCH_host_fusion.json: a (32,128,128)
#: float32 pair, 4.2 MB, assesses in ~0.15 s)
HOST_ASSESS_BYTES_PER_S = 25e6

#: per-task IPC cost of the persistent process pool (submit + pickle +
#: result transfer for small payloads)
PROCESS_TASK_OVERHEAD_S = 1.5e-3
#: amortised per-worker share of pool spin-up / teardown
PROCESS_WORKER_OVERHEAD_S = 2e-3
#: per-task submission overhead of the thread pool
THREAD_TASK_OVERHEAD_S = 2e-4
#: fraction of host assessment time that releases the GIL (BLAS / FFT
#: inner loops); the rest serialises across threads
THREAD_PARALLEL_FRACTION = 0.35


# ---------------------------------------------------------------------------
# calibration table
# ---------------------------------------------------------------------------


#: same-process serialisation of calibration saves (``flock`` below only
#: excludes other processes), keyed per target path
_SAVE_LOCKS: dict[str, threading.Lock] = {}
_SAVE_LOCKS_GUARD = threading.Lock()


@contextmanager
def _calibration_lock(target: Path):
    """Best-effort cross-process + in-process exclusive lock for a table.

    Uses ``fcntl.flock`` on a sidecar ``.lock`` file where available;
    platforms without ``fcntl`` still get in-process serialisation plus
    the atomic-replace guarantee (a reader can never observe a torn
    file, only a slightly stale one).
    """
    with _SAVE_LOCKS_GUARD:
        local = _SAVE_LOCKS.setdefault(str(target), threading.Lock())
    with local:
        lock_path = target.with_name(target.name + ".lock")
        fh = None
        try:
            try:
                import fcntl

                fh = open(lock_path, "a+")
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            except (ImportError, OSError):
                fh = None
            yield
        finally:
            if fh is not None:
                try:
                    import fcntl

                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
                except (ImportError, OSError):
                    pass
                fh.close()


def default_calibration_path() -> Path:
    """``$XDG_CACHE_HOME/cuzchecker/calibration.json`` (or ``~/.cache``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "cuzchecker" / "calibration.json"


def host_fingerprint() -> dict:
    """Attributable host identity stored with calibration tables and
    committed bench runs (satellite: every bench section records this)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux hosts
        usable = os.cpu_count() or 1
    ram_bytes = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    ram_bytes = int(line.split()[1]) * 1024
                    break
    except OSError:  # pragma: no cover — non-Linux hosts
        pass
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": usable,
        "ram_bytes": ram_bytes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class CalibrationTable:
    """Persistent per-kernel measured-vs-predicted correction ratios.

    Keys are ``{backend}.{step_kind}.{layout}`` (layout ``whole`` or
    ``slab``); each entry stores the geometric-EMA ratio and how many
    observations have been folded in.  ``ratio()`` of an unseen key is
    1.0, so an empty table reproduces the raw roofline prediction.
    """

    path: Path | None = None
    entries: dict[str, dict] = field(default_factory=dict)
    host: dict = field(default_factory=dict)

    # -- persistence -------------------------------------------------------

    @classmethod
    def load(cls, path: Path | str) -> "CalibrationTable":
        """Load a table, tolerating a missing or unreadable file (fresh
        table) so first runs and foreign hosts never fail."""
        path = Path(path)
        entries: dict[str, dict] = {}
        host: dict = {}
        try:
            raw = json.loads(path.read_text())
            if not isinstance(raw, dict):
                raw = {}
            for key, ent in raw.get("entries", {}).items():
                ratio = float(ent.get("ratio", 1.0))
                if math.isfinite(ratio) and ratio > 0:
                    entries[key] = {
                        "ratio": ratio,
                        "samples": int(ent.get("samples", 0)),
                    }
            host = dict(raw.get("host", {}))
        except (OSError, ValueError, TypeError):
            pass
        return cls(path=path, entries=entries, host=host)

    def save(self, path: Path | str | None = None, merge: bool = True) -> Path:
        """Persist the table atomically; concurrent writers cannot corrupt it.

        A server worker folding calibration observations and a
        ``calibrate fit`` run may save to the same per-user path at the
        same time, so persistence is write-temp + :func:`os.replace`
        (readers always see a complete JSON document) under a
        best-effort ``.lock`` file.  With ``merge=True`` the on-disk
        entries are re-read inside the lock and keys this table never
        observed are kept — per-key last-writer-wins instead of
        whole-file clobbering.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise CheckerError("calibration table has no path to save to")
        target.parent.mkdir(parents=True, exist_ok=True)
        with _calibration_lock(target):
            entries = dict(self.entries)
            if merge:
                for key, ent in CalibrationTable.load(target).entries.items():
                    entries.setdefault(key, ent)
            payload = {
                "version": 1,
                "host": self.host or host_fingerprint(),
                "entries": entries,
            }
            tmp = target.with_name(
                f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, target)
        return target

    # -- the predict → measure → correct loop ------------------------------

    def ratio(self, key: str) -> float:
        ent = self.entries.get(key)
        return float(ent["ratio"]) if ent else 1.0

    def fold(
        self,
        key: str,
        measured_s: float,
        predicted_s: float,
        alpha: float = CALIBRATION_ALPHA,
    ) -> float:
        """Fold one (measured, predicted) observation into ``key``.

        The first observation of a key is adopted outright — the
        identity prior is the *absence* of data, not data, and EMA-ing
        away from it would leave predictions biased toward the raw
        model for many fit runs.  Later observations fold in as a
        geometric EMA in log space: ``ln r' = (1-a) ln r + a ln(m/p)``
        — multiplicative errors average symmetrically (2×
        over-prediction and 2× under-prediction cancel) and the ratio
        converges monotonically under a constant observation.
        """
        if measured_s <= 0 or predicted_s <= 0:
            return self.ratio(key)
        obs = measured_s / predicted_s
        samples = (self.entries.get(key) or {}).get("samples", 0)
        if samples == 0:
            new = obs
        else:
            old = self.ratio(key)
            new = math.exp((1.0 - alpha) * math.log(old) + alpha * math.log(obs))
        self.entries[key] = {"ratio": new, "samples": samples + 1}
        return new


def resolve_calibration(setting: str = "auto") -> CalibrationTable | None:
    """Map the ``calibration`` config knob to a table (or ``None``).

    ``"off"`` disables the loop; ``"auto"`` (or empty) uses the per-user
    default cache path; anything else is an explicit table path.
    """
    if setting == "off":
        return None
    if setting in ("", "auto"):
        return CalibrationTable.load(default_calibration_path())
    return CalibrationTable.load(setting)


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepCost:
    """Calibrated cost of one plan step under one candidate."""

    kind: str
    key: str
    #: raw roofline prediction, before calibration
    base_ms: float
    #: calibrated prediction: ``base_ms * table.ratio(key)``
    ms: float


@dataclass(frozen=True)
class Candidate:
    """One way to execute the plan: a backend and a tiling layout."""

    backend: str
    #: resolved slab depth (``None`` = whole-array)
    slab: int | None
    steps: tuple[StepCost, ...]
    #: where the base prediction came from ("host-roofline" |
    #: "gpusim-model")
    source: str = "host-roofline"

    @property
    def total_ms(self) -> float:
        return sum(s.ms for s in self.steps)

    @property
    def label(self) -> str:
        layout = "whole" if self.slab is None else f"slab{self.slab}"
        return f"{self.backend}/{layout}"


@dataclass(frozen=True)
class Decision:
    """The dispatcher's verdict for one (plan, shape) pair."""

    shape: tuple[int, int, int]
    itemsize: int
    candidates: tuple[Candidate, ...]
    chosen: Candidate
    executor: str = "auto"
    #: worker count the batch drivers should use; ``None`` defers to the
    #: per-batch :func:`repro.parallel.executor.cost_aware_workers`
    workers: int | None = None
    #: calibration table provenance ("off" or the table path)
    calibration: str = "off"

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "itemsize": self.itemsize,
            "chosen": self.chosen.label,
            "executor": self.executor,
            "workers": self.workers,
            "calibration": self.calibration,
            "candidates": [
                {
                    "label": c.label,
                    "backend": c.backend,
                    "slab": c.slab,
                    "source": c.source,
                    "predicted_ms": c.total_ms,
                    "steps": [
                        {
                            "kind": s.kind,
                            "key": s.key,
                            "base_ms": s.base_ms,
                            "predicted_ms": s.ms,
                        }
                        for s in c.steps
                    ],
                }
                for c in self.candidates
            ],
        }


def calibration_key(backend: str, kind: str, slab: int | None) -> str:
    """Stable table key for one (backend, step, layout) combination."""
    return f"{backend}.{kind}.{'slab' if slab is not None else 'whole'}"


def _aux_seconds(step, shape, roof: HostRoof) -> float:
    """Host cost of the auxiliary step: stream both float64 views, plus
    an n·log2(n) term when the spectral FFT is requested."""
    n = int(np.prod(shape))
    t = 2.0 * n * 8 / roof.stream_bandwidth
    if "spectral" in step.metrics:
        t += 5.0 * n * max(math.log2(max(n, 2)), 1.0) / roof.op_rate
    return t


def _host_candidate(
    plan, shape, itemsize, backend: str, slab: int | None,
    table: CalibrationTable | None, roof: HostRoof,
) -> Candidate:
    """Price every plan step for one (host backend, slab) candidate."""
    # the compiled backend shares the fused dataflow (and therefore the
    # fused kernel plans); its gain enters as a per-step multiplier
    plan_backend = "fused-host" if backend == "compiled-host" else backend
    be = get_backend(plan_backend)
    n = int(np.prod(shape))
    if slab is None:
        cached = n * _WHOLE_SET_BYTES_PER_ELEM <= roof.llc_bytes
        n_slabs = 0
    else:
        plane = int(shape[1]) * int(shape[2])
        cached = slab * plane * _SLAB_SET_BYTES_PER_ELEM <= roof.llc_bytes
        n_slabs = math.ceil(shape[0] / slab)
    costs = []
    for step in plan.steps:
        if step.kind == "auxiliary":
            base = _aux_seconds(step, shape, roof)
        else:
            stats_list = be.kernel_plans(step, tuple(shape), plan.config)
            base = sum(host_kernel_seconds(s, roof, cached) for s in stats_list)
            if slab is not None:
                base += SLAB_OVERHEAD_S * n_slabs
        if backend == "compiled-host":
            base *= COMPILED_STEP_GAIN.get(step.kind, 1.0)
        key = calibration_key(backend, step.kind, slab)
        ms = base * 1e3
        costs.append(
            StepCost(
                kind=step.kind,
                key=key,
                base_ms=ms,
                ms=ms * (table.ratio(key) if table else 1.0),
            )
        )
    return Candidate(backend=backend, slab=slab, steps=tuple(costs))


def _gpusim_candidate(
    plan, shape, itemsize, table: CalibrationTable | None
) -> Candidate:
    """Price the modelled backend with the device cost model."""
    from repro.core.frameworks import device_by_name
    from repro.gpusim.costmodel import kernel_times

    device = device_by_name(plan.config.device)
    be = get_backend("gpusim")
    slab = resolve_slab(tuple(shape), getattr(plan.config, "tiling", "off"), itemsize)
    costs = []
    for step in plan.steps:
        stats_list = be.kernel_plans(step, tuple(shape), plan.config)
        base = sum(c.total for c in kernel_times(stats_list, device))
        key = calibration_key("gpusim", step.kind, slab)
        ms = base * 1e3
        costs.append(
            StepCost(
                kind=step.kind,
                key=key,
                base_ms=ms,
                ms=ms * (table.ratio(key) if table else 1.0),
            )
        )
    return Candidate(
        backend="gpusim", slab=slab, steps=tuple(costs), source="gpusim-model"
    )


def _candidate_backends(plan, pinned: str | None) -> list[str]:
    if pinned:
        return [pinned]
    names = ["fused-host", "metric-oriented"]
    if compiled.available() and "compiled-host" in known_backends():
        names.append("compiled-host")
    return names


def choose(
    plan,
    shape: tuple[int, int, int],
    itemsize: int = 4,
    pinned: str | None = None,
    table: CalibrationTable | None = None,
    roof: HostRoof = DEFAULT_HOST_ROOF,
) -> Decision:
    """Enumerate and price candidates; return the full costed table.

    Raises :class:`~repro.errors.ShapeError` for shapes the kernel plans
    reject — callers that must not fail (``dispatch_plan``) catch it.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3:
        raise ShapeError(f"dispatch prices 3-D fields, got {shape}")
    candidates: list[Candidate] = []
    tiling = getattr(plan.config, "tiling", "off")
    for backend in _candidate_backends(plan, pinned):
        if backend == "gpusim":
            candidates.append(_gpusim_candidate(plan, shape, itemsize, table))
            continue
        if backend == "compiled-host":
            # the compiled kernels are whole-array single passes; the
            # tiled layout would fall back to interpreted execution
            slabs: tuple[int | None, ...] = (None,)
        else:
            slabs = slab_candidates(shape, tiling, itemsize)
        for slab in slabs:
            candidates.append(
                _host_candidate(plan, shape, itemsize, backend, slab, table, roof)
            )
    chosen = min(candidates, key=lambda c: c.total_ms)
    return Decision(
        shape=shape,
        itemsize=itemsize,
        candidates=tuple(candidates),
        chosen=chosen,
        executor=getattr(plan, "executor", "auto"),
        calibration=(
            "off" if table is None else str(table.path or "(in-memory)")
        ),
    )


# ---------------------------------------------------------------------------
# plan integration
# ---------------------------------------------------------------------------

_DECISION_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 256


def clear_decision_cache() -> None:
    with _CACHE_LOCK:
        _DECISION_CACHE.clear()


def decision_cache_size() -> int:
    """Memoised dispatch decisions alive in this process (warm-state
    introspection for ``cuzchecker explain --session`` and ``/metrics``)."""
    with _CACHE_LOCK:
        return len(_DECISION_CACHE)


def _table_token(table: CalibrationTable | None):
    if table is None:
        return "off"
    if table.path is None:
        return id(table)
    try:
        mtime = table.path.stat().st_mtime_ns
    except OSError:
        mtime = 0
    return (str(table.path), mtime)


def dispatch_plan(plan, shape, itemsize: int = 4, pinned: str | None = None):
    """Return ``plan`` re-targeted at the cheapest candidate for ``shape``.

    Pure function of (plan, shape, itemsize, pinned, table state); the
    decision is memoised.  Never validates the config again and never
    raises — shapes the cost model cannot price keep the undecided plan
    so execution reports the canonical kernel error.  The config is only
    replaced when the chosen layout differs from what the static rules
    would have resolved, so small fields keep bit-for-bit identical
    plans (and reports keep the user's literal configuration).
    """
    try:
        shape = tuple(int(s) for s in shape)
    except (TypeError, ValueError):
        return plan
    if len(shape) != 3 or not plan.steps:
        return plan
    cfg = plan.config
    pinned = pinned or cfg.backend or None
    table = resolve_calibration(getattr(cfg, "calibration", "auto"))
    key = (cfg, shape, int(itemsize), pinned, _table_token(table))
    with _CACHE_LOCK:
        hit = _DECISION_CACHE.get(key)
    if hit is not None:
        return dataclasses.replace(plan, **hit)
    try:
        decision = choose(plan, shape, itemsize, pinned=pinned, table=table)
    except (ShapeError, CheckerError):
        return plan
    chosen = decision.chosen
    changes: dict = {"decision": decision}
    if chosen.backend != plan.backend:
        changes["backend"] = chosen.backend
    default_slab = resolve_slab(shape, getattr(cfg, "tiling", "off"), itemsize)
    if chosen.slab != default_slab:
        new_tiling = "off" if chosen.slab is None else int(chosen.slab)
        changes["config"] = dataclasses.replace(cfg, tiling=new_tiling)
    with _CACHE_LOCK:
        if len(_DECISION_CACHE) >= _CACHE_MAX:
            _DECISION_CACHE.clear()
        _DECISION_CACHE[key] = changes
    return dataclasses.replace(plan, **changes)


# ---------------------------------------------------------------------------
# executor / worker-count candidates
# ---------------------------------------------------------------------------


def estimate_assess_seconds(task_nbytes: int) -> float:
    """Seed estimate of one full assessment from the pair's byte size,
    anchored to the committed seed-host throughput."""
    return max(task_nbytes, 1) / HOST_ASSESS_BYTES_PER_S


def predict_pool_seconds(
    n_tasks: int, task_s: float, workers: int, executor: str
) -> float:
    """Predicted wall time of ``n_tasks`` equal tasks on one pool kind.

    Process pools parallelise fully but pay per-task IPC and per-worker
    spin-up; thread pools only overlap the GIL-releasing fraction of an
    assessment; serial is the baseline.
    """
    if n_tasks <= 0:
        return 0.0
    workers = max(1, int(workers))
    if executor == "process":
        rounds = math.ceil(n_tasks / workers)
        return (
            rounds * (task_s + PROCESS_TASK_OVERHEAD_S)
            + workers * PROCESS_WORKER_OVERHEAD_S
        )
    if executor == "thread":
        f = THREAD_PARALLEL_FRACTION
        return n_tasks * task_s * ((1.0 - f) + f / workers) + (
            n_tasks * THREAD_TASK_OVERHEAD_S
        )
    return n_tasks * task_s
