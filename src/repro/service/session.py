"""CheckerSession: one owner for all cross-request warm state.

Every prior performance layer of this reproduction — the memoised
dispatch plans, the :class:`~repro.core.workspace.ScratchPool`, the
persistent process pools, the calibration table — was built to amortise
cost *across assessments*, yet the one-shot entry points historically
rebuilt and discarded all of it per invocation.  A
:class:`CheckerSession` turns those module-scattered caches into one
object with an explicit lifecycle:

``open``
    validates the configuration once and builds the default checker
    (and therefore its :class:`~repro.engine.plan.ExecutionPlan`);
``assess`` / ``assess_compressor`` / ``assess_dataset`` / ``compare_pairs``
    run jobs against the shared warm state, thread-safely, each under a
    ``job`` telemetry span tagged with the session and job ids plus
    whether the per-shape plan memo hit;
``close``
    releases what the session kept warm: the persistent process pools
    (``wait=True`` so worker interpreters are really gone) and every
    thread's scratch-pool buffers.

The CLI subcommands and the :mod:`repro.server` HTTP endpoint both route
through this class, so there is exactly one warm path — and the
property tests assert that N sequential session assessments are
bit-identical to N fresh one-shot :class:`~repro.core.checker.CuZChecker`
runs.
"""

from __future__ import annotations

import secrets
import sys
import threading
import time

import numpy as np

from repro.config.defaults import default_config
from repro.config.schema import CheckerConfig
from repro.core.checker import CuZChecker
from repro.core.report import AssessmentReport
from repro.core.workspace import clear_scratch_pools, scratch_pool_bytes
from repro.errors import CheckerError
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["CheckerSession", "SessionClosedError"]


class SessionClosedError(CheckerError):
    """A job was submitted to a session after :meth:`CheckerSession.close`."""


class CheckerSession:
    """A resident assessment service: warm state with a lifecycle.

    Parameters
    ----------
    config:
        Default configuration for jobs that do not carry their own;
        validated once at :meth:`open`.
    with_baselines:
        Whether job reports carry the modelled moZC/ompZC baselines.
    tracer:
        Session-wide tracer; every job span lands here (servers read it
        as the progress feed).  Defaults to the disabled tracer.
    session_id:
        Stable id stamped on every job span (defaults to a random tag).

    A session may be used from many threads: checker construction is
    lock-guarded, execution plans are immutable, scratch pools are
    thread-local, and the per-shape dispatch memo is a GIL-atomic dict.
    """

    def __init__(
        self,
        config: CheckerConfig | None = None,
        with_baselines: bool = False,
        tracer: Tracer | None = None,
        session_id: str | None = None,
    ):
        self.config = config or default_config()
        self.with_baselines = with_baselines
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.session_id = session_id or f"s{secrets.token_hex(4)}"
        self._lock = threading.RLock()
        self._checkers: dict[tuple, CuZChecker] = {}
        self._state = "new"  # new -> open -> closed
        self._opened_at: float | None = None
        self._jobs = 0
        self.checker_cache_hits = 0
        self.checker_cache_misses = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._state == "open"

    def open(self) -> "CheckerSession":
        """Validate the configuration and build the default checker."""
        with self._lock:
            if self._state == "closed":
                raise SessionClosedError(
                    f"session {self.session_id} is closed and cannot reopen"
                )
            if self._state == "new":
                self._state = "open"
                self._opened_at = time.monotonic()
                self.checker_for()  # builds + validates the default plan
        return self

    def close(self, wait: bool = True) -> None:
        """Release everything the session kept warm.  Idempotent.

        Persistent process pools are shut down (``wait=True`` blocks
        until the worker interpreters exit, so leak probes right after
        close see zero workers) and every thread's default scratch pool
        is cleared.  Shared-memory segments never outlive their batch —
        the drivers unlink them in a ``finally`` — so a clean close plus
        :func:`repro.parallel.shm.active_segment_count` == 0 means
        leak-free.
        """
        with self._lock:
            if self._state == "closed":
                return
            self._state = "closed"
            self._checkers.clear()
        # a pool can only exist if the executor module was ever imported;
        # importing it here just to find none costs a serial CLI run the
        # whole multiprocessing/concurrent.futures stack
        executor = sys.modules.get("repro.parallel.executor")
        if executor is not None:
            executor.shutdown_pools(wait=wait)
        clear_scratch_pools()

    def __enter__(self) -> "CheckerSession":
        return self.open()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _require_open(self) -> None:
        if self._state == "closed":
            raise SessionClosedError(
                f"session {self.session_id} is closed; open a new one"
            )
        if self._state == "new":
            self.open()

    # -- warm state --------------------------------------------------------

    def checker_for(
        self,
        config: CheckerConfig | None = None,
        with_baselines: bool | None = None,
        backend: str | None = None,
    ) -> CuZChecker:
        """The cached checker for a job's effective configuration.

        One :class:`CuZChecker` (and therefore one validated
        :class:`~repro.engine.plan.ExecutionPlan` plus one per-shape
        dispatch memo) serves every job with the same configuration for
        the life of the session.
        """
        cfg = config if config is not None else self.config
        wb = self.with_baselines if with_baselines is None else with_baselines
        key = (cfg, wb, backend)
        with self._lock:
            checker = self._checkers.get(key)
            if checker is None:
                checker = CuZChecker(
                    config=cfg, with_baselines=wb, backend=backend,
                    tracer=self.tracer,
                )
                self._checkers[key] = checker
                self.checker_cache_misses += 1
            else:
                self.checker_cache_hits += 1
        return checker

    # -- jobs --------------------------------------------------------------

    def _job_span(self, tracer: Tracer, name: str, job_id: str | None, nbytes: int):
        with self._lock:
            self._jobs += 1
            seq = self._jobs
        return tracer.span(
            name,
            category="job",
            bytes=nbytes,
            session=self.session_id,
            job_id=job_id or f"{self.session_id}.{seq}",
        )

    def assess(
        self,
        orig: np.ndarray,
        dec: np.ndarray,
        name: str | None = None,
        job_id: str | None = None,
        config: CheckerConfig | None = None,
        with_baselines: bool | None = None,
        backend: str | None = None,
        tracer: Tracer | None = None,
        extras: dict | None = None,
    ) -> AssessmentReport:
        """Assess one original/decompressed pair on the warm state.

        Identical results to a fresh one-shot
        :class:`~repro.core.checker.CuZChecker` run (property-tested);
        only the cost differs — repeated shapes skip dispatch, repeated
        configurations skip plan construction, and derived-array storage
        comes from the resident scratch pool.
        """
        self._require_open()
        checker = self.checker_for(config, with_baselines, backend)
        tr = tracer if tracer is not None else self.tracer
        orig = np.asarray(orig)
        dec = np.asarray(dec)
        hits0 = checker.plan_cache_hits
        with self._job_span(
            tr, name or "job:assess", job_id, orig.nbytes + dec.nbytes
        ) as sp:
            report = checker.assess(orig, dec, tracer=tr, extras=extras)
            sp.attrs["plan_cache"] = (
                "hit" if checker.plan_cache_hits > hits0 else "miss"
            )
            sp.attrs["scratch_bytes"] = scratch_pool_bytes()
        return report

    def assess_compressor(
        self,
        data: np.ndarray,
        compressor,
        name: str | None = None,
        job_id: str | None = None,
        config: CheckerConfig | None = None,
        with_baselines: bool | None = None,
        tracer: Tracer | None = None,
    ) -> AssessmentReport:
        """Compress + decompress + assess one field on the warm state."""
        self._require_open()
        from repro.core.compare import assess_compressor

        checker = self.checker_for(config, with_baselines)
        tr = tracer if tracer is not None else self.tracer
        data = np.asarray(data)
        hits0 = checker.plan_cache_hits
        with self._job_span(tr, name or "job:compress", job_id, data.nbytes) as sp:
            report = assess_compressor(data, compressor, checker=checker, tracer=tr)
            sp.attrs["plan_cache"] = (
                "hit" if checker.plan_cache_hits > hits0 else "miss"
            )
            sp.attrs["scratch_bytes"] = scratch_pool_bytes()
        return report

    def assess_dataset(
        self,
        dataset,
        compressor,
        on_error: str = "raise",
        executor: str | None = None,
        workers: int | None = None,
        config: CheckerConfig | None = None,
        with_baselines: bool | None = None,
        tracer: Tracer | None = None,
    ):
        """Batch-assess a dataset through the session's warm checker."""
        self._require_open()
        from repro.core.batch import assess_dataset

        return assess_dataset(
            dataset,
            compressor,
            config=config if config is not None else self.config,
            with_baselines=(
                self.with_baselines if with_baselines is None else with_baselines
            ),
            on_error=on_error,
            tracer=tracer if tracer is not None else self.tracer,
            executor=executor,
            workers=workers,
            session=self,
        )

    def compare_pairs(
        self,
        pairs,
        on_error: str = "raise",
        executor: str | None = None,
        workers: int | None = None,
        dataset_name: str = "pairs",
        tracer: Tracer | None = None,
    ):
        """Assess many (name, orig, dec) pairs through the warm state."""
        self._require_open()
        from repro.parallel.executor import parallel_compare_pairs

        return parallel_compare_pairs(
            pairs,
            config=self.config,
            with_baselines=self.with_baselines,
            workers=workers,
            on_error=on_error,
            dataset_name=dataset_name,
            tracer=tracer if tracer is not None else self.tracer,
            executor=executor,
            session=self,
        )

    def open_stream(
        self, plane_shape, max_lag=10, ssim=None, pwr_floor=0.0, tracer=None
    ):
        """A :class:`~repro.core.streaming.StreamingChecker` recording
        into the session tracer (chunk spans land on the same feed the
        server streams job progress from), or into an explicit one."""
        self._require_open()
        from repro.core.streaming import StreamingChecker

        return StreamingChecker(
            plane_shape,
            max_lag=max_lag,
            ssim=ssim,
            pwr_floor=pwr_floor,
            tracer=tracer if tracer is not None else self.tracer,
        )

    def audit_archive(self, root, out_path=None, **kwargs):
        """Resumable out-of-core audit of a bundle tree on this session.

        Thin wrapper over :func:`repro.audit.runner.run_audit`: every
        field under ``root`` streams chunk-by-chunk through this
        session's warm state with checkpoint/resume; see the runner for
        the full parameter set.
        """
        self._require_open()
        from repro.audit.runner import run_audit

        return run_audit(root, out_path=out_path, session=self, **kwargs)

    def explain(self, shape=None) -> str:
        """Execution schedule of the session's default configuration."""
        self._require_open()
        return self.checker_for().explain(shape)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Warm-state counters (the server's ``/metrics`` payload core)."""
        from repro.engine.dispatch import (
            decision_cache_size,
            resolve_calibration,
        )
        from repro.parallel.executor import active_pool_counts

        with self._lock:
            checkers = list(self._checkers.values())
            jobs = self._jobs
            checker_hits = self.checker_cache_hits
            checker_misses = self.checker_cache_misses
        table = resolve_calibration(getattr(self.config, "calibration", "auto"))
        return {
            "session_id": self.session_id,
            "state": self._state,
            "uptime_s": (
                round(time.monotonic() - self._opened_at, 3)
                if self._opened_at is not None
                else 0.0
            ),
            "jobs": jobs,
            "plan_cache_hits": sum(c.plan_cache_hits for c in checkers),
            "plan_cache_misses": sum(c.plan_cache_misses for c in checkers),
            "plan_cache_shapes": sum(len(c._plans) for c in checkers),
            "checker_cache_size": len(checkers),
            "checker_cache_hits": checker_hits,
            "checker_cache_misses": checker_misses,
            "dispatch_decision_cache": decision_cache_size(),
            "scratch_pool_bytes": scratch_pool_bytes(),
            "process_pools": list(active_pool_counts()),
            "calibration": (
                "off" if table is None else str(table.path or "(in-memory)")
            ),
            "calibration_entries": 0 if table is None else len(table.entries),
        }

    def describe_warm_state(self, shape=None) -> str:
        """Human-readable warm-cache summary (``cuzchecker explain
        --session``): which caches a resident session reuses across
        requests, and whether a given shape would hit them."""
        s = self.stats()
        lines = [
            f"resident session {s['session_id']} "
            f"({s['state']}, {s['jobs']} job(s) served):",
            f"  plan memo: {s['plan_cache_shapes']} shape(s) cached, "
            f"{s['plan_cache_hits']} hit(s) / {s['plan_cache_misses']} miss(es)",
        ]
        if shape is not None:
            shape = tuple(int(x) for x in shape)
            cached = any(
                any(k[0] == shape for k in c._plans)
                for c in self._checkers.values()
            )
            verdict = (
                "warm (dispatch skipped)" if cached
                else "cold on first job, warm for every identical job after"
            )
            lines.append(f"    shape {shape}: {verdict}")
        lines += [
            f"  dispatch decisions: {s['dispatch_decision_cache']} "
            "memoised in this process",
            f"  calibration: {s['calibration']}"
            + (
                f" ({s['calibration_entries']} entries)"
                if s["calibration"] != "off"
                else ""
            ),
            f"  scratch pool: {s['scratch_pool_bytes']} bytes resident "
            "(reused across requests, zero steady-state allocations)",
            "  process pools: "
            + (
                "workers " + str(s["process_pools"]) + " persistent across jobs"
                if s["process_pools"]
                else "none alive (spawned on first parallel batch, "
                "released on close)"
            ),
        ]
        return "\n".join(lines)
