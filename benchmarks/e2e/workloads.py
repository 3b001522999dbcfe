"""The five workloads.

Each one generates its inputs from the seed, warms up, runs a fixed
number of timed ops and checks what came back.  ``op`` is what a user
would do; ``traced_op`` is the same work done in this process, where the
timing wrappers can see it (identical to ``op`` unless the op is a child
process).  Field shapes are fixed; only op counts scale with the run
length.
"""

from __future__ import annotations

import base64
import contextlib
import http.client
import io
import json
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracle
from harness import (
    REPO_ROOT,
    children_peak_rss_mb,
    median,
    proc_status_mb,
    self_peak_rss_mb,
)

__all__ = ["WORKLOADS", "Timed", "Workload"]

clock = time.perf_counter
SRC = str(REPO_ROOT / "src")


def bench_config():
    """The paper's evaluation configuration with the calibration loop
    pinned off, so no run reads or updates a per-user table."""
    from repro.config.defaults import default_config

    return replace(default_config(), calibration="off")


def make_pair(shape, seed: int, noise: float = 1e-3):
    """A Hurricane-like field and a stand-in decompression: Gaussian
    noise at ``noise`` of the value range."""
    from repro.datasets.registry import generate_field

    orig = generate_field("hurricane", "TCf48", shape=shape, seed=seed).data
    rng = np.random.default_rng(seed)
    spread = noise * float(orig.max() - orig.min())
    dec = (orig + rng.normal(0.0, spread, orig.shape)).astype(np.float32)
    return orig, dec


@dataclass
class Timed:
    """Outcome of a run of ops: one entry per op attempted."""

    latencies: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # None where the op raised
    #: the op index each entry ran (it selects the input; the traced pass
    #: does not run indices in order)
    inputs: list[int] = field(default_factory=list)
    errors: dict[int, list[str]] = field(default_factory=dict)
    #: wall clock the system was busy: Σ latencies for a sequential
    #: loop, the window length for concurrent clients
    busy_s: float = 0.0

    def fail(self, index: int, message: str) -> None:
        self.errors.setdefault(index, []).append(message)


class Workload:
    name = ""
    #: timed ops of a full-length run (BENCHMARK.json ``run_seconds``)
    base_ops = 0
    warmups = 0
    #: original-field bytes one op assesses
    bytes_per_op = 0
    load = "one caller, ops back to back"

    def __init__(self, seed: int, work: Path, recorder=None):
        self.seed = seed
        self.work = work
        self.recorder = recorder
        #: runs the traced pass makes besides the traced/untraced twins
        #: (real child processes); verified and counted like any other
        self.side_runs: list[Timed] = []
        self.session = None

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int):
        return self.op(i)

    def teardown(self) -> None:
        """Undo ``setup`` (also a half-finished one) so it can run again:
        the untraced pass sets up several times and reports the median."""
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- measurement -------------------------------------------------------

    def span(self, metric: str):
        """A benchmark-opened span around a call that is not a ``repro``
        function; a no-op outside traced ops."""
        rec = self.recorder
        if rec is not None and rec.active:
            return rec.span(metric)
        return contextlib.nullcontext()

    def _timed_call(self, timed: Timed, fn, i: int) -> None:
        t0 = clock()
        try:
            result = fn(i)
        except Exception as exc:  # noqa: BLE001 — a failed op is a data point
            result = None
            timed.fail(len(timed.results), f"raised {type(exc).__name__}: {exc}")
        dt = clock() - t0
        timed.latencies.append(dt)
        timed.results.append(result)
        timed.inputs.append(i)
        timed.busy_s += dt

    def run_timed(self, n: int) -> Timed:
        timed = Timed()
        for i in range(n):
            self._timed_call(timed, self.op, i)
        return timed

    def run_traced(self, pairs: int, rebinder) -> tuple[Timed, Timed]:
        """Alternate untraced and traced ops, so drift cancels out of the
        tracing-overhead estimate.  Inputs keep rotating as in the untraced
        pass (an op that repeats its predecessor's input finds it cached),
        and which of the two goes first flips every pair."""
        plain, traced = Timed(), Timed()
        for i in range(pairs):
            for slot, with_tracing in enumerate(((False, True), (True, False))[i % 2]):
                if with_tracing:
                    self.recorder.op = i
                    with rebinder:
                        self._timed_call(traced, self.traced_op, 2 * i + slot)
                else:
                    self._timed_call(plain, self.traced_op, 2 * i + slot)
        return plain, traced

    def verify(self, timed: Timed) -> None:
        """Record every oracle mismatch in ``timed.errors``."""
        raise NotImplementedError

    def live_pids(self) -> tuple[int, ...]:
        return ()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics that do not come from spans."""
        return {} if self.session is None else _session_extras(self.session.stats())

    # -- shared oracle steps -----------------------------------------------

    def _verify_reports(self, timed: Timed, key, reference, numpy_check) -> None:
        """Every op's report must equal the first report of the same
        input (``key(i)``) or, with ``reference``, that input's
        independently computed report; the first and last ops are also
        checked against NumPy by ``numpy_check(i, report)``."""
        first: dict = {}
        done = []
        for pos, (i, text) in enumerate(zip(timed.inputs, timed.results)):
            if text is None:
                continue
            done.append(pos)
            canon = oracle.comparable(json.loads(text))
            if reference is not None:
                want = reference(key(i))
            else:
                want = first.setdefault(key(i), canon)
            for msg in oracle.check_identical(canon, want, "report"):
                timed.fail(pos, msg)
        for pos in sorted({done[0], done[-1]}) if done else ():
            report = json.loads(timed.results[pos])
            for msg in numpy_check(timed.inputs[pos], report):
                timed.fail(pos, msg)


def _session_extras(stats: dict) -> dict[str, float]:
    lookups = stats["plan_cache_hits"] + stats["plan_cache_misses"]
    return {
        "service.plan_cache_hit_ratio": (
            stats["plan_cache_hits"] / lookups if lookups else 0.0
        ),
        "service.scratch_pool_bytes": float(stats["scratch_pool_bytes"]),
    }


# ---------------------------------------------------------------------------
# 1. assess_warm
# ---------------------------------------------------------------------------


class AssessWarm(Workload):
    """In-memory 64x192x192 pairs on a warm session: kernels, metrics
    and the workspace do all the work; the ~190 MB scratch pool is ~4x
    the L3, so this is the bandwidth-bound case."""

    name = "assess_warm"
    base_ops = 20
    warmups = 3
    shape = (64, 192, 192)
    n_pairs = 3
    bytes_per_op = 64 * 192 * 192 * 4

    def setup(self) -> None:
        from repro.service.session import CheckerSession

        self.config = bench_config()
        self.pairs = []  # a previous round's 57 MB go before the new ones come
        for k in range(self.n_pairs):
            self.pairs.append(make_pair(self.shape, self.seed * 1000 + k))
        self.session = CheckerSession(config=self.config).open()
        for i in range(self.warmups):
            self.op(i)

    def op(self, i: int) -> str:
        orig, dec = self.pairs[i % self.n_pairs]
        report = self.session.assess(orig, dec)
        with self.span("core.report_serialize_s"):
            return json.dumps(report.to_dict())

    def verify(self, timed: Timed) -> None:
        def numpy_check(i, report):
            orig, dec = self.pairs[i % self.n_pairs]
            return oracle.check_metrics(
                report["metrics"], orig, dec
            ) + oracle.check_ssim_crop(orig, dec, self.config)

        self._verify_reports(timed, lambda i: i % self.n_pairs, None, numpy_check)


# ---------------------------------------------------------------------------
# 2. compress_assess
# ---------------------------------------------------------------------------


class CompressAssess(Workload):
    """SZ compress + decompress + assess of 24x96x96 fields, what
    `cuzchecker assess` does: the compressor (Huffman, Lorenzo,
    quantiser) dominates and the kernels are a minority."""

    name = "compress_assess"
    base_ops = 20
    warmups = 2
    shape = (24, 96, 96)
    n_fields = 4
    rel_bound = 1e-3
    #: the vertical wind component.  Its Huffman depth is 18 for practically
    #: every seed; the layered TCf48 flips between 17 and 18, which moves the
    #: encoder's ~31 MB temporaries across glibc's dynamic mmap threshold and
    #: made peak RSS (175 vs 196 MB) and op time (±4 %) bimodal across seeds.
    field_name = "Wf48"
    bytes_per_op = 24 * 96 * 96 * 4

    def setup(self) -> None:
        from repro.datasets.registry import generate_field
        from repro.service.session import CheckerSession

        self.config = bench_config()
        self.fields = [
            generate_field(
                "hurricane", self.field_name, shape=self.shape,
                seed=self.seed * 1000 + k,
            ).data
            for k in range(self.n_fields)
        ]
        self.session = CheckerSession(config=self.config).open()
        self.violations = 0
        for i in range(self.warmups):
            self.op(i)

    def op(self, i: int) -> str:
        from repro.compressors.sz import SZCompressor

        report = self.session.assess_compressor(
            self.fields[i % self.n_fields], SZCompressor(rel_bound=self.rel_bound)
        )
        with self.span("core.report_serialize_s"):
            return json.dumps(report.to_dict())

    def verify(self, timed: Timed) -> None:
        from repro.compressors.sz import SZCompressor

        def numpy_check(i, report):
            # the codec is deterministic, so an independent round trip
            # reproduces the array the op assessed
            orig = self.fields[i % self.n_fields]
            codec = SZCompressor(rel_bound=self.rel_bound)
            dec = codec.decompress(codec.compress(orig))
            bad = oracle.bound_violations(orig, dec, self.rel_bound)
            self.violations += bad
            problems = oracle.check_metrics(report["metrics"], orig, dec)
            problems += oracle.check_ssim_crop(orig, dec, self.config)
            if bad:
                problems.append(f"{bad} element(s) beyond the SZ error bound")
            return problems

        self._verify_reports(timed, lambda i: i % self.n_fields, None, numpy_check)

    def layer_extras(self) -> dict[str, float]:
        extras = super().layer_extras()
        extras["compressors.bound_violations"] = float(self.violations)
        return extras


# ---------------------------------------------------------------------------
# 3. audit_chunked
# ---------------------------------------------------------------------------


class AuditChunked(Workload):
    """Serial checkpointed audit of two zlib chunked-v3 bundles with the
    cheap zfp codec: chunk reads + SHA-256 + checkpoint writes and the
    streamed use of the kernels carry the op."""

    name = "audit_chunked"
    base_ops = 24
    warmups = 1
    shape = (32, 96, 96)
    n_bundles = 2
    chunk_nz = 4
    rate = 8.0
    bytes_per_op = 2 * 32 * 96 * 96 * 4

    def setup(self) -> None:
        from repro.datasets.fields import Dataset
        from repro.datasets.registry import generate_field
        from repro.io.bundle import save_bundle_chunked, verify_bundle
        from repro.service.session import CheckerSession

        self.config = bench_config()
        self.root = self.work / "tree"
        self.out = self.work / "audit" / "report.json"
        self.fields = {}
        for b in range(self.n_bundles):
            ds = Dataset(name=f"bundle{b}", description="e2e benchmark input")
            ds.add(
                generate_field(
                    "hurricane", "TCf48", shape=self.shape,
                    seed=self.seed * 1000 + b,
                )
            )
            self.fields[f"bundle{b}::TCf48"] = ds.fields[0].data
            bundle = save_bundle_chunked(
                ds, self.root / f"bundle{b}", chunk_nz=self.chunk_nz, codec="zlib"
            )
            verify_bundle(bundle)
        self.session = CheckerSession(config=self.config).open()
        for i in range(self.warmups):
            self.op(i)

    def op(self, i: int) -> bytes:
        from repro.audit.runner import run_audit

        run_audit(
            self.root,
            out_path=self.out,
            checkpoint_path=self.work / "audit" / "checkpoint.json",
            workers="serial",
            resume=False,
            verify=True,
            codec="zfp",
            codec_args={"rate": self.rate},
            session=self.session,
        )
        return self.out.read_bytes()

    def _chunkwise_roundtrip(self, orig: np.ndarray) -> np.ndarray:
        from repro.compressors.zfp import ZFPCompressor

        codec = ZFPCompressor(rate=self.rate)
        return np.concatenate(
            [
                codec.decompress(codec.compress(orig[z : z + self.chunk_nz]))
                for z in range(0, orig.shape[0], self.chunk_nz)
            ]
        )

    def verify(self, timed: Timed) -> None:
        done = [i for i, r in enumerate(timed.results) if r is not None]
        if not done:
            return
        first = timed.results[done[0]]
        for i in done:
            for msg in oracle.check_identical(timed.results[i], first, "audit report"):
                timed.fail(i, msg)
        # byte-identical reports: checking the first against NumPy checks all
        report = json.loads(first)
        for entry in report["fields"]:
            orig = self.fields[entry["key"]]
            dec = self._chunkwise_roundtrip(orig)
            problems = oracle.check_metrics(
                entry["scalars"], orig, dec, names=("max_err", "mse", "psnr")
            )
            problems += oracle.check_streamed_ssim_crop(orig, dec, self.config)
            for msg in problems:
                timed.fail(done[0], f"{entry['key']}: {msg}")


# ---------------------------------------------------------------------------
# 4. serve_closed
# ---------------------------------------------------------------------------


@dataclass
class JobTiming:
    latency: float
    post_s: float = 0.0
    wait_s: float = 0.0
    exec_s: float = 0.0
    report: dict | None = None
    error: str | None = None
    rejected: bool = False


class ServeClient:
    """Closed-loop HTTP client: submit, poll every 2 ms, repeat."""

    poll_interval_s = 0.002
    job_timeout_s = 60.0

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def request(self, method: str, path: str, body: bytes | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode())
        finally:
            conn.close()

    def run_job(self, body: bytes) -> JobTiming:
        t0 = clock()
        status, reply = self.request("POST", "/jobs", body)
        post_s = clock() - t0
        if status != 202:
            return JobTiming(
                latency=clock() - t0, post_s=post_s, rejected=status == 429,
                error=f"HTTP {status}: {reply.get('error')}",
            )
        path = f"/jobs/{reply['id']}"
        deadline = t0 + self.job_timeout_s
        while True:
            _, job = self.request("GET", path)
            if job["status"] in ("done", "failed"):
                break
            if clock() > deadline:
                return JobTiming(latency=clock() - t0, post_s=post_s,
                                 error="job timed out")
            time.sleep(self.poll_interval_s)
        latency = clock() - t0
        return JobTiming(
            latency=latency,
            post_s=post_s,
            wait_s=job["started_at"] - job["submitted_at"],
            exec_s=job["finished_at"] - job["started_at"],
            report=job.get("report"),
            error=job.get("error"),
        )


def closed_loop(client: ServeClient, bodies: list[bytes], n_jobs: int):
    """``len(bodies)`` client threads, one tenant each; every client
    submits its next job only after the previous one completed."""
    n_clients = len(bodies)
    per_client: list[list[JobTiming]] = [[] for _ in range(n_clients)]

    def run(c: int) -> None:
        for _ in range(n_jobs // n_clients + (c < n_jobs % n_clients)):
            try:
                per_client[c].append(client.run_job(bodies[c]))
            except (OSError, http.client.HTTPException, ValueError) as exc:
                per_client[c].append(
                    JobTiming(latency=0.0, error=f"{type(exc).__name__}: {exc}")
                )

    threads = [threading.Thread(target=run, args=(c,)) for c in range(n_clients)]
    t0 = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window_s = clock() - t0
    # interleave so op index i belongs to client i % n_clients
    jobs = [
        per_client[c][k]
        for k in range(max(map(len, per_client), default=0))
        for c in range(n_clients)
        if k < len(per_client[c])
    ]
    return jobs, window_s


class ServerChild:
    """A real ``python -m repro serve --port 0`` subprocess."""

    def __init__(self):
        t0 = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--calibration", "off"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=child_env(),
        )
        address = None
        for line in self.proc.stdout:
            match = re.search(r"serving on http://([^:\s]+):(\d+)", line)
            if match:
                address = match.group(1), int(match.group(2))
                break
        if address is None:
            self.kill()
            raise RuntimeError("server child never printed its address")
        self.client = ServeClient(*address)
        self.startup_s = clock() - t0
        self.shutdown_s = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def shutdown(self) -> None:
        if self.proc.poll() is not None:
            return
        t0 = clock()
        try:
            self.client.request("POST", "/shutdown", b"{}")
            self.proc.wait(timeout=30)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            self.kill()
        self.shutdown_s = clock() - t0
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class ServerThread:
    """The same server in this process, on a thread, where the timing
    wrappers apply (the child is only ever timed from outside)."""

    def __init__(self, config):
        import asyncio

        from repro.server.app import AssessmentServer
        from repro.service.session import CheckerSession

        self.server = AssessmentServer(
            session=CheckerSession(config=config), port=0
        )
        ready = threading.Event()
        self.error: BaseException | None = None

        async def main() -> None:
            await self.server.start()
            ready.set()
            await self.server.serve_until_shutdown()

        def run() -> None:
            try:
                asyncio.run(main())
            except BaseException as exc:  # noqa: BLE001 — surfaced by the waiter
                self.error = exc
                ready.set()

        self.thread = threading.Thread(target=run, name="e2e-server")
        self.thread.start()
        ready.wait(timeout=60)
        if self.error is not None or not ready.is_set():
            raise RuntimeError(f"in-process server failed to start: {self.error}")
        self.client = ServeClient(self.server.host, self.server.port)

    def shutdown(self) -> None:
        if self.thread.is_alive():
            try:
                self.client.request("POST", "/shutdown", b"{}")
            except (OSError, http.client.HTTPException):
                pass
            self.thread.join(timeout=60)


def child_env() -> dict[str, str]:
    import os

    env = dict(os.environ)  # HOME, TMPDIR and the BLAS pins are already set
    env["PYTHONPATH"] = SRC
    return env


class ServeClosed(Workload):
    """A real `serve` child under a closed loop of 2 clients on 2
    tenants uploading 24x96x96 pairs: HTTP, JSON, base64, the fair queue
    and queue wait are a visible share of a ~0.1 s job."""

    name = "serve_closed"
    base_ops = 150
    warmups = 10
    shape = (24, 96, 96)
    n_clients = 2
    bytes_per_op = 24 * 96 * 96 * 4
    load = "closed loop, 2 clients, one job worker"
    #: jobs per traced / untraced window of the in-process server
    window_jobs = 8

    child: "ServerChild | None" = None
    inproc: "ServerThread | None" = None

    def setup(self) -> None:
        self.config = bench_config()
        self.pairs = [
            make_pair(self.shape, self.seed * 1000 + c) for c in range(self.n_clients)
        ]
        self.bodies = [
            json.dumps(
                {
                    "tenant": f"tenant{c}",
                    "original_npy_b64": _npy_b64(orig),
                    "decompressed_npy_b64": _npy_b64(dec),
                }
            ).encode()
            for c, (orig, dec) in enumerate(self.pairs)
        ]
        self.child = ServerChild()
        self.child_jobs: list[JobTiming] = []
        self.child_window_s = 0.0
        if self.recorder is not None:
            self.inproc = ServerThread(self.config)
        self._warm(self.child.client)
        if self.inproc is not None:
            self._warm(self.inproc.client)
        self._references: dict[int, str] = {}

    def _warm(self, client: ServeClient) -> None:
        jobs, _ = closed_loop(client, self.bodies, self.warmups)
        bad = [j.error for j in jobs if j.error]
        if bad:
            raise RuntimeError(f"warm-up job failed: {bad[0]}")

    def _run(self, client: ServeClient, n: int) -> tuple[Timed, list[JobTiming]]:
        jobs, window_s = closed_loop(client, self.bodies, n)
        timed = Timed(busy_s=window_s, inputs=list(range(len(jobs))))
        for i, job in enumerate(jobs):
            timed.latencies.append(job.latency)
            timed.results.append(None if job.error else json.dumps(job.report))
            if job.error:
                timed.fail(i, job.error)
        return timed, jobs

    def run_timed(self, n: int) -> Timed:
        timed, self.child_jobs = self._run(self.child.client, n)
        self.child_window_s = timed.busy_s
        return timed

    def run_traced(self, pairs: int, rebinder) -> tuple[Timed, Timed]:
        # the real child first: the server.* metrics are client-timed
        self.side_runs.append(self.run_timed(max(pairs, 2 * self.n_clients)))
        plain, traced = Timed(), Timed()
        for w in range(max(1, pairs // self.window_jobs)):
            _extend(plain, self._run(self.inproc.client, self.window_jobs)[0])
            # jobs overlap inside the server, so spans are grouped by
            # traced window, not by job
            self.recorder.op = w
            with rebinder:
                _extend(traced, self._run(self.inproc.client, self.window_jobs)[0])
        return plain, traced

    def _reference(self, c: int) -> str:
        if c not in self._references:
            from repro.service.session import CheckerSession

            orig, dec = self.pairs[c]
            with CheckerSession(config=self.config) as session:
                report = session.assess(orig, dec).to_dict()
            self._references[c] = oracle.comparable(
                json.loads(json.dumps(report))
            )
        return self._references[c]

    def verify(self, timed: Timed) -> None:
        def numpy_check(i, report):
            orig, dec = self.pairs[i % self.n_clients]
            return oracle.check_metrics(report["metrics"], orig, dec)

        self._verify_reports(
            timed, lambda i: i % self.n_clients, self._reference, numpy_check
        )

    def live_pids(self) -> tuple[int, ...]:
        return (self.child.pid,)

    def peak_rss_mb(self) -> float:
        return proc_status_mb(self.child.pid, "VmHWM")

    def layer_extras(self) -> dict[str, float]:
        # stops the child: its shutdown time is one of the metrics
        jobs = [j for j in self.child_jobs if not j.error]
        _, metrics = self.child.client.request("GET", "/metrics")
        rss_mb = proc_status_mb(self.child.pid, "VmRSS")
        self.child.shutdown()
        extras = _session_extras(metrics["session"])
        extras.update(
            {
                "server.startup_s": self.child.startup_s,
                "server.shutdown_s": self.child.shutdown_s,
                "server.http_post_s": median([j.post_s for j in jobs]),
                "server.queue_wait_s": median([j.wait_s for j in jobs]),
                "server.exec_s": median([j.exec_s for j in jobs]),
                "server.poll_overhead_s": median(
                    [j.latency - j.post_s - j.wait_s - j.exec_s for j in jobs]
                ),
                "server.jobs_per_s": (
                    len(jobs) / self.child_window_s if self.child_window_s else 0.0
                ),
                "server.rejected_429": float(
                    sum(j.rejected for j in self.child_jobs)
                ),
                "server.rss_MB": rss_mb,
            }
        )
        return extras

    def teardown(self) -> None:
        if self.child is not None:
            self.child.shutdown()
            self.child = None
        if self.inproc is not None:
            self.inproc.shutdown()
            self.inproc = None


def _npy_b64(array: np.ndarray) -> str:
    buf = io.BytesIO()
    np.save(buf, array)
    return base64.b64encode(buf.getvalue()).decode("ascii")


def _extend(total: Timed, part: Timed) -> None:
    base = len(total.results)
    total.latencies += part.latencies
    total.results += part.results
    total.inputs += part.inputs
    total.busy_s += part.busy_s
    for i, msgs in part.errors.items():
        total.errors.setdefault(base + i, []).extend(msgs)


# ---------------------------------------------------------------------------
# 5. cli_cold
# ---------------------------------------------------------------------------


class CliCold(Workload):
    """One `python -m repro analyze` subprocess per op on a 32x128x128
    raw pair: interpreter start, imports, plan build + dispatch, raw
    reads and first-touch page faults, which no warm workload can show."""

    name = "cli_cold"
    base_ops = 32
    warmups = 2
    shape = (32, 128, 128)
    bytes_per_op = 32 * 128 * 128 * 4
    #: cold child runs of the traced pass (for ``cli.cold_penalty_s``)
    probe_runs = 5

    def setup(self) -> None:
        self.config = bench_config()
        self.orig, self.dec = make_pair(self.shape, self.seed * 1000)
        self.orig_path = self.work / "orig.f32"
        self.dec_path = self.work / "dec.f32"
        self.json_path = self.work / "report.json"
        self.orig.tofile(self.orig_path)
        self.dec.tofile(self.dec_path)
        self.argv = [
            "analyze", str(self.orig_path), str(self.dec_path),
            "--shape", ",".join(map(str, self.shape)),
            "--json", str(self.json_path), "--calibration", "off",
        ]
        self.env = child_env()
        self.probes: dict[str, float] = {}
        self._reference_text: str | None = None
        for i in range(self.warmups):
            self.op(i)
        if self.recorder is not None:
            self.traced_op(0)  # imports done before the first timed twin

    def _child(self, code: list[str]) -> None:
        subprocess.run(
            [sys.executable, *code], env=self.env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )

    def op(self, i: int) -> str:
        self.json_path.unlink(missing_ok=True)
        self._child(["-m", "repro", *self.argv])
        return self.json_path.read_text()

    def traced_op(self, i: int) -> str:
        from repro.cli import main
        from repro.engine.dispatch import clear_decision_cache

        clear_decision_cache()  # a cold process prices its plan every time
        self.json_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(self.argv)
        if code != 0:
            raise RuntimeError(f"repro.cli.main returned {code}")
        return self.json_path.read_text()

    def run_traced(self, pairs: int, rebinder) -> tuple[Timed, Timed]:
        def timed_children(code: list[str]) -> float:
            samples = []
            for _ in range(self.probe_runs):
                t0 = clock()
                self._child(code)
                samples.append(clock() - t0)
            return median(samples)

        self.probes = {
            "cli.interp_s": timed_children(["-c", "pass"]),
            "cli.import_s": timed_children(["-c", "import repro.cli, numpy"]),
        }
        cold = self.run_timed(self.probe_runs)
        self.side_runs.append(cold)
        plain, traced = super().run_traced(pairs, rebinder)
        warm = median(plain.latencies)
        self.probes["cli.main_warm_s"] = warm
        self.probes["cli.cold_penalty_s"] = median(cold.latencies) - warm
        return plain, traced

    def _reference(self, _key) -> str:
        if self._reference_text is None:
            from repro.service.session import CheckerSession

            with CheckerSession(config=self.config) as session:
                report = session.assess(self.orig, self.dec).to_dict()
            self._reference_text = oracle.comparable(json.loads(json.dumps(report)))
        return self._reference_text

    def verify(self, timed: Timed) -> None:
        def numpy_check(i, report):
            return oracle.check_metrics(report["metrics"], self.orig, self.dec)

        self._verify_reports(timed, lambda i: 0, self._reference, numpy_check)

    def peak_rss_mb(self) -> float:
        return children_peak_rss_mb()

    def layer_extras(self) -> dict[str, float]:
        return dict(self.probes)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AssessWarm, CompressAssess, AuditChunked, ServeClosed, CliCold)
}
