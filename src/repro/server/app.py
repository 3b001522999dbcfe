"""Stdlib-asyncio HTTP/JSON front end for a resident CheckerSession.

``cuzchecker serve`` binds one :class:`AssessmentServer`: a minimal
HTTP/1.1 endpoint written directly on :func:`asyncio.start_server` (no
third-party framework — the container bakes in only the standard
toolchain).  Requests are JSON in, JSON out:

======  ==================  ==============================================
POST    ``/jobs``           submit a job spec (202, or 429 when the
                            admission queue is full)
GET     ``/jobs``           all job summaries
GET     ``/jobs/<id>``      one job's status, progress, and — when done —
                            its full report (404 once evicted: only the
                            1024 most recently finished jobs are kept)
GET     ``/jobs/<id>/trace``  the job's chrome-trace span feed (the same
                            exporter ``cuzchecker profile`` uses)
GET     ``/metrics``        server counters + the session's warm-state
                            cache counters
GET     ``/healthz``        liveness (session id, uptime, queue depth)
POST    ``/shutdown``       graceful stop (drains nothing; running jobs
                            finish, queued jobs are dropped)
======  ==================  ==============================================

Assessment is CPU-bound NumPy, so the asyncio loop never runs it
directly: ``job_workers`` worker tasks pull from the fair queue and push
each job into a thread via :meth:`loop.run_in_executor`, keeping the
accept loop responsive while the shared session (thread-safe by design)
does the work.  The threads come from a pool of exactly ``job_workers``:
asyncio's default executor starts another thread whenever a job is
submitted before the previous one's thread has marked itself idle, and
each such thread brings its own malloc arena (~25 MB of RSS here, at a
moment that depends on scheduling).  Every job runs with its own tracer,
which doubles as the progress feed.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.server.jobs import Job, JobQueue, QueueFullError, execute_job
from repro.service.session import CheckerSession

__all__ = ["AssessmentServer"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: JSON bodies larger than this are rejected with 413 before parsing —
#: npy uploads inflate ~4/3 under base64, so this admits ~48 MiB fields
MAX_BODY_BYTES = 64 << 20


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    line = await reader.readline()
    if not line:
        raise _HttpError(400, "empty request")
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        if b":" in raw:
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


#: finished (done/failed) jobs the table keeps, most recent first to go
#: last; queued and running jobs are never evicted
MAX_FINISHED_JOBS = 1024


class AssessmentServer:
    """One resident session behind an asyncio HTTP/JSON endpoint."""

    def __init__(
        self,
        session: CheckerSession | None = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_queue: int = 64,
        job_workers: int = 1,
    ):
        self.session = session or CheckerSession()
        self.host = host
        self.port = port
        self.queue = JobQueue(max_pending=max_queue)
        self.job_workers = max(1, int(job_workers))
        self.jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self.counters = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "jobs_rejected": 0,
            "jobs_evicted": 0,
        }
        self._started_at: float | None = None
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[asyncio.Task] = []
        self._pool: ThreadPoolExecutor | None = None
        self._wakeup: asyncio.Event | None = None
        self._stopping: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open the session, bind the socket, launch the job workers."""
        self.session.open()
        self._wakeup = asyncio.Event()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._pool = ThreadPoolExecutor(
            self.job_workers, thread_name_prefix="cuzchecker-job"
        )
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(self.job_workers)
        ]

    async def serve_until_shutdown(self) -> None:
        """Block until ``POST /shutdown`` (or :meth:`stop`) fires."""
        assert self._stopping is not None, "start() first"
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting, cancel idle workers, close the warm session."""
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._workers = []
        if self._pool is not None:  # a job still running finishes first
            pool, self._pool = self._pool, None
            await asyncio.get_running_loop().run_in_executor(None, pool.shutdown)
        # close() shuts the persistent process pools down with wait=True
        # and clears the scratch pools — the leak-free-shutdown half of
        # the service contract (CI asserts no orphan workers/segments)
        self.session.close(wait=True)

    # -- job execution -----------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = self.queue.next_job()
            if job is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            job.status = "running"
            job.started_at = time.time()
            try:
                job.report = await loop.run_in_executor(
                    self._pool, execute_job, self.session, job
                )
                job.status = "done"
                self.counters["jobs_completed"] += 1
            except asyncio.CancelledError:
                job.status = "failed"
                job.error = "server shut down while running"
                raise
            except Exception as exc:  # noqa: BLE001 — job isolation
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                self.counters["jobs_failed"] += 1
            finally:
                job.finished_at = time.time()
                self._finished.append(job.id)
                while len(self._finished) > MAX_FINISHED_JOBS:
                    del self.jobs[self._finished.popleft()]
                    self.counters["jobs_evicted"] += 1

    # -- HTTP --------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                method, path, headers, body = await _read_request(reader)
                status, payload = self._route(method, path, body)
            except _HttpError as err:
                status, payload = err.status, {"error": err.message}
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 — never kill the loop
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            data = json.dumps(payload, sort_keys=True).encode()
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + data)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "session": self.session.session_id,
                "uptime_s": (
                    round(time.monotonic() - self._started_at, 3)
                    if self._started_at is not None
                    else 0.0
                ),
                "queue_depth": len(self.queue),
            }
        if path == "/metrics" and method == "GET":
            return 200, {
                "server": dict(
                    self.counters,
                    jobs_retained=len(self.jobs),
                    queue_depth=len(self.queue),
                    queue_depth_by_tenant=self.queue.depths(),
                    job_workers=self.job_workers,
                ),
                "session": self.session.stats(),
            }
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [job.summary() for job in self.jobs.values()]}
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "job resources are read-only"}
            parts = path.strip("/").split("/")
            job = self.jobs.get(parts[1])
            if job is None:
                return 404, {"error": f"no such job {parts[1]!r}"}
            if len(parts) == 2:
                return 200, job.to_dict()
            if len(parts) == 3 and parts[2] == "trace":
                from repro.telemetry.export import chrome_trace_events

                return 200, {
                    "traceEvents": chrome_trace_events(
                        job.tracer.spans,
                        process_name=f"cuzchecker job {job.id}",
                    )
                }
            return 404, {"error": f"unknown job resource {path!r}"}
        if path == "/shutdown" and method == "POST":
            self._stopping.set()
            return 200, {"status": "shutting down"}
        return 404, {"error": f"no route for {method} {path}"}

    def _submit(self, body: bytes):
        try:
            spec = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"body must be JSON: {exc}"}
        if not isinstance(spec, dict):
            return 400, {"error": "job spec must be a JSON object"}
        tenant = str(spec.get("tenant", "default"))
        job = Job(spec=spec, tenant=tenant)
        try:
            self.queue.submit(job)
        except QueueFullError as exc:
            self.counters["jobs_rejected"] += 1
            return 429, {"error": str(exc)}
        self.jobs[job.id] = job
        self.counters["jobs_submitted"] += 1
        self._wakeup.set()
        return 202, {"id": job.id, "status": job.status, "tenant": tenant}
