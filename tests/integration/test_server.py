"""End-to-end tests of ``cuzchecker serve`` run in-process.

One AssessmentServer on an ephemeral port, driven over real HTTP with
``http.client``.  The acceptance-criteria test is here: a second
identical job hits the warm plan memo (observable in ``/metrics``) and
returns a byte-identical report.
"""

from __future__ import annotations

import asyncio
import base64
import http.client
import io
import json
import threading
import time

import numpy as np
import pytest

from repro.parallel.executor import active_pool_counts
from repro.parallel.shm import active_segment_count
from repro.server.app import AssessmentServer


def _npy_b64(arr: np.ndarray) -> str:
    buf = io.BytesIO()
    np.save(buf, arr)
    return base64.b64encode(buf.getvalue()).decode("ascii")


class _LiveServer:
    """AssessmentServer on port 0 in a daemon thread, with HTTP helpers."""

    def __init__(self, **kwargs):
        self.server = AssessmentServer(port=0, **kwargs)
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def __enter__(self):
        self._ready = threading.Event()
        self.thread.start()
        assert self._ready.wait(timeout=30), "server did not start"
        return self

    def __exit__(self, *exc):
        if self.thread.is_alive():
            try:
                self.request("POST", "/shutdown")
            except OSError:
                pass
            self.thread.join(timeout=30)

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=60
        )
        try:
            conn.request(
                method, path, body=json.dumps(body) if body is not None else None
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode())
        finally:
            conn.close()

    def wait_for(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload = self.request("GET", f"/jobs/{job_id}")
            assert status == 200
            if payload["status"] in ("done", "failed"):
                return payload
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture(scope="module")
def live():
    with _LiveServer() as srv:
        yield srv


@pytest.fixture(scope="module")
def npy_spec(noisy_pair):
    orig, dec = noisy_pair
    return {
        "original_npy_b64": _npy_b64(orig),
        "decompressed_npy_b64": _npy_b64(dec),
    }


class TestEndpoints:
    def test_healthz(self, live):
        status, payload = live.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["session"] == live.server.session.session_id

    def test_unknown_route_404(self, live):
        status, payload = live.request("GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_job_resources_read_only(self, live):
        status, _ = live.request("DELETE", "/jobs/anything")
        assert status == 405

    def test_unknown_job_404(self, live):
        status, _ = live.request("GET", "/jobs/job-missing")
        assert status == 404

    def test_bad_json_400(self, live):
        conn = http.client.HTTPConnection(
            "127.0.0.1", live.server.port, timeout=60
        )
        try:
            conn.request("POST", "/jobs", body="{not json")
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()

    def test_non_object_spec_400(self, live):
        status, _ = live.request("POST", "/jobs", body=[1, 2, 3])
        assert status == 400

    def test_invalid_spec_fails_job_not_server(self, live):
        status, sub = live.request("POST", "/jobs", body={"bogus": True})
        assert status == 202
        done = live.wait_for(sub["id"])
        assert done["status"] == "failed"
        assert "unrecognised job spec" in done["error"]
        # the server survives the failed job
        assert live.request("GET", "/healthz")[0] == 200


class TestWarmPath:
    def test_second_identical_job_is_warm_and_byte_identical(
        self, live, npy_spec
    ):
        """The PR's acceptance criterion, end to end over HTTP."""
        status, sub1 = live.request("POST", "/jobs", body=npy_spec)
        assert status == 202
        job1 = live.wait_for(sub1["id"])
        assert job1["status"] == "done", job1.get("error")
        _, before = live.request("GET", "/metrics")

        status, sub2 = live.request("POST", "/jobs", body=npy_spec)
        assert status == 202
        job2 = live.wait_for(sub2["id"])
        assert job2["status"] == "done", job2.get("error")
        _, after = live.request("GET", "/metrics")

        # byte-identical report over the wire
        assert json.dumps(job1["report"], sort_keys=True) == json.dumps(
            job2["report"], sort_keys=True
        )
        # the repeat skipped plan construction: memo hits grew, misses
        # (= plan builds) did not
        assert (
            after["session"]["plan_cache_hits"]
            > before["session"]["plan_cache_hits"]
        )
        assert (
            after["session"]["plan_cache_misses"]
            == before["session"]["plan_cache_misses"]
        )

    def test_trace_endpoint_serves_job_spans(self, live, npy_spec):
        _, sub = live.request("POST", "/jobs", body=npy_spec)
        live.wait_for(sub["id"])
        status, payload = live.request("GET", f"/jobs/{sub['id']}/trace")
        assert status == 200
        events = payload["traceEvents"]
        assert events
        names = {e.get("name") for e in events}
        assert any(str(n).startswith("job:") for n in names)

    def test_jobs_listing(self, live, npy_spec):
        _, sub = live.request("POST", "/jobs", body=npy_spec)
        live.wait_for(sub["id"])
        status, payload = live.request("GET", "/jobs")
        assert status == 200
        ids = {j["id"] for j in payload["jobs"]}
        assert sub["id"] in ids
        assert all("report" not in j for j in payload["jobs"])

    def test_finished_jobs_do_not_retain_their_uploads(self, live, npy_spec):
        """The job table keeps every spec: after N npy jobs it must hold
        O(N * 100 B) of spec, not N base64 uploads, and every GET view of
        a finished job answers as before."""
        upload = sum(len(v) for v in npy_spec.values())
        ids = []
        for _ in range(4):
            _, sub = live.request("POST", "/jobs", body=npy_spec)
            ids.append(sub["id"])
        reports = []
        for job_id in ids:
            done = live.wait_for(job_id)
            assert done["status"] == "done", done.get("error")
            reports.append(json.dumps(done["report"], sort_keys=True))
            status, trace = live.request("GET", f"/jobs/{job_id}/trace")
            assert status == 200 and trace["traceEvents"]
        assert len(set(reports)) == 1
        _, listing = live.request("GET", "/jobs")
        assert set(ids) <= {j["id"] for j in listing["jobs"]}

        retained = [len(json.dumps(live.server.jobs[i].spec)) for i in ids]
        assert max(retained) <= 100 < upload
        spec = live.server.jobs[ids[0]].spec
        assert spec["original_npy_b64"] == len(npy_spec["original_npy_b64"])
        assert spec["decompressed_npy_b64"] == len(npy_spec["decompressed_npy_b64"])

    def test_tenant_flows_to_metrics(self, live, npy_spec):
        spec = dict(npy_spec, tenant="acme")
        status, sub = live.request("POST", "/jobs", body=spec)
        assert sub["tenant"] == "acme"
        live.wait_for(sub["id"])
        _, metrics = live.request("GET", "/metrics")
        assert metrics["server"]["jobs_submitted"] >= 1


class TestAdmissionControl:
    def test_429_when_queue_full(self):
        # no event loop: drive _submit directly with a one-slot queue so
        # the rejection is deterministic (no worker racing the flood)
        server = AssessmentServer(port=0, max_queue=1)
        server._wakeup = asyncio.Event()
        body = json.dumps({"dataset": "miranda"}).encode()
        assert server._submit(body)[0] == 202
        status, payload = server._submit(body)
        assert status == 429
        assert "full" in payload["error"]
        assert server.counters["jobs_rejected"] == 1
        server.session.close()


class TestCleanShutdown:
    def test_shutdown_releases_everything(self, npy_spec):
        with _LiveServer() as srv:
            _, sub = srv.request("POST", "/jobs", body=npy_spec)
            srv.wait_for(sub["id"])
            session = srv.server.session
            status, _ = srv.request("POST", "/shutdown")
            assert status == 200
            srv.thread.join(timeout=30)
            assert not srv.thread.is_alive()
        assert not session.is_open
        assert active_pool_counts() == ()
        assert active_segment_count() == 0
