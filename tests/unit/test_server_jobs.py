"""Tests for the server job model: admission, fairness, spec execution."""

from __future__ import annotations

import asyncio
import base64
import io

import numpy as np
import pytest

from repro.errors import CheckerError
from repro.server.app import MAX_FINISHED_JOBS, AssessmentServer
from repro.server.jobs import Job, JobQueue, QueueFullError, execute_job
from repro.service.session import CheckerSession


def _npy_b64(arr: np.ndarray) -> str:
    buf = io.BytesIO()
    np.save(buf, arr)
    return base64.b64encode(buf.getvalue()).decode("ascii")


@pytest.fixture()
def session():
    with CheckerSession() as s:
        yield s


class TestJob:
    def test_defaults(self):
        job = Job(spec={"dataset": "miranda"})
        assert job.status == "queued"
        assert job.id.startswith("job-")
        assert job.tenant == "default"

    def test_to_dict_shapes(self):
        job = Job(spec={}, tenant="acme")
        d = job.to_dict()
        assert d["status"] == "queued"
        assert d["tenant"] == "acme"
        assert "report" not in d
        assert "error" not in d
        assert d["progress"]["spans"] == 0

    def test_summary_never_carries_report(self, session, noisy_pair):
        orig, dec = noisy_pair
        job = Job(
            spec={
                "original_npy_b64": _npy_b64(orig),
                "decompressed_npy_b64": _npy_b64(dec),
            }
        )
        job.report = execute_job(session, job)
        assert "report" in job.to_dict()
        assert "report" not in job.summary()

    def test_progress_reads_span_feed(self, session, noisy_pair):
        orig, dec = noisy_pair
        job = Job(
            spec={
                "original_npy_b64": _npy_b64(orig),
                "decompressed_npy_b64": _npy_b64(dec),
            }
        )
        execute_job(session, job)
        prog = job.progress()
        assert prog["spans"] > 0
        assert "last_span" in prog


class TestJobQueue:
    def test_bounded_admission(self):
        q = JobQueue(max_pending=2)
        q.submit(Job(spec={}))
        q.submit(Job(spec={}))
        with pytest.raises(QueueFullError):
            q.submit(Job(spec={}))

    def test_bound_frees_up_after_dispatch(self):
        q = JobQueue(max_pending=1)
        q.submit(Job(spec={}))
        assert q.next_job() is not None
        q.submit(Job(spec={}))  # no raise

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(CheckerError):
            JobQueue(max_pending=0)

    def test_fifo_within_tenant(self):
        q = JobQueue()
        jobs = [Job(spec={"n": i}) for i in range(3)]
        for job in jobs:
            q.submit(job)
        assert [q.next_job() for _ in range(3)] == jobs

    def test_round_robin_across_tenants(self):
        q = JobQueue()
        a = [Job(spec={}, tenant="a") for _ in range(3)]
        b = [Job(spec={}, tenant="b") for _ in range(1)]
        c = [Job(spec={}, tenant="c") for _ in range(1)]
        for job in a:
            q.submit(job)
        for job in b + c:
            q.submit(job)
        # a flooding tenant gets every k-th slot, not a monopoly
        order = [q.next_job().tenant for _ in range(5)]
        assert order == ["a", "b", "c", "a", "a"]
        assert q.next_job() is None

    def test_depths_and_len(self):
        q = JobQueue()
        q.submit(Job(spec={}, tenant="a"))
        q.submit(Job(spec={}, tenant="a"))
        q.submit(Job(spec={}, tenant="b"))
        assert len(q) == 3
        assert q.depths() == {"a": 2, "b": 1}
        q.next_job()
        assert len(q) == 2


class TestExecuteJob:
    def test_npy_job_matches_direct_assess(self, session, noisy_pair):
        orig, dec = noisy_pair
        job = Job(
            spec={
                "original_npy_b64": _npy_b64(orig),
                "decompressed_npy_b64": _npy_b64(dec),
            }
        )
        report = execute_job(session, job)
        direct = session.assess(orig, dec)
        assert report.to_dict() == direct.to_dict()

    def test_path_job(self, session, tmp_path, noisy_pair):
        orig, dec = noisy_pair
        op, dp = tmp_path / "o.bin", tmp_path / "d.bin"
        op.write_bytes(orig.tobytes())
        dp.write_bytes(dec.tobytes())
        job = Job(
            spec={
                "original_path": str(op),
                "decompressed_path": str(dp),
                "shape": list(orig.shape),
            }
        )
        report = execute_job(session, job)
        assert report.to_dict() == session.assess(orig, dec).to_dict()

    def test_synthetic_job(self, session):
        job = Job(
            spec={"dataset": "miranda", "scale": 0.05, "codec": "sz",
                  "rel_bound": 1e-3}
        )
        report = execute_job(session, job)
        assert report.scalars()["psnr"] > 0

    def test_metric_override_flows_through(self, session, noisy_pair):
        orig, dec = noisy_pair
        job = Job(
            spec={
                "original_npy_b64": _npy_b64(orig),
                "decompressed_npy_b64": _npy_b64(dec),
                "metrics": "psnr,nrmse",
            }
        )
        report = execute_job(session, job)
        scalars = report.scalars()
        assert "psnr" in scalars
        assert "ssim" not in scalars

    def test_path_job_needs_both_paths(self, session):
        with pytest.raises(CheckerError, match="both"):
            execute_job(session, Job(spec={"original_path": "/x"}))

    def test_path_job_needs_3d_shape(self, session, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"\0" * 16)
        spec = {
            "original_path": str(p),
            "decompressed_path": str(p),
            "shape": [2, 2],
        }
        with pytest.raises(CheckerError, match="3-element shape"):
            execute_job(session, Job(spec=spec))

    def test_npy_job_rejects_bad_base64(self, session):
        spec = {
            "original_npy_b64": "!!!not-base64!!!",
            "decompressed_npy_b64": "!!!not-base64!!!",
        }
        with pytest.raises(CheckerError, match="invalid .npy upload"):
            execute_job(session, Job(spec=spec))

    def test_npy_job_rejects_a_zip_upload(self, session):
        """``np.load`` answers ``PK\\x03\\x04`` bytes with ``BadZipFile``
        (no ValueError/OSError parent): the magic check comes first."""
        zipped = base64.b64encode(b"PK\x03\x04" + b"\0" * 64).decode("ascii")
        spec = {"original_npy_b64": zipped, "decompressed_npy_b64": zipped}
        with pytest.raises(CheckerError, match="invalid .npy upload: not an .npy file"):
            execute_job(session, Job(spec=spec))

    def test_npy_job_rejects_a_non_string_upload(self, session):
        spec = {"original_npy_b64": 5, "decompressed_npy_b64": ["x"]}
        with pytest.raises(CheckerError, match="invalid .npy upload: expected a base64 string"):
            execute_job(session, Job(spec=spec))

    def test_npy_job_drops_its_uploads_even_when_one_is_bad(self, session, noisy_pair):
        good = _npy_b64(noisy_pair[0])
        job = Job(spec={"original_npy_b64": good, "decompressed_npy_b64": "!!!"})
        with pytest.raises(CheckerError, match="invalid .npy upload"):
            execute_job(session, job)
        assert job.spec == {"original_npy_b64": len(good), "decompressed_npy_b64": 3}

    def test_npy_job_does_not_relabel_resource_failures(
        self, session, noisy_pair, monkeypatch
    ):
        """Only decode failures are "invalid upload": running out of
        memory while materialising one is not the client's mistake."""
        def exhausted(*args, **kwargs):
            raise MemoryError("no room for the upload")

        monkeypatch.setattr(np, "load", exhausted)
        good = _npy_b64(noisy_pair[0])
        job = Job(spec={"original_npy_b64": good, "decompressed_npy_b64": good})
        with pytest.raises(MemoryError):
            execute_job(session, job)

    def test_unknown_spec_rejected(self, session):
        with pytest.raises(CheckerError, match="unrecognised job spec"):
            execute_job(session, Job(spec={"bogus": True}))

    def test_audit_job(self, session, tmp_path):
        from repro.datasets.fields import Dataset, Field
        from repro.io.bundle import save_bundle_chunked

        rng = np.random.default_rng(3)
        ds = Dataset(name="tree")
        ds.add(Field("f", rng.normal(size=(6, 8, 8)).astype(np.float32)))
        save_bundle_chunked(ds, tmp_path / "tree" / "b", chunk_nz=3)

        job = Job(spec={
            "audit_root": str(tmp_path / "tree"),
            "audit_workers": "serial",
            "use_ssim": False,
        })
        report = execute_job(session, job)
        doc = report.to_dict()
        assert doc["format"] == "cuzchecker-audit-report-v1"
        assert doc["totals"]["fields"] == 1
        job.report = report
        assert job.to_dict()["report"]["totals"]["fields"] == 1
        # the job's tracer carried the per-chunk progress spans
        assert any(s.name == "chunk_read" for s in job.tracer.spans)


class TestJobTableRetention:
    def test_finished_jobs_are_evicted_beyond_the_cap(self):
        """3x cap sequential jobs: the table ends at exactly the cap,
        holding the most recent ones; older ids answer 404 and the
        counters say what happened.  (Bad specs fail fast, and a failed
        job is retained like a finished one.)"""
        total = 3 * MAX_FINISHED_JOBS

        async def main():
            server = AssessmentServer(port=0)
            await server.start()
            try:
                ids = []
                for _ in range(total):
                    status, payload = server._submit(b'{"bogus": true}')
                    assert status == 202
                    ids.append(payload["id"])
                    job = server.jobs[payload["id"]]
                    while job.finished_at is None:  # queued/running: never evicted
                        assert job.id in server.jobs
                        await asyncio.sleep(0)
                return server, ids
            finally:
                await server.stop()

        server, ids = asyncio.run(asyncio.wait_for(main(), timeout=120))
        assert len(server.jobs) == MAX_FINISHED_JOBS
        assert list(server.jobs) == ids[-MAX_FINISHED_JOBS:]
        assert server._route("GET", f"/jobs/{ids[0]}", b"")[0] == 404
        assert server._route("GET", f"/jobs/{ids[-1]}", b"")[0] == 200
        status, metrics = server._route("GET", "/metrics", b"")
        assert status == 200
        assert metrics["server"]["jobs_retained"] == MAX_FINISHED_JOBS
        assert metrics["server"]["jobs_evicted"] == total - MAX_FINISHED_JOBS
        assert metrics["server"]["jobs_failed"] == total


class TestJobThreads:
    def test_jobs_run_on_the_bounded_pool(self, monkeypatch):
        """Jobs run on a pool of exactly ``job_workers`` threads, not on
        asyncio's default executor: that one starts another thread when a
        job is submitted before the last one's thread has marked itself
        idle, and every extra thread is another malloc arena (~25 MB of
        RSS under uploads, at a scheduling-dependent moment)."""
        import threading

        seen = set()
        monkeypatch.setattr(
            "repro.server.app.execute_job",
            lambda session, job: seen.add(threading.current_thread().name),
        )

        async def main():
            server = AssessmentServer(port=0, job_workers=1)
            await server.start()
            try:
                assert server._pool._max_workers == server.job_workers
                for _ in range(50):
                    job = server.jobs[server._submit(b"{}")[1]["id"]]
                    while job.finished_at is None:
                        await asyncio.sleep(0)
            finally:
                await server.stop()
            assert server._pool is None  # shut down with the server

        asyncio.run(asyncio.wait_for(main(), timeout=120))
        assert seen == {"cuzchecker-job_0"}
