"""What a killed audit leaves behind besides its checkpoint, and what a
resumed run does about it: orphaned temp files are swept, a corrupt
worker part file is discarded *loudly* — warning, count in the
``resume`` event — with the final report still correct, and a halo that
cannot be re-derived (archive or codec changed under the checkpoint)
stops the resume with one typed error before anything is written.
"""

import os
import shutil
import warnings

import numpy as np
import pytest

import repro.audit.runner as runner
from repro.audit import AuditInterrupted, AuditResumeError, run_audit
from repro.audit.checkpoint import (
    AuditCheckpoint,
    part_path_for,
    parts_dir_for,
    sweep_stale_temps,
)
from repro.datasets.fields import Dataset, Field
from repro.io.bundle import load_bundle, save_bundle_chunked
from repro.parallel import process_available


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("recovery_tree")
    rng = np.random.default_rng(11)
    ds = Dataset(name="alpha")
    for name in ("u", "v"):
        ds.add(Field(name, rng.normal(5.0, 2.0, size=(9, 12, 12)).astype(np.float32)))
    save_bundle_chunked(ds, root / "alpha", chunk_nz=3)
    ref = root / "reference.json"
    run_audit(root, out_path=ref, checkpoint_path=root / "ck_ref.json",
              workers="serial")
    return root, ref.read_bytes()


def _other_pid() -> int:
    """Some pid that is not this process's, as a killed writer's would be."""
    return os.getpid() + 1


class TestStaleTempFiles:
    def test_sweep_spares_live_and_foreign_files(self, tmp_path):
        stale = tmp_path / f".ck.json.{_other_pid()}.140001.tmp"
        live = tmp_path / f".ck.json.{os.getpid()}.140002.tmp"
        other_checkpoint = tmp_path / f".ck.json.old.json.{_other_pid()}.1.tmp"
        not_a_temp = tmp_path / ".ck.json.notes.draft.tmp"
        for path in (stale, live, other_checkpoint, not_a_temp):
            path.write_bytes(b"x")
        assert sweep_stale_temps(tmp_path, "ck.json") == 1
        assert not stale.exists()
        assert live.exists() and other_checkpoint.exists() and not_a_temp.exists()
        assert sweep_stale_temps(tmp_path / "absent", "ck.json") == 0

    def test_killed_writers_temps_are_gone_after_resume(self, tree, tmp_path):
        root, ref_bytes = tree
        ck = tmp_path / "work" / "ck.json"
        parts = parts_dir_for(ck)
        parts.mkdir(parents=True)
        stale = ck.with_name(f".ck.json.{_other_pid()}.140001.tmp")
        stale_part = parts / f".part-0123456789abcdef.json.{_other_pid()}.7.tmp"
        live = ck.with_name(f".ck.json.{os.getpid()}.140002.tmp")
        for path in (stale, stale_part, live):
            path.write_bytes(b"\0" * 4096)

        out = tmp_path / "report.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, workers="serial",
                      stop_after_chunks=2)
        assert not stale.exists() and not stale_part.exists()
        assert live.exists()  # a live writer's temp is never touched

        # the killed run's own orphan, found by the resumed run
        orphan = ck.with_name(f".ck.json.{_other_pid()}.140003.tmp")
        orphan.write_bytes(ck.read_bytes())
        run_audit(root, out_path=out, checkpoint_path=ck, workers="serial")
        assert out.read_bytes() == ref_bytes
        assert sorted(p.name for p in ck.parent.iterdir()) == [live.name]

    def test_delete_sweeps(self, tmp_path):
        ck = AuditCheckpoint(tmp_path / "ck.json")
        ck.save({"completed": []})
        orphan = tmp_path / f".ck.json.{_other_pid()}.1.tmp"
        orphan.write_bytes(b"x")
        ck.delete()
        assert list(tmp_path.iterdir()) == []


class TestHaloCannotBeRederived:
    """A light checkpoint trusts the archive and the codec to reproduce
    the chunks under its SSIM ring / autocorrelation carry; the per-chunk
    CRC-32s it carries are what notices when they do not."""

    def _killed(self, root, tmp_path, **kwargs):
        ck = tmp_path / "ck.json"
        out = tmp_path / "report.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, workers="serial",
                      stop_after_chunks=5, **kwargs)  # alpha::v, two chunks in
        record = AuditCheckpoint(ck).load()["in_progress"]
        assert record["chunks_done"] == len(record["halo_crc"]) == 2
        return ck, out

    def _assert_refused(self, ck, out, **kwargs):
        before = ck.read_bytes()
        with pytest.raises(AuditResumeError, match=r"alpha::v: chunk \d .*--fresh"):
            run_audit(out_path=out, checkpoint_path=ck, workers="serial", **kwargs)
        assert not out.exists()
        assert ck.read_bytes() == before

    def test_flipped_archive_byte_between_kill_and_resume(self, tree, tmp_path):
        src, ref_bytes = tree
        root = tmp_path / "tree"
        shutil.copytree(src / "alpha", root / "alpha")
        ck, out = self._killed(root, tmp_path, verify=False)
        bundle = load_bundle(root / "alpha")
        chunk = bundle.field_chunks("v")[1]
        path = bundle.field_path("v")
        blob = bytearray(path.read_bytes())
        blob[chunk.offset + chunk.nbytes // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        self._assert_refused(ck, out, root=root, verify=False)
        # restoring the archive is enough: the checkpoint was left alone
        blob[chunk.offset + chunk.nbytes // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        run_audit(root, out_path=out, checkpoint_path=ck, workers="serial",
                  verify=False)
        assert out.read_bytes() == ref_bytes

    def test_nondeterministic_codec(self, tree, tmp_path, monkeypatch):
        root, _ = tree

        class Drifting:
            """Round trip that differs on every call."""

            def __init__(self):
                self.calls = 0

            def compress(self, block):
                self.calls += 1
                return block + np.float32(self.calls)

            def decompress(self, payload):
                return payload

        monkeypatch.setattr(runner, "_codec_for", lambda codec, args: Drifting())
        ck, out = self._killed(root, tmp_path)
        self._assert_refused(ck, out, root=root)


@pytest.mark.skipif(
    not process_available(), reason="process pools unavailable on this host"
)
class TestCorruptPartFile:
    def _killed_parallel_run(self, root, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "report.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, workers=2,
                      stop_after_chunks=2)
        part = part_path_for(parts_dir_for(ck), "alpha::u")
        assert AuditCheckpoint(part).load()["chunks_done"] == 2
        blob = bytearray(part.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        part.write_bytes(bytes(blob))
        return ck, out, part

    @pytest.mark.parametrize("resume_workers", ["serial", 2])
    def test_flipped_byte_warns_and_report_is_correct(
        self, tree, tmp_path, resume_workers
    ):
        root, ref_bytes = tree
        ck, out, part = self._killed_parallel_run(root, tmp_path)
        events = []
        with pytest.warns(RuntimeWarning, match="CRC mismatch") as caught:
            run_audit(
                root, out_path=out, checkpoint_path=ck, workers=resume_workers,
                progress=lambda event, payload: events.append((event, payload)),
            )
        ours = [w for w in caught if "part file" in str(w.message)]
        assert len(ours) == 1 and str(part) in str(ours[0].message)
        event, payload = events[0]
        assert event == "resume" and payload["discarded_parts"] == 1
        assert out.read_bytes() == ref_bytes
        assert not ck.exists() and not parts_dir_for(ck).exists()

    def test_intact_parts_do_not_warn(self, tree, tmp_path):
        root, ref_bytes = tree
        ck = tmp_path / "ck.json"
        out = tmp_path / "report.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, workers=2,
                      stop_after_chunks=1)
        events = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_audit(
                root, out_path=out, checkpoint_path=ck, workers="serial",
                progress=lambda event, payload: events.append((event, payload)),
            )
        assert events[0][1]["discarded_parts"] == 0
        assert out.read_bytes() == ref_bytes
