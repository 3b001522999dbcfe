"""CLI smoke tests: every subcommand via main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.io.raw import write_raw


@pytest.fixture()
def pair_files(tmp_path, banded_pair):
    orig, dec = banded_pair
    a = tmp_path / "orig.f32"
    b = tmp_path / "dec.f32"
    write_raw(a, orig)
    write_raw(b, dec)
    return a, b, orig.shape


class TestAnalyze:
    def test_text_report(self, pair_files, capsys):
        a, b, shape = pair_files
        rc = main([
            "analyze", str(a), str(b),
            "--shape", ",".join(map(str, shape)),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "psnr" in out
        assert "speedup vs ompZC" in out

    def test_json_and_dat_outputs(self, pair_files, tmp_path, capsys):
        a, b, shape = pair_files
        json_path = tmp_path / "r.json"
        dat_dir = tmp_path / "dats"
        rc = main([
            "analyze", str(a), str(b),
            "--shape", ",".join(map(str, shape)),
            "--json", str(json_path),
            "--dat-dir", str(dat_dir),
        ])
        assert rc == 0
        assert "metrics" in json.loads(json_path.read_text())
        assert (dat_dir / "autocorrelation.dat").exists()

    def test_with_config_file(self, pair_files, tmp_path, capsys):
        a, b, shape = pair_files
        cfg = tmp_path / "zc.cfg"
        cfg.write_text("[PATTERN3]\nwindow = 6\n")
        rc = main([
            "analyze", str(a), str(b),
            "--shape", ",".join(map(str, shape)),
            "--config", str(cfg),
        ])
        assert rc == 0

    def test_serial_run_never_imports_the_parallel_stack(self, pair_files):
        """``CheckerSession.close()`` shuts pools down only if the
        executor module was ever loaded: a one-job serial CLI process
        must end without multiprocessing / concurrent.futures (25 ms of
        every cold start when close() imported them to find no pool)."""
        a, b, shape = pair_files
        code = (
            "import json, runpy, sys\n"
            f"sys.argv = ['cuzchecker', 'analyze', {str(a)!r}, {str(b)!r}, "
            f"'--shape', {','.join(map(str, shape))!r}, '--executor', 'serial']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "heavy = ('multiprocessing', 'concurrent.futures', "
            "'repro.parallel.executor')\n"
            "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "psnr" in proc.stdout
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []

    def test_bad_shape_exits(self, pair_files):
        a, b, _ = pair_files
        with pytest.raises(SystemExit):
            main(["analyze", str(a), str(b), "--shape", "4,4"])


class TestOtherCommands:
    def test_assess(self, capsys):
        rc = main([
            "assess", "--dataset", "miranda", "--scale", "0.06",
            "--codec", "sz", "--rel-bound", "1e-3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compression_ratio" in out

    def test_generate(self, tmp_path, capsys):
        rc = main([
            "generate", "--dataset", "nyx", "--out", str(tmp_path / "b"),
            "--scale", "0.03", "--fields", "2",
        ])
        assert rc == 0
        assert (tmp_path / "b" / "manifest.json").exists()

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Category I" in out and "ssim" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "14.3k" in out and "17.0KB" in out

    def test_profile(self, tmp_path, capsys):
        rc = main([
            "profile", "--dataset", "miranda", "--scale", "0.05",
            "--metrics", "psnr", "--out-dir", str(tmp_path / "prof"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-kernel profile" in out
        assert (tmp_path / "prof" / "trace.json").exists()
        assert (tmp_path / "prof" / "spans.csv").exists()

    def test_speedups_overall(self, capsys):
        assert main(["speedups"]) == 0
        assert "ompZC" in capsys.readouterr().out

    def test_speedups_pattern(self, capsys):
        assert main(["speedups", "--pattern", "1"]) == 0
        assert "Pattern-1" in capsys.readouterr().out

    def test_throughput(self, capsys):
        assert main(["throughput", "--pattern", "3"]) == 0
        assert "MB/s" in capsys.readouterr().out
