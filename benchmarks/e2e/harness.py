"""Measurement plumbing shared by the workloads: percentiles, CPU and
memory readings, the per-run scratch tree, the host description."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

__all__ = [
    "E2E_DIR",
    "REPO_ROOT",
    "tail_rank",
    "tail_percentile",
    "tail_value",
    "median",
    "cpu_seconds",
    "proc_status_mb",
    "self_peak_rss_mb",
    "children_peak_rss_mb",
    "WorkDir",
    "host_info",
    "git_commit",
]

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent

#: a tail percentile needs this many samples beyond it to mean anything
TAIL_BEYOND = 10


def tail_rank(n: int) -> int:
    """0-based rank (ascending) of the tail sample for ``n`` ops: the
    highest one that still has ``TAIL_BEYOND`` samples beyond it.  With
    fewer than 11 samples there is no such rank and the maximum is used."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def tail_percentile(n: int) -> float:
    """The percentile :func:`tail_rank` stands for: ``100·(n−10)/n``.

    N=24 → p58.33, N=32 → p68.75, N=40 → p75, N=200 → p95; N ≤ 10 → 100
    (the maximum, labelled as such by the caller).
    """
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0


def tail_value(samples: list[float]) -> float:
    return sorted(samples)[tail_rank(len(samples))]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(live_pids: tuple[int, ...] = ()) -> float:
    """User+system CPU of this process, its reaped children, and the
    still-running children in ``live_pids`` (a server child is not
    reaped until shutdown, so the rusage of children would miss it)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + kids.ru_utime + kids.ru_stime
    for pid in live_pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime+stime
    return total


def proc_status_mb(pid: int, key: str) -> float:
    """``VmHWM`` (peak RSS) or ``VmRSS`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped children (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class WorkDir:
    """The run's private tree inside the checkout: inputs, bundles, the
    children's ``HOME`` and ``TMPDIR``.  Removed on exit, also on failure."""

    def __init__(self):
        self.path = E2E_DIR / ".work" / f"run-{os.getpid()}"

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        for sub in ("home", "tmp"):
            (self.path / sub).mkdir(parents=True)
        # the benchmark process and every child it starts: no reads of the
        # user's calibration cache, no temp files outside the checkout
        os.environ["HOME"] = str(self.path / "home")
        os.environ["TMPDIR"] = str(self.path / "tmp")
        os.environ.pop("XDG_CACHE_HOME", None)
        return self

    def __exit__(self, *exc) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
        return False


def _cache_sizes() -> dict[str, str]:
    sizes: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            try:
                level = (index / "level").read_text().strip()
                kind = (index / "type").read_text().strip()
                size = (index / "size").read_text().strip()
            except OSError:
                continue
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    return sizes


def _importable(module: str) -> bool:
    try:
        __import__(module)
    except ImportError:
        return False
    return True


def host_info() -> dict:
    import numpy

    mem_kb = 0
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "ram_MB": round(mem_kb / 1024.0),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # optional accelerators: reported absent, not silently skipped —
        # without numba there is no compiled-host backend, without
        # zstandard a zstd bundle falls back to zlib
        "numba": _importable("numba"),
        "zstandard": _importable("zstandard"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "executable": sys.executable,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository, and no process is spawned for this)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = git / head[5:]
            if ref.exists():
                return ref.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + head[5:]):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"
