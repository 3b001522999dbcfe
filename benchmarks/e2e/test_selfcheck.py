"""Self-check of the benchmark's own machinery.

Run with ``python -m pytest benchmarks/e2e/test_selfcheck.py`` or
``python benchmarks/e2e/run.py --selfcheck``.  Not part of the tier-1
suite (``pyproject.toml`` collects ``tests/`` only).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
for entry in (str(REPO_ROOT / "src"), str(E2E_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings():
    """Every module- and class-level binding of the imported repro tree."""
    seen = {}
    for mod in tracing._repro_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    seen[(mod.__name__, attr, name)] = id(member)
    return seen


def _small_pair():
    rng = np.random.default_rng(5)
    orig = rng.normal(size=(16, 32, 32)).astype(np.float32)
    dec = (orig + rng.normal(scale=1e-3, size=orig.shape)).astype(np.float32)
    return orig, dec


def test_rebinding_restores_every_original():
    import repro.engine.backends as backends
    from repro.core.workspace import MetricWorkspace
    from repro.kernels.pattern1 import execute_pattern1

    rebinder = tracing.Rebinder(tracing.Recorder(), layers.TARGETS)
    rebinder._resolve()  # imports every target module before the snapshot
    before = _bindings()
    with rebinder:
        # a from-import copy in another namespace is rebound too
        assert backends.execute_pattern1 is not execute_pattern1
        assert isinstance(vars(MetricWorkspace)["o64"], property)
        assert _bindings() != before
    assert backends.execute_pattern1 is execute_pattern1
    assert _bindings() == before
    assert tracing.leftover_wrappers() == []


def test_wrappers_copied_by_a_late_import_are_swept():
    import repro.io.raw as raw

    rebinder = tracing.Rebinder(tracing.Recorder(), layers.TARGETS)
    original = raw.read_raw
    with rebinder:
        # what a module first imported during the traced pass would do
        raw.late_copy = raw.read_raw
    try:
        assert raw.late_copy is original
    finally:
        del raw.late_copy


def test_self_times_are_non_negative_and_bounded_by_the_op():
    from repro.service.session import CheckerSession
    from workloads import bench_config

    recorder = tracing.Recorder()
    rebinder = tracing.Rebinder(recorder, layers.TARGETS)
    orig, dec = _small_pair()
    with CheckerSession(config=bench_config()) as session:
        session.assess(orig, dec)  # warm: imports and plan memo
        recorder.op = 0
        t0 = time.perf_counter()
        with rebinder:
            session.assess(orig, dec)
        wall = time.perf_counter() - t0
    spans = recorder.spans
    assert len(spans) > 10
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) <= wall
    values = layers.derive(spans, 1, wall)
    assert 0.0 <= values["bench.unattributed_share"] < 1.0
    assert values["kernels.pattern3_s"] > 0.0


def test_generator_spans_exclude_the_consumer():
    ticks = iter(range(1000))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    def produce():
        yield 1
        yield 2

    target = tracing.Target("io.chunk_read_s", "m", "produce")
    wrapped = tracing._make_wrapper(recorder, target, produce)
    for _ in wrapped():
        next(ticks), next(ticks), next(ticks)  # consumer burns three ticks
    # two items + the StopIteration step, one tick each whatever the consumer did
    assert [s.duration for s in recorder.spans] == [1.0, 1.0, 1.0]


def test_nested_self_time_with_a_fake_clock():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    recorder = tracing.Recorder(clock=lambda: next(ticks))
    outer = recorder.open("a", "outer")
    inner = recorder.open("b", "inner")
    recorder.close(inner)
    recorder.close(outer)
    assert tracing.self_times(recorder.spans) == [7.0, 3.0]
    assert recorder.spans[inner].parent == outer


@pytest.mark.parametrize(
    "n, percentile", [(24, 175 / 3), (32, 68.75), (40, 75.0), (200, 95.0)]
)
def test_tail_percentile_is_the_documented_one(n, percentile):
    assert harness.tail_percentile(n) == pytest.approx(percentile)
    samples = [float(v) for v in range(n)]
    tail = harness.tail_value(samples[::-1])
    assert tail == samples[n - 11]
    assert sum(v > tail for v in samples) == 10


def test_tail_of_a_short_run_is_the_maximum():
    assert harness.tail_percentile(8) == 100.0
    assert harness.tail_value([3.0, 1.0, 2.0]) == 3.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == layers.PER_LAYER
    assert {t.metric for t in layers.TARGETS} <= {n for n, _, _ in layers.PER_LAYER}
    assert spec["paths"] == ["benchmarks/e2e"]
