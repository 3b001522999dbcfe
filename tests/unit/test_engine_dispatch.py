"""Tests for the cost-model-driven adaptive dispatcher.

Covers the calibration table (persistence, geometric-EMA folding,
corruption tolerance), candidate enumeration invariants, decision
caching, and the pool-cost worker model.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.config.defaults import default_config
from repro.engine.dispatch import (
    CalibrationTable,
    calibration_key,
    choose,
    clear_decision_cache,
    default_calibration_path,
    dispatch_plan,
    estimate_assess_seconds,
    host_fingerprint,
    predict_pool_seconds,
    resolve_calibration,
)
from repro.engine.plan import build_plan
from repro.engine.tiling import AUTO_MIN_BYTES, slab_candidates

SMALL = (12, 24, 24)  # valid for all default kernels, far below AUTO_MIN_BYTES
LARGE = (128, 256, 256)  # above AUTO_MIN_BYTES at itemsize 4


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decision_cache()
    yield
    clear_decision_cache()


class TestCalibrationTable:
    def test_empty_table_ratio_is_identity(self, tmp_path):
        table = CalibrationTable.load(tmp_path / "missing.json")
        assert table.ratio("fused-host.pattern2.whole") == 1.0

    def test_first_fold_adopts_observation(self, tmp_path):
        # the identity prior is the absence of data: one fit run must
        # already produce correctly-ordered predictions
        table = CalibrationTable.load(tmp_path / "cal.json")
        after = table.fold("k", measured_s=2.0, predicted_s=1.0)
        assert after == pytest.approx(2.0)

    def test_fold_moves_ratio_toward_measurement(self, tmp_path):
        table = CalibrationTable.load(tmp_path / "cal.json")
        key = "fused-host.pattern2.whole"
        table.fold(key, measured_s=1.0, predicted_s=1.0)
        # measured 2x the prediction: ratio must rise, but (EMA) not all
        # the way to 2.0 in one step
        after = table.fold(key, measured_s=2.0, predicted_s=1.0)
        assert 1.0 < after < 2.0
        # repeated folds converge on the true ratio
        for _ in range(40):
            after = table.fold(key, measured_s=2.0, predicted_s=1.0)
        assert after == pytest.approx(2.0, rel=1e-3)

    def test_fold_is_geometric(self, tmp_path):
        # after seeding, the EMA runs in log space: the second fold lands
        # at r0^(1-a) * r1^a (an arithmetic EMA would not)
        from repro.engine.dispatch import CALIBRATION_ALPHA as A

        table = CalibrationTable.load(tmp_path / "cal.json")
        table.fold("k", 2.0, 1.0)
        after = table.fold("k", 8.0, 1.0)
        assert math.isclose(after, 2.0 ** (1 - A) * 8.0**A, rel_tol=1e-9)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cal.json"
        table = CalibrationTable.load(path)
        table.host = host_fingerprint()
        table.fold("a.pattern1.whole", 3.0, 1.0)
        table.fold("a.pattern1.slab", 0.5, 1.0)
        table.save(path)

        loaded = CalibrationTable.load(path)
        assert loaded.ratio("a.pattern1.whole") == pytest.approx(
            table.ratio("a.pattern1.whole")
        )
        assert loaded.ratio("a.pattern1.slab") == pytest.approx(
            table.ratio("a.pattern1.slab")
        )
        assert loaded.host.get("cpu_count") == host_fingerprint()["cpu_count"]

    def test_corrupt_file_loads_as_empty(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        table = CalibrationTable.load(path)
        assert table.ratio("anything") == 1.0

    def test_wrong_schema_loads_as_empty(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps([1, 2, 3]))
        table = CalibrationTable.load(path)
        assert table.ratio("anything") == 1.0

    def test_sample_counts_persist(self, tmp_path):
        path = tmp_path / "cal.json"
        table = CalibrationTable.load(path)
        table.fold("k", 1.5, 1.0)
        table.fold("k", 1.5, 1.0)
        table.save(path)
        doc = json.loads(path.read_text())
        assert doc["entries"]["k"]["samples"] == 2


class TestCalibrationConcurrency:
    """Regression: concurrent saves must never corrupt the table."""

    def test_merge_keeps_disk_only_keys(self, tmp_path):
        path = tmp_path / "cal.json"
        first = CalibrationTable.load(path)
        first.fold("a.pattern1.whole", 2.0, 1.0)
        first.save(path)
        # a second writer that never observed key "a..." must not clobber it
        second = CalibrationTable.load(tmp_path / "elsewhere.json")
        second.fold("b.pattern2.slab", 3.0, 1.0)
        second.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded.ratio("a.pattern1.whole") == pytest.approx(2.0)
        assert loaded.ratio("b.pattern2.slab") == pytest.approx(3.0)

    def test_merge_is_per_key_last_writer_wins(self, tmp_path):
        path = tmp_path / "cal.json"
        stale = CalibrationTable.load(path)
        stale.fold("k", 2.0, 1.0)
        stale.save(path)
        fresh = CalibrationTable.load(path)
        fresh.fold("k", 8.0, 1.0)  # EMA from 2.0 toward 8.0
        fresh.save(path)
        # the writer's own observation of a shared key wins over disk
        assert CalibrationTable.load(path).ratio("k") == pytest.approx(
            fresh.ratio("k")
        )

    def test_save_without_merge_clobbers(self, tmp_path):
        path = tmp_path / "cal.json"
        first = CalibrationTable.load(path)
        first.fold("a", 2.0, 1.0)
        first.save(path)
        second = CalibrationTable.load(tmp_path / "other.json")
        second.fold("b", 3.0, 1.0)
        second.save(path, merge=False)
        loaded = CalibrationTable.load(path)
        assert loaded.ratio("a") == 1.0  # gone: whole-file replace
        assert loaded.ratio("b") == pytest.approx(3.0)

    def test_concurrent_savers_never_corrupt(self, tmp_path):
        import threading

        path = tmp_path / "cal.json"
        n_writers, rounds = 8, 5
        errors: list[BaseException] = []

        def writer(i: int):
            try:
                for r in range(rounds):
                    table = CalibrationTable.load(path)
                    table.fold(f"w{i}.pattern1.whole", 1.0 + i + r, 1.0)
                    table.save(path)
                    # every intermediate state must be complete JSON —
                    # os.replace guarantees no reader ever sees a torn file
                    json.loads(path.read_text())
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(n_writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = CalibrationTable.load(path)
        # merge semantics: every writer's (distinct) key survived
        for i in range(n_writers):
            assert f"w{i}.pattern1.whole" in final.entries
        assert not list(tmp_path.glob(".cal.json.*.tmp"))  # no litter


class TestResolveCalibration:
    def test_off_is_none(self):
        assert resolve_calibration("off") is None

    def test_auto_is_default_path(self):
        assert resolve_calibration("auto").path == default_calibration_path()
        assert resolve_calibration("").path == default_calibration_path()

    def test_explicit_path(self, tmp_path):
        p = tmp_path / "t.json"
        assert resolve_calibration(str(p)).path == p


class TestCalibrationKey:
    def test_layout_in_key(self):
        assert calibration_key("fused-host", "pattern2", None).endswith(".whole")
        assert calibration_key("fused-host", "pattern2", 16).endswith(".slab")

    def test_backend_and_kind_in_key(self):
        key = calibration_key("metric-oriented", "pattern3", None)
        assert key.startswith("metric-oriented.pattern3")


class TestChoose:
    def _plan(self, **overrides):
        cfg = replace(default_config(), calibration="off", **overrides)
        return build_plan(cfg)

    def test_small_shape_gets_only_whole_candidates(self):
        decision = choose(self._plan(), SMALL, 4)
        assert SMALL[0] * SMALL[1] * SMALL[2] * 4 < AUTO_MIN_BYTES
        assert all(c.slab is None for c in decision.candidates)

    def test_large_shape_gets_slab_candidates(self):
        decision = choose(self._plan(), LARGE, 4)
        slabs = {c.slab for c in decision.candidates}
        assert None in slabs
        assert any(s is not None for s in slabs)
        # the slab candidates come from the tiling module's enumeration
        expected = set(slab_candidates(LARGE, "auto"))
        assert {c.slab for c in decision.candidates if c.backend == "fused-host"} \
            <= expected

    def test_pinned_backend_restricts_candidates(self):
        decision = choose(self._plan(), SMALL, 4, pinned="metric-oriented")
        assert {c.backend for c in decision.candidates} == {"metric-oriented"}
        assert decision.chosen.backend == "metric-oriented"

    def test_unfused_config_skips_fused_backends(self):
        plan = dispatch_plan(self._plan(backend="metric-oriented"), SMALL, 4)
        assert {c.backend for c in plan.decision.candidates} == {"metric-oriented"}

    def test_chosen_is_cheapest(self):
        decision = choose(self._plan(), LARGE, 4)
        cheapest = min(decision.candidates, key=lambda c: c.total_ms)
        assert decision.chosen.total_ms == cheapest.total_ms

    def test_gpusim_candidate_priced_by_model(self):
        decision = choose(self._plan(backend="gpusim"), SMALL, 4,
                          pinned="gpusim")
        assert all(c.source == "gpusim-model" for c in decision.candidates)

    def test_calibration_can_flip_the_choice(self, tmp_path):
        plan = self._plan()
        baseline = choose(plan, SMALL, 4)
        loser = next(
            c for c in baseline.candidates
            if c.label != baseline.chosen.label
        )
        # make every step of the current winner look 1000x slower
        table = CalibrationTable.load(tmp_path / "cal.json")
        for step in baseline.chosen.steps:
            table.fold(step.key, measured_s=1000.0, predicted_s=1.0)
            for _ in range(60):
                table.fold(step.key, 1000.0, 1.0)
        flipped = choose(plan, SMALL, 4, table=table)
        assert flipped.chosen.backend == loser.backend

    def test_decision_to_dict_is_json_serialisable(self):
        decision = choose(self._plan(), SMALL, 4)
        doc = json.loads(json.dumps(decision.to_dict()))
        assert doc["chosen"] == decision.chosen.label
        labels = [c["label"] for c in doc["candidates"]]
        assert doc["chosen"] in labels


class TestDispatchPlan:
    def _plan(self, **overrides):
        cfg = replace(default_config(), calibration="off", **overrides)
        return build_plan(cfg)

    def test_attaches_decision_and_backend(self):
        plan = dispatch_plan(self._plan(), SMALL, 4)
        assert plan.decision is not None
        assert plan.backend == plan.decision.chosen.backend

    def test_bad_shape_returns_undecided_plan(self):
        plan = self._plan()
        out = dispatch_plan(plan, (0, 0, 0), 4)
        assert out.decision is None
        assert out.backend == plan.backend

    def test_preserves_user_tiling_when_choice_matches_default(self):
        plan = self._plan()
        out = dispatch_plan(plan, SMALL, 4)
        # small shape -> whole-array choice == the "auto" default, so the
        # user's literal tiling setting must survive into reports
        assert out.config.tiling == plan.config.tiling

    def test_decision_is_cached(self):
        plan = self._plan()
        a = dispatch_plan(plan, SMALL, 4)
        b = dispatch_plan(plan, SMALL, 4)
        assert a.decision is b.decision

    def test_cache_distinguishes_shapes(self):
        plan = self._plan()
        a = dispatch_plan(plan, SMALL, 4)
        b = dispatch_plan(plan, (14, 24, 24), 4)
        assert a.decision is not b.decision


class TestWorkerModel:
    def test_estimate_scales_with_bytes(self):
        assert estimate_assess_seconds(2 << 20) == pytest.approx(
            2 * estimate_assess_seconds(1 << 20)
        )

    def test_serial_ignores_workers(self):
        a = predict_pool_seconds(8, 0.1, 1, "serial")
        b = predict_pool_seconds(8, 0.1, 4, "serial")
        assert a == b

    def test_process_pool_amortises_large_tasks(self):
        # large tasks: 4 workers beat 1
        big = predict_pool_seconds(8, 1.0, 1, "process")
        par = predict_pool_seconds(8, 1.0, 4, "process")
        assert par < big

    def test_process_overhead_penalises_tiny_tasks(self):
        # tiny tasks: worker spawn overhead dominates, serial-ish wins
        one = predict_pool_seconds(2, 1e-5, 1, "process")
        many = predict_pool_seconds(2, 1e-5, 32, "process")
        assert one < many

    def test_thread_pool_partial_parallelism(self):
        t1 = predict_pool_seconds(8, 0.1, 1, "thread")
        t4 = predict_pool_seconds(8, 0.1, 4, "thread")
        # threads help (GIL releases in NumPy) but sublinearly
        assert t4 < t1
        assert t4 > t1 / 4
