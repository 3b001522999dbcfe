"""The unified execution planner: plan building, backends, and errors."""

import pytest

from repro.config.parser import format_config, parse_config_text
from repro.config.schema import CheckerConfig
from repro.engine import (
    Backend,
    GpuSimBackend,
    build_plan,
    get_backend,
    known_backends,
    register_backend,
    resolve_backend_name,
)
from repro.errors import CheckerError, ConfigError, UnknownMetricError
from repro.kernels.pattern2 import Pattern2Config
from repro.kernels.pattern3 import Pattern3Config
from repro.metrics.base import (
    METRIC_REGISTRY,
    Pattern,
    canonical_metric_order,
    metrics_by_pattern,
    resolve_metrics,
    table1_row,
)

#: metrics the checker cannot produce from arrays alone (compressor
#: bookkeeping filled in by assess_compressor)
EXTERNAL = {"compression_ratio", "compression_throughput", "decompression_throughput"}

#: registry name -> report key(s) its value surfaces under
REPORT_KEYS = {
    "spectral": ("spectral_mean_rel_err", "spectral_noise_frequency"),
    "value_range": ("value_range",),
}


def small_config(**kw):
    return CheckerConfig(
        pattern2=Pattern2Config(max_lag=kw.pop("max_lag", 3)),
        pattern3=Pattern3Config(window=kw.pop("window", 6)),
        **kw,
    )


class TestPlanBuilding:
    def test_full_plan_covers_all_patterns(self):
        plan = build_plan(small_config())
        assert plan.patterns == (1, 2, 3)
        assert [s.kind for s in plan.steps] == [
            "pattern1", "pattern2", "pattern3", "auxiliary",
        ]

    def test_metrics_resolved_in_table1_order(self):
        plan = build_plan(small_config(metrics=("ssim", "psnr", "mse")))
        assert plan.metrics == ("mse", "psnr", "ssim")

    def test_subset_drops_unneeded_steps(self):
        plan = build_plan(small_config(metrics=("psnr",)))
        assert plan.patterns == (1,)
        assert len(plan.steps) == 1

    def test_disabled_pattern_moves_metric_to_unplanned(self):
        plan = build_plan(small_config(metrics=("psnr", "ssim"), patterns=(1,)))
        assert plan.patterns == (1,)
        assert "ssim" in plan.unplanned

    def test_auxiliary_off_plans_no_aux_step(self):
        plan = build_plan(small_config(auxiliary=False))
        assert all(s.kind != "auxiliary" for s in plan.steps)

    def test_pattern2_consumes_pattern1_moments(self):
        plan = build_plan(small_config())
        p2 = next(s for s in plan.steps if s.kind == "pattern2")
        assert "err_moments" in p2.consumes
        solo = build_plan(small_config(metrics=("autocorrelation",)))
        p2_solo = next(s for s in solo.steps if s.kind == "pattern2")
        assert "err_moments" not in p2_solo.consumes

    def test_validation_happens_at_build(self):
        with pytest.raises(ConfigError):
            build_plan(small_config(metrics=("psnr", "nope")))

    def test_explain_mentions_every_step_and_cost(self):
        plan = build_plan(small_config())
        text = plan.explain((20, 24, 28))
        for token in ("pattern 1", "pattern 2", "pattern 3", "auxiliary",
                      "err_moments", "modelled", "backend=fused-host"):
            assert token in text


class TestBackendResolution:
    def test_default_follows_fused_flag(self):
        # the flag survives only as a legacy .cfg key the parser translates
        assert resolve_backend_name(small_config()) == "fused-host"
        legacy = parse_config_text("[GLOBAL]\nfused = false\n")
        assert resolve_backend_name(legacy) == "metric-oriented"
        assert "fused =" not in format_config(legacy)

    def test_config_backend_beats_fused(self):
        cfg = parse_config_text("[GLOBAL]\nfused = false\nbackend = gpusim\n")
        assert resolve_backend_name(cfg) == "gpusim"
        assert build_plan(cfg).backend == "gpusim"

    def test_argument_beats_config(self):
        cfg = small_config(backend="gpusim")
        assert resolve_backend_name(cfg, "metric-oriented") == "metric-oriented"

    def test_unknown_backend_rejected(self):
        with pytest.raises(CheckerError):
            get_backend("cuda")
        with pytest.raises(ConfigError):
            small_config(backend="cuda").validate()

    def test_known_backends(self):
        assert known_backends() == (
            "compiled-host", "fused-host", "gpusim", "metric-oriented"
        )

    def test_nameless_backend_rejected(self):
        class Anon(Backend):
            def _pattern1(self, ctx):  # pragma: no cover
                raise NotImplementedError

            _pattern2 = _pattern3 = _auxiliary = _pattern1

        with pytest.raises(ValueError):
            register_backend(Anon)


class TestRegistryBackendCompleteness:
    """Every registered metric is executable by every registered backend."""

    @pytest.mark.parametrize(
        "backend", ["fused-host", "compiled-host", "metric-oriented", "gpusim"]
    )
    @pytest.mark.parametrize("name", sorted(METRIC_REGISTRY))
    def test_single_metric_plan_executes(self, backend, name, noisy_pair):
        plan = build_plan(small_config(metrics=(name,)))
        report = plan.execute(*noisy_pair, backend=backend)
        if name in EXTERNAL:
            assert plan.steps == ()  # driver-provided, nothing to launch
            return
        produced = set(report.scalars())
        produced.update(v.name for v in report.values())
        for key in REPORT_KEYS.get(name, (name,)):
            assert key in produced, f"{backend} did not produce {name}"


class TestCrossBackendEquality:
    SUBSETS = [
        ("psnr",),
        ("ssim",),
        ("mse", "autocorrelation"),
        ("laplacian", "pearson", "entropy"),
        ("nrmse", "snr", "ssim", "divergence"),
    ]

    @pytest.mark.parametrize(
        "backend", ["fused-host", "compiled-host", "metric-oriented", "gpusim"]
    )
    def test_subset_equals_full_run(self, backend, noisy_pair):
        full = build_plan(small_config()).execute(*noisy_pair, backend=backend)
        full_scalars = full.scalars()
        for subset in self.SUBSETS:
            sub = build_plan(small_config(metrics=subset)).execute(
                *noisy_pair, backend=backend
            )
            for key, value in sub.scalars().items():
                assert value == full_scalars[key], (backend, subset, key)

    def test_backends_agree_closely(self, noisy_pair):
        plan = build_plan(small_config())
        reports = {b: plan.execute(*noisy_pair, backend=b)
                   for b in known_backends()}
        base = reports["fused-host"].scalars()
        for name, report in reports.items():
            for key, value in report.scalars().items():
                assert value == pytest.approx(base[key], rel=1e-9), (name, key)


class TestGpuSimBackend:
    def test_subset_skips_other_pattern_launches(self, noisy_pair):
        be = GpuSimBackend()
        build_plan(small_config(metrics=("psnr",))).execute(*noisy_pair, backend=be)
        assert be.launched_patterns == (1,)
        assert all(s.meta.get("pattern") == 1 for s in be.launch_log)

    def test_full_run_launches_all_patterns(self, noisy_pair):
        be = GpuSimBackend()
        build_plan(small_config()).execute(*noisy_pair, backend=be)
        assert be.launched_patterns == (1, 2, 3)
        assert all(t > 0 for t in be.modelled_seconds.values())

    def test_fresh_instance_per_named_execution(self, noisy_pair):
        plan = build_plan(small_config(metrics=("psnr",), backend="gpusim"))
        r1 = plan.execute(*noisy_pair)
        r2 = plan.execute(*noisy_pair)
        assert r1.scalars() == r2.scalars()


class TestUnknownMetricError:
    def test_suggestion_for_typo(self):
        with pytest.raises(UnknownMetricError) as exc_info:
            resolve_metrics(("psnrr",))
        err = exc_info.value
        assert err.metric == "psnrr"
        assert err.suggestion == "psnr"
        assert "did you mean 'psnr'?" in str(err)

    def test_valid_names_listed_sorted(self):
        with pytest.raises(UnknownMetricError) as exc_info:
            resolve_metrics(("zzz_not_a_metric",))
        message = str(exc_info.value)
        names = sorted(METRIC_REGISTRY)
        assert ", ".join(names) in message

    def test_caught_as_config_error(self):
        with pytest.raises(ConfigError):
            CheckerConfig(metrics=("mse", "spnr")).validate()

    def test_table1_row_unknown(self):
        with pytest.raises(UnknownMetricError):
            table1_row("nope")


class TestDeterministicOrdering:
    def test_canonical_order_matches_table1_rows(self):
        names = list(METRIC_REGISTRY)
        shuffled = names[::-1]
        assert canonical_metric_order(shuffled) == tuple(
            sorted(names, key=table1_row)
        )

    def test_metrics_by_pattern_sorted_by_row(self):
        for pattern in Pattern:
            names = metrics_by_pattern(pattern)
            assert list(names) == sorted(names, key=table1_row)

    def test_report_scalars_table1_ordered(self, noisy_pair):
        report = build_plan(small_config()).execute(*noisy_pair)
        keys = list(report.scalars())
        rows = [table1_row(k) for k in keys if k in METRIC_REGISTRY]
        assert rows == sorted(rows)
        unknown = [k for k in keys if k not in METRIC_REGISTRY]
        assert unknown == sorted(unknown)
        assert all(k in METRIC_REGISTRY for k in keys[: len(rows)])


class TestValidateOnce:
    def test_checker_validates_once(self, monkeypatch, noisy_pair):
        calls = {"n": 0}
        original = CheckerConfig.validate

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(CheckerConfig, "validate", counting)
        from repro.core.checker import CuZChecker

        checker = CuZChecker(small_config())
        built = calls["n"]
        assert built == 1
        checker.assess(*noisy_pair)
        checker.assess(*noisy_pair)
        assert calls["n"] == built

    def test_parallel_pairs_validate_once(self, monkeypatch, noisy_pair):
        calls = {"n": 0}
        original = CheckerConfig.validate

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(CheckerConfig, "validate", counting)
        from repro.parallel.executor import parallel_compare_pairs

        orig, dec = noisy_pair
        pairs = [(f"p{i}", orig, dec) for i in range(4)]
        parallel_compare_pairs(pairs, config=small_config(), workers=2)
        assert calls["n"] == 1
