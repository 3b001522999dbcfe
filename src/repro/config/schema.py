"""Typed configuration schema for the assessment frameworks."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError, UnknownMetricError
from repro.kernels.pattern1 import Pattern1Config
from repro.kernels.pattern2 import Pattern2Config
from repro.kernels.pattern3 import Pattern3Config
from repro.metrics.base import METRIC_REGISTRY

__all__ = ["CheckerConfig"]

#: pattern selectors accepted by ``patterns=``
_VALID_PATTERNS = frozenset({1, 2, 3})


@dataclass(frozen=True)
class CheckerConfig:
    """Everything a checker run needs besides the data itself."""

    #: metric names to evaluate, or "all"
    metrics: tuple[str, ...] | str = "all"
    #: which computational patterns to run (paper benchmarks toggle these)
    patterns: tuple[int, ...] = (1, 2, 3)
    pattern1: Pattern1Config = field(default_factory=Pattern1Config)
    pattern2: Pattern2Config = field(default_factory=Pattern2Config)
    pattern3: Pattern3Config = field(default_factory=Pattern3Config)
    #: simulated GPU, by name in repro.gpusim.device (``V100`` or ``A100``)
    device: str = "V100"
    #: also compute auxiliary metrics (pearson, entropy, properties)
    auxiliary: bool = True
    #: execution backend name registered in :mod:`repro.engine.backends`
    #: ("fused-host", "metric-oriented", "gpusim"); the empty string
    #: lets the plan choose (``fused-host`` unless dispatch finds better)
    backend: str = ""
    #: z-slab tiling of the fused host path: ``"auto"`` tiles large 3-D
    #: fields with a cache-sized slab, ``"off"`` keeps whole-array
    #: execution, an integer forces that slab depth
    tiling: str | int = "auto"
    #: parallel executor for the batch/slab drivers: ``"auto"`` picks
    #: processes when the host can actually scale them, ``"thread"`` /
    #: ``"process"`` force that pool kind, ``"serial"`` disables pooling;
    #: the empty string keeps each driver's historical default
    executor: str = ""
    #: adaptive-dispatch calibration table: ``"auto"`` (or empty) uses
    #: the per-user cache (``~/.cache/cuzchecker/calibration.json``),
    #: ``"off"`` disables measured-ratio correction (raw roofline
    #: predictions), anything else is an explicit table path
    calibration: str = "auto"
    #: archive-audit worker processes: ``"auto"`` prices a process pool
    #: with the dispatch cost model and stays serial when it would not
    #: amortise, ``"serial"`` forces the single-process loop, an integer
    #: forces that worker count (honoured even on one core)
    audit_workers: str | int = "auto"

    def validate(self) -> None:
        if self.executor not in ("", "auto", "serial", "thread", "process"):
            raise ConfigError(
                f"executor must be auto, serial, thread or process, "
                f"got {self.executor!r}"
            )
        if not isinstance(self.calibration, str):
            raise ConfigError(
                f"calibration must be 'auto', 'off' or a table path, "
                f"got {self.calibration!r}"
            )
        if isinstance(self.audit_workers, bool) or (
            isinstance(self.audit_workers, int) and self.audit_workers < 1
        ):
            raise ConfigError(
                f"audit_workers must be 'auto', 'serial' or a count >= 1, "
                f"got {self.audit_workers!r}"
            )
        if isinstance(self.audit_workers, str) and self.audit_workers not in (
            "auto",
            "serial",
        ):
            raise ConfigError(
                f"audit_workers must be 'auto', 'serial' or a count >= 1, "
                f"got {self.audit_workers!r}"
            )
        if isinstance(self.tiling, bool) or (
            isinstance(self.tiling, int) and self.tiling < 1
        ):
            raise ConfigError(
                f"tiling must be 'auto', 'off' or a slab depth >= 1, "
                f"got {self.tiling!r}"
            )
        if isinstance(self.tiling, str) and self.tiling not in ("auto", "off"):
            raise ConfigError(
                f"tiling must be 'auto', 'off' or a slab depth >= 1, "
                f"got {self.tiling!r}"
            )
        if isinstance(self.metrics, str):
            if self.metrics != "all":
                raise ConfigError(
                    f'metrics must be a tuple of names or "all", got {self.metrics!r}'
                )
        else:
            for m in self.metrics:
                if m not in METRIC_REGISTRY:
                    raise UnknownMetricError(m, known=METRIC_REGISTRY)
        if self.backend:
            from repro.engine.backends import known_backends

            if self.backend not in known_backends():
                raise ConfigError(
                    f"unknown backend {self.backend!r}; "
                    f"known: {sorted(known_backends())}"
                )
        bad = [p for p in self.patterns if p not in _VALID_PATTERNS]
        if bad:
            raise ConfigError(f"patterns must be within {{1,2,3}}, got {bad}")
        if self.device not in ("V100", "A100"):
            raise ConfigError(f"unknown device {self.device!r}")

    def with_patterns(self, *patterns: int) -> "CheckerConfig":
        """Copy restricted to the given patterns (benchmark convenience)."""
        return replace(self, patterns=tuple(patterns))

    @property
    def metric_names(self) -> tuple[str, ...]:
        """Concrete metric list after expanding "all"."""
        if self.metrics == "all":
            return tuple(METRIC_REGISTRY)
        return tuple(self.metrics)  # type: ignore[arg-type]
