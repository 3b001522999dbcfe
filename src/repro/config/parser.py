"""Z-checker-style ``.cfg`` parser.

Accepts INI files of the shape Z-checker users know::

    [GLOBAL]
    metrics = all            ; or a comma list: mse, psnr, ssim
    patterns = 1, 2, 3
    device = V100

    [PATTERN1]
    pdf_bins = 1024
    pwr_floor = 0.0

    [PATTERN2]
    max_lag = 10             ; alias: autocorr_lags / maxAutoCorrLags
    orders = 1, 2            ; alias: derivativeOrders

    [PATTERN3]
    window = 8               ; alias: ssimWindowSize
    step = 1                 ; alias: ssimStep

Unknown sections/keys raise :class:`~repro.errors.ConfigError` so typos
never silently disable an assessment.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from repro.errors import ConfigError
from repro.config.schema import CheckerConfig
from repro.kernels.pattern1 import Pattern1Config
from repro.kernels.pattern2 import Pattern2Config
from repro.kernels.pattern3 import Pattern3Config

__all__ = ["load_config", "parse_config_text", "format_config", "save_config"]

_ALIASES = {
    "maxautocorrlags": "max_lag",
    "autocorr_lags": "max_lag",
    "derivativeorders": "orders",
    "ssimwindowsize": "window",
    "ssimstep": "step",
    "pdfbinintervals": "pdf_bins",
    "checkingstatus": "metrics",
}

_KNOWN = {
    "GLOBAL": {
        "metrics", "patterns", "device", "auxiliary", "fused", "backend",
        "tiling", "executor", "calibration", "audit_workers",
    },
    "PATTERN1": {"pdf_bins", "pwr_floor"},
    "PATTERN2": {"max_lag", "orders"},
    "PATTERN3": {"window", "step", "k1", "k2", "dynamic_range", "yrows"},
}


def _canon(key: str) -> str:
    key = key.strip()
    return _ALIASES.get(key.lower().replace("-", "_"), key.lower())


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def parse_config_text(text: str) -> CheckerConfig:
    """Parse configuration file content into a :class:`CheckerConfig`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        name = section.upper()
        if name not in _KNOWN:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {sorted(_KNOWN)}"
            )
        entries = {}
        for key, value in parser.items(section):
            canon = _canon(key)
            if canon not in _KNOWN[name]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(_KNOWN[name])}"
                )
            entries[canon] = value.strip()
        sections[name] = entries

    g = sections.get("GLOBAL", {})
    p1 = sections.get("PATTERN1", {})
    p2 = sections.get("PATTERN2", {})
    p3 = sections.get("PATTERN3", {})

    tiling_raw = g.get("tiling", "auto").strip()
    tiling: str | int
    if tiling_raw.lower() in ("auto", "off"):
        tiling = tiling_raw.lower()
    else:
        try:
            tiling = int(tiling_raw)
        except ValueError as exc:
            raise ConfigError(
                f"tiling must be 'auto', 'off' or a slab depth, got {tiling_raw!r}"
            ) from exc

    audit_raw = g.get("audit_workers", "auto").strip()
    audit_workers: str | int
    if audit_raw.lower() in ("auto", "serial"):
        audit_workers = audit_raw.lower()
    else:
        try:
            audit_workers = int(audit_raw)
        except ValueError as exc:
            raise ConfigError(
                f"audit_workers must be 'auto', 'serial' or a count, "
                f"got {audit_raw!r}"
            ) from exc

    # ``fused`` is not a field any more, but every .cfg an earlier version
    # rendered carries the line: ``false`` meant the metric-oriented backend
    backend = g.get("backend", "")
    if not backend and g.get("fused", "true").lower() not in ("1", "true", "yes"):
        backend = "metric-oriented"

    try:
        metrics_raw = g.get("metrics", "all")
        metrics: tuple[str, ...] | str
        if metrics_raw.strip().lower() == "all":
            metrics = "all"
        else:
            metrics = tuple(
                tok.strip() for tok in metrics_raw.split(",") if tok.strip()
            )
        config = CheckerConfig(
            metrics=metrics,
            patterns=_int_tuple(g.get("patterns", "1 2 3")),
            device=g.get("device", "V100"),
            auxiliary=g.get("auxiliary", "true").lower() in ("1", "true", "yes"),
            backend=backend,
            tiling=tiling,
            executor=g.get("executor", "").lower(),
            calibration=g.get("calibration", "auto"),
            audit_workers=audit_workers,
            pattern1=Pattern1Config(
                pdf_bins=int(p1.get("pdf_bins", 1024)),
                pwr_floor=float(p1.get("pwr_floor", 0.0)),
            ),
            pattern2=Pattern2Config(
                max_lag=int(p2.get("max_lag", 10)),
                orders=_int_tuple(p2.get("orders", "1 2")),
            ),
            pattern3=Pattern3Config(
                window=int(p3.get("window", 8)),
                step=int(p3.get("step", 1)),
                k1=float(p3.get("k1", 0.01)),
                k2=float(p3.get("k2", 0.03)),
                dynamic_range=(
                    float(p3["dynamic_range"]) if "dynamic_range" in p3 else None
                ),
                yrows=int(p3.get("yrows", Pattern3Config.yrows)),
            ),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    config.validate()
    return config


def load_config(path: str | Path) -> CheckerConfig:
    """Load and validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    return parse_config_text(path.read_text())


def format_config(config: CheckerConfig) -> str:
    """Serialise a configuration back to the ``.cfg`` format.

    ``parse_config_text(format_config(c)) == c`` for every valid
    configuration (property-tested).
    """
    config.validate()
    metrics = (
        "all"
        if config.metrics == "all"
        else ", ".join(config.metrics)  # type: ignore[arg-type]
    )
    lines = [
        "[GLOBAL]",
        f"metrics = {metrics}",
        "patterns = " + ", ".join(str(p) for p in config.patterns),
        f"device = {config.device}",
        f"auxiliary = {'true' if config.auxiliary else 'false'}",
        *([f"backend = {config.backend}"] if config.backend else []),
        f"tiling = {config.tiling}",
        *([f"executor = {config.executor}"] if config.executor else []),
        *(
            [f"calibration = {config.calibration}"]
            if config.calibration != "auto"
            else []
        ),
        *(
            [f"audit_workers = {config.audit_workers}"]
            if config.audit_workers != "auto"
            else []
        ),
        "",
        "[PATTERN1]",
        f"pdf_bins = {config.pattern1.pdf_bins}",
        f"pwr_floor = {config.pattern1.pwr_floor!r}",
        "",
        "[PATTERN2]",
        f"max_lag = {config.pattern2.max_lag}",
        "orders = " + ", ".join(str(o) for o in config.pattern2.orders),
        "",
        "[PATTERN3]",
        f"window = {config.pattern3.window}",
        f"step = {config.pattern3.step}",
        f"k1 = {config.pattern3.k1!r}",
        f"k2 = {config.pattern3.k2!r}",
        f"yrows = {config.pattern3.yrows}",
    ]
    if config.pattern3.dynamic_range is not None:
        lines.append(f"dynamic_range = {config.pattern3.dynamic_range!r}")
    return "\n".join(lines) + "\n"


def save_config(config: CheckerConfig, path: str | Path) -> Path:
    """Write a configuration file."""
    path = Path(path)
    path.write_text(format_config(config))
    return path
