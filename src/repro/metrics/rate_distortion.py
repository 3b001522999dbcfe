"""Pattern-1 reference metrics: MSE, RMSE, NRMSE, SNR, PSNR.

Definitions match Z-checker:

* ``MSE   = mean((dec - orig)^2)``
* ``RMSE  = sqrt(MSE)``
* ``NRMSE = RMSE / value_range``             (value_range = max - min of orig)
* ``PSNR  = 20 log10(value_range) - 10 log10(MSE)``
* ``SNR   = 10 log10( var(orig) / MSE )``    (signal power over noise power)

Degenerate cases: a lossless reconstruction has ``MSE == 0`` and infinite
PSNR/SNR; a constant original field has zero range, making NRMSE/PSNR
undefined (returned as ``nan``) — both conventions are exercised in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.metrics.error_stats import _as_pair

__all__ = ["RateDistortion", "rate_distortion", "finalize_rate_distortion"]


@dataclass(frozen=True)
class RateDistortion:
    mse: float
    rmse: float
    nrmse: float
    snr: float
    psnr: float
    value_range: float


def rate_distortion(orig: np.ndarray, dec: np.ndarray) -> RateDistortion:
    """Reference implementation of the rate-distortion family (pattern 1)."""
    orig, dec = _as_pair(orig, dec)
    o = orig.astype(np.float64)
    d = dec.astype(np.float64)
    e = d - o
    mse = float(np.mean(e * e))
    rmse = math.sqrt(mse)
    vmin, vmax = float(o.min()), float(o.max())
    value_range = vmax - vmin
    signal_var = float(o.var())

    if value_range == 0.0:
        nrmse = math.nan if mse > 0 else 0.0
        psnr = math.nan
    elif mse == 0.0:
        nrmse = 0.0
        psnr = math.inf
    else:
        nrmse = rmse / value_range
        psnr = 20.0 * math.log10(value_range) - 10.0 * math.log10(mse)

    if mse == 0.0:
        snr = math.inf
    elif signal_var == 0.0:
        snr = -math.inf
    else:
        snr = 10.0 * math.log10(signal_var / mse)

    return RateDistortion(
        mse=mse,
        rmse=rmse,
        nrmse=nrmse,
        snr=snr,
        psnr=psnr,
        value_range=value_range,
    )


def finalize_rate_distortion(
    n: int, mse: float, value_range: float, var_o: float
) -> RateDistortion:
    """MSE + value range + signal variance -> the rate-distortion family.

    Shared by every fused consumer so the degenerate-case conventions
    (constant field, lossless reconstruction) cannot drift between paths.
    :func:`rate_distortion` spells the same cases out on purpose: it is the
    independent reference the tests hold this one to.
    """
    rmse = math.sqrt(mse)
    if value_range == 0.0:
        nrmse = math.nan if mse > 0 else 0.0
        psnr = math.nan
    elif mse == 0.0:
        nrmse, psnr = 0.0, math.inf
    else:
        nrmse = rmse / value_range
        psnr = 20.0 * math.log10(value_range) - 10.0 * math.log10(mse)
    if mse == 0.0:
        snr = math.inf
    elif var_o == 0.0:
        snr = -math.inf
    else:
        snr = 10.0 * math.log10(var_o / mse)
    return RateDistortion(
        mse=mse,
        rmse=rmse,
        nrmse=nrmse,
        snr=snr,
        psnr=psnr,
        value_range=value_range,
    )
