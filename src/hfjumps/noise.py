"""The day's microstructure-noise and volatility estimate, for both jump tests.

The observed log price is the efficient price plus i.i.d. noise with
standard deviation ``q``.  q^2 is the k-lag difference estimator

    ``q_hat^2 = (1 / (2(n-k))) sum_m (P(m) - P(m+k))^2``

whose expectation is ``q^2 + sigma^2 k T / (2n)``.  sigma^2 comes
from bipower variation at a wider stride ``k_sigma`` (default 10k,
capped so at least ~200 subsamples remain), corrected for two noise
effects: the moment inflation caused by the MA(1) correlation of
noisy adjacent returns (factor ``sqrt(1-rho^2) + rho*asin(rho)`` with
``rho = -q^2/Var(r)``), and the additive noise level.  Subtracting
``2 q_hat^2`` at the wider stride cancels the diffusion bias of
q_hat^2 analytically:

    ``sigma_hat^2 = (BV_corr - 2 q_hat^2) * n / (k_sigma - k)``.

A non-positive estimate is floored at zero (can happen when a large
jump inflates q_hat^2; the Lee-Mykland V_n is then conservative).
``lm_scan`` estimates at its lag k, and ``plugin_noise_ratio`` gives the
AJL calibration's q/sigma at k = 1.  numpy and the standard library only.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi, sqrt

import numpy as np

CLIP_SDS = 10.0     # plug-in returns are clipped at this many robust SDs


@dataclass
class NoiseEstimate:
    """Noise variance and jump-robust volatility of one day."""

    q_hat_sq: float
    sigma_hat_sq: float


def estimate_noise(log_prices: np.ndarray, k: int) -> NoiseEstimate:
    """q^2 from k-lag differences and sigma^2 from corrected bipower (module docstring)."""
    p = np.asarray(log_prices, dtype=float)
    n = len(p)
    if n <= k + 1:
        raise ValueError(f"need more than k+1={k + 1} observations, got {n}")
    d = p[: n - k] - p[k:]
    q2 = float(np.sum(d * d)) / (2 * (n - k))

    k_sigma = max(2 * k, min(10 * k, n // 200))
    sub = p[::k_sigma]
    r = np.diff(sub)
    sigma2 = 0.0
    if len(r) >= 3:
        v = float(np.mean(r * r))
        if v > 0:
            rho = min(0.0, max(-0.9999, -q2 / v))
            mu = sqrt(1.0 - rho * rho) + rho * asin(rho)
            n_pairs = len(r) - 1
            bv = (pi / 2) / mu * float(np.sum(np.abs(r[:-1]) * np.abs(r[1:]))) / n_pairs
            sigma2 = max(0.0, (bv - 2.0 * q2) * n / (k_sigma - k))
    return NoiseEstimate(q_hat_sq=q2, sigma_hat_sq=sigma2)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit: the same partition and mean.

    ``np.median`` imports ``numpy.ma`` on first use, at ~0.015 CPU-s a process.
    """
    n = len(x)
    if n == 0:
        return np.nan
    half = n // 2
    part = np.partition(x, ([half] if n % 2 else [half - 1, half]) + [-1])
    if np.isnan(part[-1]):            # a NaN sorts last; np.median returns it
        return float(part[-1])
    return float(np.mean(part[half - 1 + n % 2:half + 1]))


def plugin_noise_ratio(log_prices: np.ndarray) -> float:
    """q/sigma plug-in for the AJL null calibration, robust to in-sample jumps.

    Returns are clipped at ``CLIP_SDS`` robust standard deviations
    (1.4826 * MAD) before the two-scale noise/volatility estimation, so
    a genuine jump in the day cannot zero out the volatility estimate.
    Only the calibration uses this; the statistic itself sees raw data.
    """
    p = np.asarray(log_prices, dtype=float)
    r = np.diff(p)
    scale = 1.4826 * _median(np.abs(r))
    if scale > 0:
        r = np.clip(r, -CLIP_SDS * scale, CLIP_SDS * scale)
    clipped = np.concatenate(([p[0]], p[0] + np.cumsum(r)))
    est = estimate_noise(clipped, k=1)
    q = sqrt(est.q_hat_sq)
    sig = sqrt(est.sigma_hat_sq)
    if sig == 0:
        return np.inf if q > 0 else 0.0
    return q / sig
