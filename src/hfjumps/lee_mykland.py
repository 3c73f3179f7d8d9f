"""Noise-robust moment-level jump test of Lee & Mykland (2012).

The observed log price is modeled as the efficient price plus i.i.d.
microstructure noise with standard deviation ``q``.  The test subsamples
every ``k``-th tick (``k`` picked from the return autocorrelation
structure), averages blocks of ``M`` subsamples into pre-averaged prices
``P_hat``, and studies the block-to-block increments

    ``P_bar(j) = P_hat(j+1) - P_hat(j)``,
    ``chi(j)  = sqrt(M) * P_bar(j) / sqrt(V_n)``,

where ``V_n = (2/3) sigma^2 C^2 T + 2 q^2`` (q^2, sigma^2 from ``noise``) is
the limiting variance of ``sqrt(M) P_bar`` over one day (T = 1).  Standardized extremes

    ``xi(j) = (|chi(j)| - A_n) / B_n``

follow a standard Gumbel law under the no-jump null, so a block is
flagged when ``xi`` exceeds the Gumbel quantile at the chosen level
(optionally Bonferroni-divided across the day's blocks).

References:
    Lee & Mykland (2012), "Jumps in equilibrium prices and market
    microstructure noise".
    Jacod, Li, Mykland, Podolskij & Vetter (2009) for the pre-averaging
    background.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, pi, sqrt

import numpy as np

from .errors import DayRejected
from .noise import NoiseEstimate, estimate_noise

K_MIN = 3
K_MAX = 51


def gumbel_quantile(p: float) -> float:
    """Quantile of the standard Gumbel law, G^{-1}(p) = -ln(-ln p)."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    return -log(-log(p))


@dataclass
class LmParams:
    """Test tuning: subsampling lag k, block length M, block constant C, level alpha.

    ``M = round(C * floor(n/k)^(1/2))``, floored at 1.  With the default
    C = 0.05 a full one-second day (n = 86,400) and k in [3, 51] puts M
    in the 2..8 range.
    """

    k: int
    M: int
    C: float = 0.05
    alpha: float = 0.999
    bonferroni: bool = True

    def __post_init__(self):
        if not K_MIN <= self.k <= K_MAX:
            raise ValueError(f"k={self.k} outside [{K_MIN}, {K_MAX}]")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

    @classmethod
    def for_series(cls, n: int, k: int, C: float = 0.05, alpha: float = 0.999,
                   bonferroni: bool = True) -> "LmParams":
        M = max(1, round(C * sqrt(n // k)))
        return cls(k=k, M=M, C=C, alpha=alpha, bonferroni=bonferroni)


@dataclass
class LmDayResult:
    """One day's scan: ``pbar``, ``chi``, ``xi`` and ``starts`` hold one entry per
    block increment j (block j to block j + 1)."""

    noise: NoiseEstimate     # estimate_noise at the scan's k
    v_n: float               # (2/3) sigma_hat^2 C^2 + 2 q_hat^2, the variance of sqrt(M) P_bar
    n_blocks: int            # floor(n / (k M)), the family size in A_n/B_n
    a_n: float
    b_n: float
    threshold: float         # Gumbel quantile applied to each xi
    pbar: np.ndarray
    chi: np.ndarray
    xi: np.ndarray
    starts: np.ndarray | None    # block j's first timestamp (ns); None when unstamped

    @property
    def moments(self) -> np.ndarray:
        """Which increments are flagged: the mask ``xi > threshold``."""
        return self.xi > self.threshold

    @property
    def flagged(self) -> list[int]:
        return np.flatnonzero(self.moments).tolist()


def select_k(log_prices: np.ndarray) -> int:
    """Subsampling lag from the return autocorrelation structure.

    k - 1 is the smallest lag at which the sample autocorrelation of the
    tick log returns falls inside the +-1.96/sqrt(n) band; the result is
    clamped to [K_MIN, K_MAX].  Dependent noise pushes k up, i.i.d.
    returns give the floor.
    """
    p = np.asarray(log_prices, dtype=float)
    if len(p) < 1000:
        raise DayRejected("lm_short", f"{len(p)} ticks < 1000")
    r = np.diff(p)
    r = r - r.mean()
    denom = float(np.sum(r * r))
    if denom == 0:
        return K_MIN
    n = len(r)
    band = 1.96 / sqrt(n)
    first_inside = None
    for lag in range(1, K_MAX + 2):
        rho = float(np.sum(r[:-lag] * r[lag:])) / denom
        if abs(rho) <= band:
            first_inside = lag
            break
    if first_inside is None:
        return K_MAX
    return min(max(first_inside + 1, K_MIN), K_MAX)


def an_bn(n: int, k: int, M: int) -> tuple[float, float, int]:
    """Gumbel standardization constants for a day of n ticks.

    ``L = floor(n/(kM))`` block statistics enter the extreme-value limit:

        ``A_n = sqrt(2 ln L) - (ln pi + ln ln L) / (2 sqrt(2 ln L))``
        ``B_n = 1 / sqrt(2 ln L)``
    """
    L = n // (k * M)
    if L < 2:
        raise DayRejected("lm_blocks", f"only {L} complete blocks")
    t = 2.0 * log(L)
    a = sqrt(t) - (log(pi) + log(log(L))) / (2.0 * sqrt(t))
    return a, 1.0 / sqrt(t), L


def lm_scan(log_prices: np.ndarray, params: LmParams,
            timestamps_ns: np.ndarray | None = None) -> LmDayResult:
    """Scan one day of tick log prices for jump moments.

    Block means are differenced element-wise (mean of ``block[j+1][i] -
    block[j][i]``), which is algebraically ``P_hat(j+1) - P_hat(j)`` and
    keeps the statistic exactly invariant under a constant shift of the
    log-price level.
    """
    p = np.asarray(log_prices, dtype=float)
    n = len(p)
    k, M = params.k, params.M
    a_n, b_n, L = an_bn(n, k, M)
    noise = estimate_noise(p, k)
    v_n = (2.0 / 3.0) * noise.sigma_hat_sq * params.C * params.C + 2.0 * noise.q_hat_sq
    if v_n <= 0:
        raise DayRejected("lm_flat", "V_n is zero (flat day)")

    sub = p[::k]
    n_blocks = len(sub) // M    # >= L, as len(sub) >= n // k
    blocks = sub[: n_blocks * M].reshape(n_blocks, M)
    pbar = np.mean(blocks[1:] - blocks[:-1], axis=1)
    chi = pbar * (sqrt(M) / sqrt(v_n))
    xi = (np.abs(chi) - a_n) / b_n

    if params.bonferroni:
        level = 1.0 - (1.0 - params.alpha) / L
    else:
        level = params.alpha
    threshold = gumbel_quantile(level)

    step = k * M                # block j starts at tick j * step
    starts = (None if timestamps_ns is None
              else np.asarray(timestamps_ns)[:len(pbar) * step:step])
    return LmDayResult(noise=noise, v_n=v_n, n_blocks=L, a_n=a_n, b_n=b_n,
                       threshold=threshold, pbar=pbar, chi=chi, xi=xi, starts=starts)


def dedup_consecutive(moments: np.ndarray, window: int = 10) -> list[int]:
    """Collapse runs of consecutive detections into their first flag.

    ``moments`` is a scan's flag mask; the result is the kept indices.
    After an accepted jump at block j, flags in (j, j + window] are
    continuations and are dropped; scanning resumes at the first flag
    past j + window.  The first flag of a run is always kept and no two
    accepted flags are within ``window`` blocks of each other.
    """
    accepted: list[int] = []
    for j in np.flatnonzero(moments).tolist():
        if not accepted or j > accepted[-1] + window:
            accepted.append(j)
    return accepted
