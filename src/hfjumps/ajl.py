"""Noise-robust day-level jump test of Ait-Sahalia, Jacod & Li (2012).

Increments of the observed log price are pre-averaged inside windows of
``k_n`` observations using a weight function ``g`` (zero outside (0,1),
continuous, piecewise C^1).  With

    ``Ybar(g)_i = sum_{j=1}^{k_n-1} g(j/k_n) dY_{i+j}``
    ``Yhat(g)_i = sum_{j=1}^{k_n} (g'_j dY_{i+j})^2``,   g'_j = g_j - g_{j-1}

the noise-bias-corrected power variation is the rho-weighted combination

    ``Vbar(Y,g,p) = sum_{l=0}^{p/2} rho(p)_l V(Y,g,p-2l,l)``,
    ``V(Y,g,q,r)  = sum_i |Ybar_i|^q (Yhat_i)^r``,

where the rho(p) coefficients solve a triangular moment system built
from absolute Gaussian moments.  The ratio of two differently weighted
variations, normalized by the jump-regime constant ``gamma'``,

    ``S_RJ = Vbar(Z,g,p) / (gamma' * Vbar(Z,h,p))``,

converges to 1 when jumps are present and to ``gamma'' = gamma^{p/2} /
gamma' > 1 on continuous paths, so the test rejects the no-jump null
when ``S_RJ < gamma'' - z_alpha * Delta_n^{1/4} * sqrt(Sigma_RJ)``.

The pair is a constant, and ``AjlParams`` refuses any other: ``g(s) = s(1-s)``
(parabola) over ``h(s) = min(s, 1-s)`` (triangle), the only ordering of the
two whose gamma'' exceeds 1.  The constants are ratios of the weights' moments
``int_0^1 g^r ds``, in closed form, so each is exact up to one rounding to float.

A closed-form plug-in for Sigma_RJ needs weight-pair moment functionals
that lack a tractable expression, so ``sqrt(Sigma_RJ)`` is estimated
under the null instead: the sample standard deviation of S_RJ over
simulated continuous noisy paths at the day's length and plug-in
noise-to-volatility ratio, ``noise.plugin_noise_ratio`` (divided by
Delta_n^{1/4} to match the critical-value scaling).  S_RJ is scale
invariant, so that law depends on (sigma, q) only through q/sigma.  For
the default k_n and p on the four grid lengths of a day, the std comes
from the committed table ``data/ajl_null_std.csv`` (written by
``scripts/make_ajl_null_table.py``), interpolated in q/sigma up to its
last node, q/sigma = 1.  Any other day falls back to a seeded, memoized
Monte Carlo of ``sigma_rj_paths`` paths.

Both window sums are correlations of the returns (and of their squares)
with a fixed weight, computed with numpy's real FFT.  A chunk of paths
is transformed once, zero-padded to ``L = N + 1``, the day's price count,
which on every grid of a day (86,400/f prices) is 5-smooth and so a fast
length; each weight then costs one pointwise product and one inverse
transform per quantity.  A circular correlation at ``L >= N`` never
wraps on the complete windows, which are the only ones kept, so it is
exact up to rounding at any length.  The module needs nothing beyond
numpy and the standard library.
"""
from __future__ import annotations

import csv
import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from importlib import resources
from math import comb, exp, factorial, log, sqrt
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import ConfigError, DayRejected
from .noise import plugin_noise_ratio


# ---------------------------------------------------------------------------
# weight functions and their moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Pre-averaging weight on [0,1] with its moments in closed form."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]   # vectorized on s in [0,1]
    exact_moment: Callable[[int], Fraction]    # r -> int_0^1 g(s)^r ds

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.func(np.asarray(s, dtype=float))

    def grid_weights(self, k_n: int) -> tuple[np.ndarray, np.ndarray]:
        """(g_j for j=1..k_n-1, g'_j for j=1..k_n) on the window grid."""
        full = self(np.arange(0, k_n + 1) / k_n)
        return full[1:k_n], np.diff(full)


# int (s(1-s))^r ds = B(r+1, r+1) = r!^2 / (2r+1)!;  int min(s, 1-s)^r ds = 1 / (2^r (r+1))
PARABOLA = WeightFunction("parabola", lambda s: s * (1.0 - s),
                          lambda r: Fraction(factorial(r) ** 2, factorial(2 * r + 1)))
TRIANGLE = WeightFunction("triangle", lambda s: np.minimum(s, 1.0 - s),
                          lambda r: Fraction(1, 2 ** r * (r + 1)))
WEIGHTS = (PARABOLA.name, TRIANGLE.name)     # as the table header, seeds and catalog name them


def get_weight(name: str) -> WeightFunction:
    """The built-in weight of that name; only the benchmark's tracer still asks."""
    return {w.name: w for w in (PARABOLA, TRIANGLE)}[name]


# ---------------------------------------------------------------------------
# rho coefficients
# ---------------------------------------------------------------------------

def absolute_normal_moment(r: int) -> float:
    """r-th absolute moment of N(0,1) for an even r >= 0: the double factorial (r-1)!!."""
    if r < 0 or r % 2:
        raise ValueError(f"r must be an even integer >= 0, got {r}")
    out = 1
    for m in range(r - 1, 1, -2):
        out *= m
    return float(out)


def solve_rho(p: int) -> np.ndarray:
    """Coefficients rho(p)_0..rho(p)_{p/2} of the bias-cancelling combination.

    rho(p)_0 = 1 and for j = 1..p/2

        ``sum_{l=0}^{j} 2^l m_{2j-2l} C(p-2l, p-2j) rho(p)_l = 0``

    with m_r the r-th absolute moment of N(0,1); solved by forward
    substitution through the triangular system.  For p=4 this gives
    (1, -3, 0.75).
    """
    if p < 4 or p % 2:
        raise ValueError(f"p must be an even integer >= 4, got {p}")
    half = p // 2
    rho = np.zeros(half + 1)
    rho[0] = 1.0
    for j in range(1, half + 1):
        acc = 0.0
        for l in range(j):
            acc += (2 ** l) * absolute_normal_moment(2 * j - 2 * l) \
                   * comb(p - 2 * l, p - 2 * j) * rho[l]
        rho[j] = -acc / (2 ** j)
    return rho


# ---------------------------------------------------------------------------
# robust power variation
# ---------------------------------------------------------------------------

def _power_variations(d: np.ndarray, weights: tuple[WeightFunction, ...], p: int,
                      k_n: int, rho: np.ndarray) -> np.ndarray:
    """Vbar of each row of ``d`` (rows x returns) for each weight.

    Returns an array of shape (len(weights), rows).  The forward
    transforms of the returns and of their squares are shared by all
    weights.
    """
    N = d.shape[1]
    L = N + 1   # the day's price count: 86,400/f is 5-smooth, a fast FFT length
    n_win = N - k_n + 1
    half = p // 2
    fd = np.fft.rfft(d, L, axis=1)
    fd2 = np.fft.rfft(d * d, L, axis=1)
    out = np.zeros((len(weights), len(d)))
    for i, w in enumerate(weights):
        wj, wp = w.grid_weights(k_n)
        # correlation sum_j w_j d_{t+j} = irfft(F(d) * conj(F(w))) at t < n_win
        y2 = np.square(np.fft.irfft(fd * np.conj(np.fft.rfft(wj, L)), L, axis=1)[:, :n_win])
        yhat = np.fft.irfft(fd2 * np.conj(np.fft.rfft(wp * wp, L)), L, axis=1)[:, :n_win]
        for l in range(half + 1):
            # |ybar|^(p-2l) * yhat^l as a product of p/2 >= 2 factors
            term = reduce(np.multiply, [y2] * (half - l) + [yhat] * l)
            out[i] += rho[l] * np.sum(term, axis=1)
        del y2, yhat, term   # free before the next weight's transforms
    return out


def vbar(returns: np.ndarray, w: WeightFunction, p: int = 4, k_n: int = 100,
         rho: np.ndarray | None = None) -> float:
    """Robust power variation of one day of returns (vectorized path).

    Window sums run over i = 0..N-k_n where N = len(returns); the series
    is rejected when no complete window fits.
    """
    d = np.asarray(returns, dtype=float)[None, :]
    N = d.shape[1]
    if N < k_n:
        raise DayRejected("ajl_short", f"{N} returns < k_n={k_n}")
    if rho is None:
        rho = solve_rho(p)
    return float(_power_variations(d, (w,), p, k_n, rho)[0, 0])


def ajl_constants(p: int = 4) -> tuple[float, float, float]:
    """(gamma, gamma', gamma'') of parabola over triangle, each exact up to
    its one rounding to float; gamma'' exceeds 1 for every even p >= 4."""
    gamma = PARABOLA.exact_moment(2) / TRIANGLE.exact_moment(2)
    gamma_prime = PARABOLA.exact_moment(p) / TRIANGLE.exact_moment(p)
    return float(gamma), float(gamma_prime), float(gamma ** (p // 2) / gamma_prime)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass
class AjlParams:
    p: int = 4
    k_n: int = 100
    # only the defaults pass; g and h, get_weight and RunConfig.weight_names stay
    # because the benchmark's tracer (perfbench/tracing.py) uses them
    g: WeightFunction = PARABOLA
    h: WeightFunction = TRIANGLE
    alpha: float = 0.999
    sigma_rj_paths: int = 200
    base_seed: int = 0
    gamma: float = field(init=False)
    gamma_prime: float = field(init=False)
    gamma_dprime: float = field(init=False)

    def __post_init__(self):
        if self.p < 4 or self.p % 2:
            raise ConfigError("p must be an even integer >= 4")
        if self.k_n < 2:
            raise ConfigError("k_n must be >= 2")
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must be in (0, 1)")
        if self.sigma_rj_paths < 8:
            raise ConfigError("sigma_rj_paths must be >= 8")
        if self.g is not PARABOLA or self.h is not TRIANGLE:
            raise ConfigError(f"the AJL weight pair is {'/'.join(WEIGHTS)}, "
                              f"not {self.g.name}/{self.h.name}")
        self.gamma, self.gamma_prime, self.gamma_dprime = ajl_constants(self.p)


@dataclass
class AjlDayResult:
    s_rj: float
    gamma_dprime: float
    critical_value: float
    sigma_rj: float
    reject_null: bool
    mc_seed: int
    frequency_s: int | None = None
    calibration: str = ""      # where the null std came from; logged, not cataloged


# ---------------------------------------------------------------------------
# null calibration Monte Carlo
# ---------------------------------------------------------------------------

def _quantize_ratio(ratio: float) -> str:
    """Noise-to-volatility ratio rounded to 3 significant digits.

    S_RJ is scale invariant, so under the null its law depends on the
    plug-in (sigma, q) only through q/sigma.  Quantizing the ratio keys
    an exact memo: statistically identical days share one calibration
    draw, which also pins the seed deterministically.
    """
    return f"{ratio:.3g}"


def _mc_seed(key: tuple) -> int:
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def null_draws(n_prices: int, k_n: int, p: int, ratio: float, n_paths: int,
               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """S_RJ and Vbar(h) on each of ``n_paths`` continuous noisy null paths.

    Paths are simulated at sigma = 1 (daily) and noise q = ratio; an
    infinite ratio degenerates to pure unit noise.  Chunks of 50 paths
    draw from one generator in a fixed order, so a seed pins every path.
    """
    rho = solve_rho(p)
    _, gamma_prime, _ = ajl_constants(p)
    rng = np.random.default_rng(seed)
    n_ret = n_prices - 1
    sig, q = (0.0, 1.0) if np.isinf(ratio) else (1.0, ratio)

    s_rj = np.empty(n_paths)
    v_h = np.empty(n_paths)
    chunk = max(1, min(50, n_paths))
    pos = 0
    while pos < n_paths:
        m = min(chunk, n_paths - pos)
        d = rng.standard_normal((m, n_ret)) * (sig / sqrt(n_prices))
        if q > 0:
            d += np.diff(rng.standard_normal((m, n_prices)) * q, axis=1)
        v_g, v_h[pos:pos + m] = _power_variations(d, (PARABOLA, TRIANGLE), p, k_n, rho)
        s_rj[pos:pos + m] = v_g / (gamma_prime * v_h[pos:pos + m])
        pos += m
    return s_rj, v_h


def null_std(s_rj: np.ndarray) -> float:
    """Sample std (ddof = 1) of the finite null draws of S_RJ."""
    good = s_rj[np.isfinite(s_rj)]
    if len(good) < max(8, len(s_rj) // 2):
        raise RuntimeError("null calibration produced too few usable paths")
    return float(np.std(good, ddof=1))


@lru_cache(maxsize=128)
def _null_srj_std(n_prices: int, k_n: int, p: int, ratio_key: str, n_paths: int,
                  base_seed: int) -> tuple[float, int]:
    """Monte-Carlo null std of S_RJ for days the table does not cover; memoized.

    Returns (std, seed actually used).
    """
    seed = _mc_seed((n_prices, k_n, p, *WEIGHTS, ratio_key, n_paths, base_seed))
    s_rj, _ = null_draws(n_prices, k_n, p, float(ratio_key), n_paths, seed)
    return null_std(s_rj), seed


# ---------------------------------------------------------------------------
# the committed null-std table
# ---------------------------------------------------------------------------

NULL_TABLE = "ajl_null_std.csv"


def split_null_table(text: str) -> tuple[dict[str, str], str]:
    """(header fields, body) of a null-std table file.

    The header is the leading ``# key: value`` lines; the body, the
    column line and the rows, is what its ``sha256`` field digests.
    """
    lines = text.splitlines(keepends=True)
    n_head = next((i for i, line in enumerate(lines) if not line.startswith("#")),
                  len(lines))
    header = dict(line[1:].strip().split(": ", 1) for line in lines[:n_head])
    return header, "".join(lines[n_head:])


def table_digest(body: str) -> str:
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass(frozen=True)
class NullTable:
    digest: str
    # (n, k_n, p) -> (ascending q/sigma nodes, null std at each)
    nodes: dict


@lru_cache(maxsize=1)
def _null_table() -> NullTable:
    text = (resources.files("hfjumps") / "data" / NULL_TABLE).read_text()
    header, body = split_null_table(text)
    digest = table_digest(body)
    if digest != header.get("sha256"):
        raise RuntimeError(f"{NULL_TABLE}: body digest {digest} does not match "
                           f"its header; regenerate it with scripts/make_ajl_null_table.py")
    if header.get("weights") != "/".join(WEIGHTS):
        raise RuntimeError(f"{NULL_TABLE}: simulated for weights {header.get('weights')}")
    fixed = (int(header["k_n"]), int(header["p"]))
    rows: dict[int, list] = {}
    for row in csv.DictReader(body.splitlines()):
        rows.setdefault(int(row["n"]), []).append(
            (float(row["q_over_sigma"]), float(row["std"])))
    nodes = {(n, *fixed): tuple(zip(*sorted(pts))) for n, pts in rows.items()}
    return NullTable(digest, nodes)


def _table_std(n_prices: int, k_n: int, p: int, ratio_key: str) -> tuple[float, str] | None:
    """Null std of S_RJ interpolated from the table, or None if not covered.

    log(std) is linear in log(q/sigma) between nodes, and std linear in
    q/sigma between the q/sigma = 0 node and the first positive one.
    Keys "0" and "inf", and ratios above the last node, are not covered.
    Returns (std, a description of the nodes used).
    """
    nodes = _null_table().nodes.get((n_prices, k_n, p))
    if nodes is None or ratio_key in ("0", "inf"):
        return None
    ratios, stds = nodes
    r = float(ratio_key)
    if r > ratios[-1]:
        return None
    i = bisect_left(ratios, r)          # ratios[i - 1] < r <= ratios[i]
    if ratios[i] == r:
        return stds[i], f"table n={n_prices} node {r!r}"
    (r0, r1), (s0, s1) = ratios[i - 1:i + 1], stds[i - 1:i + 1]
    if r0 == 0:
        w = r / r1
        std = s0 + w * (s1 - s0)
    else:
        w = log(r / r0) / log(r1 / r0)
        std = exp(log(s0) + w * (log(s1) - log(s0)))
    std = min(max(std, min(s0, s1)), max(s0, s1))   # rounding stays inside the bracket
    return std, f"table n={n_prices} nodes {r0!r}..{r1!r} weight {w:.4f}"


def _calibrate(n_prices: int, params: AjlParams, ratio_key: str) -> tuple[float, int, str]:
    """(null std, seed, source) for a day: the table, else the Monte Carlo."""
    key = (n_prices, params.k_n, params.p)
    found = _table_std(*key, ratio_key)
    if found is not None:
        std, source = found
        return std, _mc_seed(("table", _null_table().digest, *key, *WEIGHTS, ratio_key)), source
    misses = _null_srj_std.cache_info().misses
    std, seed = _null_srj_std(*key, ratio_key, params.sigma_rj_paths, params.base_seed)
    outcome = "hit" if _null_srj_std.cache_info().misses == misses else "miss"
    return std, seed, f"monte carlo key {ratio_key} {outcome}"


# ---------------------------------------------------------------------------
# the day-level test
# ---------------------------------------------------------------------------

def ajl_test(log_prices: np.ndarray, params: AjlParams,
             frequency_s: int | None = None) -> AjlDayResult:
    """Run the day-level ratio test on an equispaced log-price series.

    ``Delta_n = 1/len(log_prices)`` in day units.  The critical value is

        ``gamma'' - z_alpha * Delta_n^{1/4} * sqrt(Sigma_RJ)``

    and the null (no jumps) is rejected one-sided toward 1.
    """
    lp = np.asarray(log_prices, dtype=float)
    n = len(lp)
    if n < 2 * params.k_n:
        raise DayRejected("ajl_short", f"{n} observations < 2*k_n={2 * params.k_n}")
    d = np.diff(lp)
    rho = solve_rho(params.p)
    v_g, v_h = _power_variations(d[None, :], (PARABOLA, TRIANGLE),
                                 params.p, params.k_n, rho)[:, 0]
    if v_h <= 0 or v_g <= 0:
        raise DayRejected("ajl_flat", "non-positive power variation (flat day)")
    s_rj = v_g / (params.gamma_prime * v_h)

    std, seed, source = _calibrate(n, params, _quantize_ratio(plugin_noise_ratio(lp)))
    delta_n = 1.0 / n
    sqrt_sigma_rj = std / delta_n ** 0.25
    z = NormalDist().inv_cdf(params.alpha)
    critical = params.gamma_dprime - z * delta_n ** 0.25 * sqrt_sigma_rj
    return AjlDayResult(
        s_rj=float(s_rj), gamma_dprime=params.gamma_dprime,
        critical_value=float(critical), sigma_rj=float(sqrt_sigma_rj ** 2),
        reject_null=bool(s_rj < critical), mc_seed=seed, frequency_s=frequency_s,
        calibration=source)
