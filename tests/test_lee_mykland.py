"""Moment-level jump test: k selection, scan, dedup."""
from math import log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfjumps.errors import DayRejected
from hfjumps.lee_mykland import (LmParams, an_bn, dedup_consecutive, gumbel_quantile,
                                 lm_scan, select_k)


def acf_oracle(returns, max_lag):
    """Whole-vector autocorrelation via np.correlate (independent path)."""
    r = np.asarray(returns, dtype=float)
    r = r - r.mean()
    full = np.correlate(r, r, mode="full")
    mid = len(r) - 1
    return full[mid + 1: mid + 1 + max_lag] / full[mid]


def k_oracle(prices):
    """The selection rule applied to oracle autocorrelations."""
    r = np.diff(prices)
    band = 1.96 / sqrt(len(r))
    rho = acf_oracle(r, 60)
    for lag, val in enumerate(rho, start=1):
        if abs(val) <= band:
            return min(max(lag + 1, 3), 51)
    return 51


# ---------------------------------------------------------------------------
# select_k
# ---------------------------------------------------------------------------

def test_select_k_iid_returns_floor():
    rng = np.random.default_rng(1)
    prices = np.cumsum(rng.normal(0, 1e-4, 20_000))
    assert select_k(prices) == 3


def test_select_k_dependent_noise_average_five():
    # noise with two-lag moving-average structure makes the *returns* an
    # MA(3): autocorrelation significant through lag 3 (population values
    # -0.76, +0.36, -0.09 against a +-0.009 band), inside the band at lag 4,
    # so k = 5 by the selection rule
    rng = np.random.default_rng(2)
    ks = []
    for _ in range(20):
        u = rng.normal(0, 1e-3, 50_004)
        eps = u[4:] - 0.5 * u[3:-1] + 0.4 * u[2:-2]
        prices = np.log(100.0) + eps
        got = select_k(prices)
        assert got == k_oracle(prices)        # oracle equivalence per seed
        ks.append(got)
    assert 4.5 <= np.mean(ks) <= 5.5
    assert int(np.median(ks)) == 5


def test_select_k_long_memory_clamps_to_51():
    # returns built from a 60-lag moving average stay autocorrelated far
    # beyond the clamp ceiling
    rng = np.random.default_rng(3)
    u = rng.normal(0, 1e-4, 30_000 + 60)
    r = np.convolve(u, np.ones(60), mode="valid")[:30_000]
    prices = np.cumsum(r)
    assert select_k(prices) == 51 == k_oracle(prices)


def test_select_k_short_series_rejected():
    with pytest.raises(DayRejected):
        select_k(np.zeros(999))


# ---------------------------------------------------------------------------
# constants and scan
# ---------------------------------------------------------------------------

def test_an_bn_frozen_example():
    # n=86,400, k=5, M=6: 2,880 blocks; closed forms evaluated independently
    a, b, L = an_bn(86_400, 5, 6)
    assert L == 2880
    t = 2 * log(2880.0)
    a_ref = sqrt(t) - (log(pi) + log(log(2880.0))) / (2 * sqrt(t))
    b_ref = 1 / sqrt(t)
    assert a == pytest.approx(a_ref, rel=0, abs=0)
    assert b == pytest.approx(b_ref, rel=0, abs=0)
    assert a == pytest.approx(3.588, abs=5e-4)
    assert b == pytest.approx(0.2505, abs=5e-5)


def test_lm_params_for_series():
    p = LmParams.for_series(n=86_400, k=5, C=0.05)
    assert p.M == round(0.05 * sqrt(86_400 // 5))
    with pytest.raises(ValueError):
        LmParams(k=2, M=4)
    with pytest.raises(ValueError):
        LmParams(k=52, M=4)


def sim_day(seed, n=86_400, sigma2=0.0016, q=0.0005, jump=None):
    rng = np.random.default_rng(seed)
    x = np.log(100.0) + np.cumsum(sqrt(sigma2 / n) * rng.standard_normal(n))
    if jump is not None:
        at, size = jump
        x[at:] += size
    return x + q * rng.standard_normal(n)


def test_lm_scan_block_count_and_moment_count():
    p = sim_day(7)
    params = LmParams(k=5, M=6, alpha=0.999)
    res = lm_scan(p, params)
    assert res.n_blocks == 2880
    assert len(res.moments) == 2879           # last block has no successor
    assert len(res.pbar) == len(res.chi) == len(res.xi) == 2879


def test_lm_scan_flags_injected_jump_near_block():
    params = LmParams(k=3, M=8)
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        inj = int(rng.integers(2000, 84_000))
        p = sim_day(seed, jump=(inj, 10 * 0.04))
        res = lm_scan(p, params)
        flags = res.flagged
        assert flags, "10-sigma jump must be detected"
        jblock = inj // (3 * 8)
        if min(abs(f - jblock) for f in flags) <= 1:
            hits += 1
    assert hits >= 24                          # >= 80% within one block here


def test_lm_scan_no_flags_on_null_day():
    params = LmParams(k=3, M=8, alpha=0.999, bonferroni=True)
    for seed in range(5):
        res = lm_scan(sim_day(200 + seed), params)
        assert res.flagged == []


def test_lm_scan_max_statistic_identity():
    res = lm_scan(sim_day(8), LmParams(k=5, M=6))
    assert (np.abs(res.chi).max() - res.a_n) / res.b_n == res.xi.max()


def test_lm_scan_shift_invariance_bitwise():
    # log-price shifts must cancel exactly: all statistics are built from
    # elementwise price differences
    p = sim_day(9, n=30_000)
    params = LmParams(k=3, M=4)
    base = lm_scan(p, params)
    shifted = lm_scan(p + 1.0, params)
    for name in ("pbar", "chi", "xi"):
        assert np.array_equal(getattr(base, name), getattr(shifted, name))


def test_lm_scan_scale_invariance_1e10():
    p = sim_day(10, n=30_000)
    params = LmParams(k=3, M=4)
    base = lm_scan(p, params)
    scaled = lm_scan(7.0 * p, params)
    assert len(scaled.xi) == len(base.xi)
    for a, b in zip(base.chi, scaled.chi):
        assert b == pytest.approx(a, rel=1e-10)
    for a, b in zip(base.xi, scaled.xi):
        assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_lm_scan_jump_count_non_increasing_in_alpha():
    p = sim_day(11, jump=(43_000, 0.02))
    counts = []
    for alpha in (0.9, 0.95, 0.99, 0.999):
        res = lm_scan(p, LmParams(k=3, M=8, alpha=alpha, bonferroni=True))
        counts.append(len(dedup_consecutive(res.moments)))
    assert counts == sorted(counts, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(200, 3000), st.integers(3, 8), st.integers(1, 12),
       st.sampled_from([0.5, 0.999]), st.booleans(), st.booleans())
def test_lm_scan_moments_match_a_per_block_construction(seed, n, k, M, alpha, jump, stamped):
    p = sim_day(seed, n=n, jump=(n // 2, 0.02) if jump else None)
    ts = 1_614_556_800 * 10 ** 9 + np.cumsum(np.arange(1, n + 1)) if stamped else None
    res = lm_scan(p, LmParams(k=k, M=M, alpha=alpha), timestamps_ns=ts)
    sub = p[::k]
    want = []
    for j in range(len(sub) // M - 1):
        pbar = float(np.mean(sub[(j + 1) * M:(j + 2) * M] - sub[j * M:(j + 1) * M]))
        chi = pbar * (sqrt(M) / sqrt(res.v_n))
        xi = (abs(chi) - res.a_n) / res.b_n
        want.append((None if ts is None else int(ts[min(j * k * M, n - 1)]),
                     pbar, chi, xi, xi > res.threshold))
    starts, pbar, chi, xi, flag = zip(*want)
    assert res.pbar.tolist() == list(pbar)
    assert res.chi.tolist() == list(chi)
    assert res.xi.tolist() == list(xi)
    assert res.moments.tolist() == list(flag)
    assert res.flagged == [j for j, f in enumerate(flag) if f]
    if stamped:
        assert res.starts.tolist() == list(starts)
    else:
        assert res.starts is None


def test_lm_scan_too_few_blocks_rejected():
    with pytest.raises(DayRejected):
        lm_scan(np.linspace(4.5, 4.6, 40), LmParams(k=3, M=8))


# ---------------------------------------------------------------------------
# dedup
# ---------------------------------------------------------------------------

def moments_at(indices):
    """A flag mask with the given indices set, as long as the largest needs."""
    mask = np.zeros(max(indices) + 1 if indices else 0, bool)
    mask[list(indices)] = True
    return mask


def test_dedup_paper_rule_example():
    acc = dedup_consecutive(moments_at({100, 103, 108, 200}), window=10)
    assert acc == [100, 200]


def test_dedup_empty():
    assert dedup_consecutive(np.zeros(0, bool), window=10) == []
    assert dedup_consecutive(np.zeros(50, bool), window=10) == []


def test_dedup_boundary_exclusive():
    assert dedup_consecutive(moments_at({5, 16}), window=10) == [5, 16]
    assert dedup_consecutive(moments_at({5, 15}), window=10) == [5]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 400), min_size=0, max_size=40),
       st.integers(1, 15))
def test_dedup_properties(flags, window):
    acc = dedup_consecutive(moments_at(flags), window)
    assert all(type(a) is int for a in acc)
    if flags:
        assert acc[0] == min(flags)            # first of a run always kept
    assert all(b - a > window for a, b in zip(acc, acc[1:]))
    # resumption: every flag is either accepted or within `window` after one
    for f in flags:
        assert any(a <= f <= a + window for a in acc)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 300), min_size=1, max_size=30),
       st.sets(st.integers(0, 300), min_size=0, max_size=10))
def test_dedup_count_monotone_under_flag_subsets(flags, removed):
    sub = flags - removed
    n_all = len(dedup_consecutive(moments_at(flags), 10))
    n_sub = len(dedup_consecutive(moments_at(sub), 10)) if sub else 0
    assert n_sub <= n_all


def test_gumbel_quantile():
    assert gumbel_quantile(np.exp(-np.exp(-2.0))) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        gumbel_quantile(1.0)
