"""Acceptance criteria, one test per criterion, at the stated tolerances.

Statistical criteria run against the built-in simulator with known
ground truth; constants with data-independent values are checked
exactly.  Each test prints one PASS/FAIL line.  The two Monte-Carlo
studies (size, power) are the slow part of the whole suite: a few
minutes together.
"""
import json
import time
from datetime import date, timedelta
from math import sqrt

import numpy as np
import pytest
from scipy import stats as sstats

from ajl_oracles import rho_residuals, vbar_reference
import hfjumps.pipeline as pl
from hfjumps.ajl import (PARABOLA, TRIANGLE, AjlParams, ajl_constants, ajl_test,
                         solve_rho, vbar)
from hfjumps.analytics import PanelRow, fe_regression
from hfjumps.config import RunConfig
from hfjumps.lee_mykland import LmParams, dedup_consecutive, lm_scan, select_k
from hfjumps.noise import estimate_noise
from hfjumps.preprocess import (DAY_SECONDS, AggregatedSeries, make_equispaced,
                                select_frequency)
from hfjumps.simulate import SimConfig, simulate_day, tick_timestamps_ns

D0 = date(2021, 3, 1)
SIGMA = 0.04          # daily volatility, realistic crypto scale
Q = 0.0005            # per-observation noise
N_DAY = 86_400


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def agg_series(observed, day=D0, n=N_DAY):
    return AggregatedSeries("SIM", day, tick_timestamps_ns(day, n), observed)


# ---------------------------------------------------------------------------
# 1. rho solver
# ---------------------------------------------------------------------------

def test_criterion_rho_solver():
    t0 = time.time()
    rho4 = solve_rho(4)
    exact = rho4.tolist() == [1.0, -3.0, 0.75]
    residuals_ok = all(np.max(np.abs(rho_residuals(p, solve_rho(p)))) < 1e-12
                       for p in (4, 6, 8))
    elapsed = time.time() - t0
    report("rho-solver", exact and residuals_ok and elapsed < 1.0,
           f"rho(4)={rho4.tolist()}, residuals<1e-12 for p in 4/6/8, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. weight-pair constants
# ---------------------------------------------------------------------------

def test_criterion_weight_constants():
    t0 = time.time()
    gamma, gamma_p, gamma_pp = ajl_constants(4)
    # oracle: exact Beta integrals 1/30, 1/12, 1/630, 1/80
    g_ok = abs(gamma - (1 / 30) / (1 / 12)) < 1e-6
    gp_ok = abs(gamma_p - (1 / 630) / (1 / 80)) < 1e-6
    gpp_ok = abs(gamma_pp - 1.26) < 1e-6
    elapsed = time.time() - t0
    report("weight-constants", g_ok and gp_ok and gpp_ok and elapsed < 1.0,
           f"gamma={gamma:.6f} gamma'={gamma_p:.6f} gamma''={gamma_pp:.6f} "
           f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# detector-level day runs (shared by size and power studies)
# ---------------------------------------------------------------------------

def detect_combined(observed, cfg, ajl_params):
    """LM scan + dedup and the day-level test on the same 1s series,
    combined with the LM-and-AJL acceptance rule.  Detector-level: the
    criterion targets the tests themselves; a single-instant jump is a
    pre-averaging-scale event that the tick-level outlier preprocessing
    (exercised in the monotonicity criterion and the end-to-end runs)
    would treat as a data error."""
    k = select_k(observed)
    params = LmParams.for_series(len(observed), k, C=cfg.lm_C, alpha=cfg.alpha,
                                 bonferroni=True)
    scan = lm_scan(observed, params)
    accepted = dedup_consecutive(scan.moments, cfg.dedup_window)
    day = ajl_test(observed, ajl_params)
    return scan, accepted, day, params


# ---------------------------------------------------------------------------
# 3. size study
# ---------------------------------------------------------------------------

def test_criterion_size_study():
    n_days = 1000
    cfg = RunConfig()
    ajl_params = AjlParams(alpha=cfg.alpha, base_seed=cfg.seed)
    rng_seeds = range(100_000, 100_000 + n_days)
    combined_flags = 0
    lm_day_flags = 0
    for seed in rng_seeds:
        sim = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=N_DAY, seed=seed))
        scan, accepted, day, _ = detect_combined(sim.observed, cfg, ajl_params)
        if scan.flagged:
            lm_day_flags += 1
        if accepted and day.reject_null:
            combined_flags += 1
    rate = combined_flags / n_days
    # Clopper-Pearson 99% interval lower bound must not exceed 0.005
    if combined_flags == 0:
        ci_low = 0.0
    else:
        ci_low = float(sstats.beta.ppf(0.005, combined_flags,
                                       n_days - combined_flags + 1))
    lm_rate = lm_day_flags / n_days
    report("size-study",
           ci_low <= 0.005 and rate <= 0.005 and lm_rate <= 0.005,
           f"combined day flag rate={rate:.4f} (CI low {ci_low:.4f}), "
           f"LM-only day rate={lm_rate:.4f} over {n_days} days")


# ---------------------------------------------------------------------------
# 3b. day-test size across noise levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("noise_ratio, first_seed", [
    (0.003, 110_000), (0.03, 120_000),
    pytest.param(0.1, 130_000, marks=pytest.mark.xfail(strict=True, reason=(
        "4 of 500 days flag (0.8%) with the table and the same 4 with the Monte-Carlo "
        "fallback; the plug-in q/sigma spreads from 0.045 to inf (sigma floored at 0 on "
        "165 days), and the flagged days read 0.06-0.09, so their null std is too small; "
        "ROADMAP item 3 (noise-adaptive pre-averaging window)")))])
def test_criterion_size_multi_noise(noise_ratio, first_seed):
    """AJL-only size on 5-s days away from the q/sigma of the other studies.

    Checks the null std the test takes from its table (interpolated in
    q/sigma) where the plug-in ratio lands between the table's nodes.
    """
    n_days, n = 500, 17_280
    params = AjlParams(alpha=0.999)
    flags = sum(ajl_test(simulate_day(SimConfig(sigma=SIGMA, q=noise_ratio * SIGMA, n=n,
                                                seed=seed)).observed, params).reject_null
                for seed in range(first_seed, first_seed + n_days))
    rate = flags / n_days
    report(f"size-multi-noise q/sigma={noise_ratio}", rate <= 0.005,
           f"AJL-only day flag rate={rate:.4f} over {n_days} 5-s days")


# ---------------------------------------------------------------------------
# 4. power study
# ---------------------------------------------------------------------------

def test_criterion_power_study():
    n_seeds = 500
    cfg = RunConfig()
    ajl_params = AjlParams(alpha=cfg.alpha, base_seed=cfg.seed)
    rng = np.random.default_rng(777)
    detected = 0
    within1 = 0
    within2 = 0
    for i in range(n_seeds):
        inj = int(rng.integers(5_000, N_DAY - 5_000))
        t = inj / N_DAY
        sim = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=N_DAY,
                                     seed=200_000 + i,
                                     jump_times=(t,),
                                     jump_sizes=(10 * SIGMA,)))
        scan, accepted, day, params = detect_combined(sim.observed, cfg, ajl_params)
        if accepted and day.reject_null:
            detected += 1
            jump_block = inj // (params.k * params.M)
            dist = min(abs(j - jump_block) for j in accepted)
            if dist <= 1:
                within1 += 1
            if dist <= 2:
                within2 += 1
    rate = detected / n_seeds
    loc1 = within1 / detected if detected else 0.0
    loc2 = within2 / detected if detected else 0.0
    report("power-study", rate >= 0.90 and loc1 >= 0.90 and loc2 >= 0.90,
           f"combined detection {rate:.3f}, within +-1 block {loc1:.3f}, "
           f"within +-2 blocks {loc2:.3f} of {detected} detections")


# ---------------------------------------------------------------------------
# 5. AJL limit behavior
# ---------------------------------------------------------------------------

def test_criterion_ajl_limits():
    n = 17_280
    n_seeds = 200
    params = AjlParams(alpha=0.999, base_seed=3)
    gamma_pp = params.gamma_dprime
    s_cont, s_jump, rejects = [], [], 0
    for i in range(n_seeds):
        sim = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=n, seed=300_000 + i))
        r = ajl_test(sim.observed, params)
        s_cont.append(r.s_rj)
        simj = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=n, seed=300_000 + i,
                                      jump_times=(0.5,), jump_sizes=(10 * SIGMA,)))
        rj = ajl_test(simj.observed, params)
        s_jump.append(rj.s_rj)
        rejects += rj.reject_null
    mean_cont = float(np.mean(s_cont))
    mean_jump = float(np.mean(s_jump))
    rej_rate = rejects / n_seeds
    report("ajl-limits",
           abs(mean_cont / gamma_pp - 1) < 0.05 and mean_jump < 1.1
           and rej_rate >= 0.90,
           f"continuous mean S_RJ={mean_cont:.4f} (gamma''={gamma_pp:.4f}), "
           f"jump mean S_RJ={mean_jump:.4f}, jump rejection rate={rej_rate:.3f}")


# ---------------------------------------------------------------------------
# 6. noise estimator
# ---------------------------------------------------------------------------

def test_criterion_noise_estimator():
    # q recovery on pure noise, q = 0.001
    q_true = 0.001
    qs = []
    for seed in range(100):
        rng = np.random.default_rng(400_000 + seed)
        prices = np.log(100.0) + q_true * rng.standard_normal(N_DAY)
        qs.append(sqrt(estimate_noise(prices, k=3).q_hat_sq))
    q_err = abs(np.mean(qs) / q_true - 1)

    # V_n against the limit (2/3) sigma^2 C^2 T + 2 q^2
    C = 0.05
    target = (2 / 3) * SIGMA ** 2 * C ** 2 + 2 * Q ** 2
    vns = []
    for seed in range(100):
        sim = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=N_DAY, seed=500_000 + seed))
        vns.append(lm_scan(sim.observed, LmParams.for_series(N_DAY, 3, C=C)).v_n)
    v_err = abs(np.mean(vns) / target - 1)
    report("noise-estimator", q_err < 0.05 and v_err < 0.10,
           f"q rel err={q_err:.4f} (<5%), V_n rel err={v_err:.4f} (<10%)")


# ---------------------------------------------------------------------------
# 7. invariance suite
# ---------------------------------------------------------------------------

def test_criterion_invariance_suite():
    n = 30_000
    sim = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=n, seed=600_001))
    params = LmParams(k=3, M=6)
    base = lm_scan(sim.observed, params)
    shifted = lm_scan(sim.observed + 1.0, params)     # exact in [4,8) binade
    shift_ok = all(np.array_equal(getattr(base, name), getattr(shifted, name))
                   for name in ("xi", "pbar", "chi"))
    scaled = lm_scan(7.0 * sim.observed, params)
    scale_ok = bool(np.all(np.abs(scaled.xi - base.xi)
                           <= 1e-10 * np.maximum(1.0, np.abs(base.xi))))

    ajl_params = AjlParams(sigma_rj_paths=100, base_seed=2)
    sim5 = simulate_day(SimConfig(sigma=SIGMA, q=Q, n=17_280, seed=600_002))
    r_base = ajl_test(sim5.observed, ajl_params)
    srj_exact = all(ajl_test(c * sim5.observed, ajl_params).s_rj == r_base.s_rj
                    for c in (2.0, 0.25, 1024.0))

    rng = np.random.default_rng(600_003)
    rows = []
    for si in range(3):
        for d in range(40):
            x = int(rng.integers(0, 2))
            rows.append(PanelRow(f"S{si}", D0 + timedelta(days=d),
                                 0.01 * x + 0.02 * rng.standard_normal(),
                                 x, 0, x, 0))
    res1 = fe_regression(rows, ("jump_dummy",))
    rows2 = [PanelRow(r.symbol, r.utc_date,
                      r.daily_return + {"S0": 5.0, "S1": -2.0, "S2": 0.25}[r.symbol],
                      r.jump_dummy, r.lagged_jump_dummy, r.pos_jump_dummy,
                      r.neg_jump_dummy) for r in rows]
    res2 = fe_regression(rows2, ("jump_dummy",))
    fe_ok = (abs(res2.coef[0] - res1.coef[0]) < 1e-12
             and abs(res2.se[0] - res1.se[0]) < 1e-12)
    report("invariance-suite", shift_ok and scale_ok and srj_exact and fe_ok,
           f"LM shift bitwise={shift_ok}, LM scale 1e-10={scale_ok}, "
           f"S_RJ scale exact={srj_exact}, FE shift 1e-12={fe_ok}")


# ---------------------------------------------------------------------------
# 8. monotonicity in alpha
# ---------------------------------------------------------------------------

def test_criterion_monotonicity():
    # fixed 100-day corpus with ramp jumps of mixed sizes (marginal ones
    # included so the counts actually move with alpha)
    n = 17_280
    days = []
    rng = np.random.default_rng(888)
    for i in range(100):
        jump = None
        if i % 5 != 4:          # 80 jump days
            size = float(rng.choice([0.004, 0.008, 0.015, 0.03]))
            sign = -1 if rng.random() < 0.5 else 1
            jump = (float(rng.uniform(0.1, 0.9)), sign * size)
        cfg = SimConfig(sigma=SIGMA, q=Q, n=n, seed=700_000 + i,
                        jump_times=(jump[0],) if jump else None,
                        jump_sizes=(jump[1],) if jump else None,
                        jump_spread_ticks=12)
        sim = simulate_day(cfg)
        days.append(agg_series(sim.observed, D0 + timedelta(days=i), n))
    counts = {}
    for alpha in (0.9, 0.95, 0.99, 0.999):
        cfg = RunConfig(alpha=alpha)
        counts[alpha] = sum(len(pl.detect_day(s, cfg).accepted_jumps)
                            for s in days)
    ordered = (counts[0.9] >= counts[0.95] >= counts[0.99] >= counts[0.999])
    moved = counts[0.9] > counts[0.999] > 0
    report("monotonicity", ordered and moved,
           f"accepted jumps by alpha: " +
           ", ".join(f"{a}:{counts[a]}" for a in (0.9, 0.95, 0.99, 0.999)))


# ---------------------------------------------------------------------------
# 9. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_oracle_equivalence():
    rng = np.random.default_rng(999)
    vbar_ok = True
    for i in range(50):
        n = int(rng.integers(300, 2_000))
        d = rng.normal(0, 10 ** rng.uniform(-5, -2), n)
        w = PARABOLA if i % 2 == 0 else TRIANGLE
        fast = vbar(d, w, p=4, k_n=100)
        ref = vbar_reference(d, w, p=4, k_n=100)
        if not np.isclose(fast, ref, rtol=1e-10, atol=1e-300):
            vbar_ok = False
            break

    fe_ok = True
    for i in range(20):
        rows = []
        for si in range(int(rng.integers(2, 5))):
            for d_i in range(int(rng.integers(10, 60))):
                x = int(rng.integers(0, 2))
                rows.append(PanelRow(f"S{si}", D0 + timedelta(days=d_i),
                                     0.01 * x + 0.03 * rng.standard_normal(),
                                     x, 0, x, 0))
        res = fe_regression(rows, ("jump_dummy",))
        # literal matrix formula with an explicit diagonal residual matrix
        symbols = sorted({r.symbol for r in rows})
        y = np.array([r.daily_return for r in rows])
        x = np.array([float(r.jump_dummy) for r in rows])
        for s in symbols:
            m = np.array([r.symbol == s for r in rows])
            y[m] -= y[m].mean()
            x[m] -= x[m].mean()
        X = x.reshape(-1, 1)
        xtx_inv = np.linalg.inv(X.T @ X)
        beta = float((xtx_inv @ X.T @ y)[0])
        e = y - X @ [beta]
        se = float(np.sqrt((xtx_inv @ (X.T @ np.diag(e ** 2) @ X) @ xtx_inv)[0, 0]))
        if not (np.isclose(res.coef[0], beta, rtol=1e-10)
                and np.isclose(res.se[0], se, rtol=1e-10)):
            fe_ok = False
            break

    # LOCF vs brute force, elementwise
    f = 5
    n_bins = DAY_SECONDS // f
    keep = rng.random(n_bins) > 0.3
    keep[0] = False
    keep[100] = True
    seconds = np.nonzero(keep)[0] * f
    logp = rng.normal(0, 1, len(seconds))
    series = AggregatedSeries("S", D0,
                              tick_timestamps_ns(D0, DAY_SECONDS)[seconds],
                              logp)
    eq = make_equispaced(series, f)
    out = [None] * n_bins
    for s, v in zip(seconds // f, logp):
        out[int(s)] = v
    first = next(i for i, v in enumerate(out) if v is not None)
    for i in range(n_bins):
        if out[i] is None:
            out[i] = out[i - 1] if i > first else out[first]
    locf_ok = np.array_equal(eq.log_prices, np.array(out))
    report("oracle-equivalence", vbar_ok and fe_ok and locf_ok,
           f"vbar 50 series={vbar_ok}, FE 20 panels={fe_ok}, LOCF={locf_ok}")


# ---------------------------------------------------------------------------
# 10. preprocess determinism
# ---------------------------------------------------------------------------

def test_criterion_preprocess_determinism():
    ts_all = tick_timestamps_ns(D0, DAY_SECONDS)
    full = AggregatedSeries("S", D0, ts_all, np.zeros(DAY_SECONDS))
    boundary = AggregatedSeries("S", D0, ts_all[:82_080], np.zeros(82_080))
    sparse_idx = np.unique(np.linspace(0, DAY_SECONDS - 1, 5_000).astype(int))
    sparse = AggregatedSeries("S", D0, ts_all[sparse_idx],
                              np.zeros(len(sparse_idx)))
    ok = (select_frequency(full) == 1
          and select_frequency(boundary) == 1
          and select_frequency(sparse) is None)
    report("preprocess-determinism", ok,
           f"full->{select_frequency(full)}, 82080->{select_frequency(boundary)}, "
           f"5000 ticks->{select_frequency(sparse)}")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_end_to_end_determinism(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cli(*argv):
        # fresh process per invocation: determinism must not rely on
        # in-process caches
        proc = subprocess.run([sys.executable, "-m", "hfjumps.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def one_run(tag):
        root = tmp_path / tag
        corpus = root / "corpus"
        cli("simulate", "--out", str(corpus), "--days", "3",
            "--symbol", "BTC", "--jumps", "1.0", "--jump-size", "0.03",
            "--seed", "11", "--ticks-per-day", "17280", "--jump-spread", "20")
        store = root / "store"
        csvs = sorted(str(p) for p in corpus.glob("*.csv"))
        cli("ingest", "--store", str(store), "--csv", *csvs)
        catalog = root / "catalog.jsonl"
        cli("detect", "--store", str(store), "--out", str(catalog),
            "--sigma-rj-paths", "100")
        tables = root / "tables"
        cli("analyze", "--store", str(store), "--catalog", str(catalog),
            "--out", str(tables))
        blobs = {"catalog.jsonl": catalog.read_bytes(),
                 "catalog.jsonl.removals.csv": (root / "catalog.jsonl.removals.csv").read_bytes()}
        for p in sorted(tables.iterdir()):
            blobs["tables/" + p.name] = p.read_bytes()
        for p in sorted(corpus.iterdir()):
            blobs["corpus/" + p.name] = p.read_bytes()
        return blobs

    a = one_run("run1")
    b = one_run("run2")
    same = set(a) == set(b) and all(a[k] == b[k] for k in a)
    n_jumps = sum(len(r["accepted_jumps"])
                  for r in map(json.loads,
                               a["catalog.jsonl"].decode().splitlines()))
    report("end-to-end-determinism", same,
           f"{len(a)} artifacts byte-identical across reruns, "
           f"{n_jumps} catalog jumps")
