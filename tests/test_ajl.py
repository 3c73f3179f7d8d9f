"""Day-level ratio test: rho system, weights, power variation, decision."""
import importlib.util
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt
from pathlib import Path

import numpy as np
import pytest

from ajl_oracles import rho_residuals, vbar_reference
from hfjumps import ajl as ajl_module
from hfjumps import noise
from hfjumps.ajl import (PARABOLA, TRIANGLE, AjlParams, _power_variations,
                         absolute_normal_moment, ajl_constants, ajl_test, solve_rho, vbar)
from hfjumps.errors import ConfigError, DayRejected
from hfjumps.preprocess import DAY_SECONDS, FREQUENCIES

# exact Beta-integral values for the default weight pair
EXACT = {"g2": 1 / 30, "h2": 1 / 12, "g4": 1 / 630, "h4": 1 / 80}


# ---------------------------------------------------------------------------
# rho coefficients
# ---------------------------------------------------------------------------

def test_solve_rho_p4_exact():
    rho = solve_rho(4)
    assert rho.tolist() == [1.0, -3.0, 0.75]


@pytest.mark.parametrize("p", [4, 6, 8])
def test_solve_rho_residuals(p):
    res = rho_residuals(p, solve_rho(p))
    assert np.max(np.abs(res)) < 1e-12


def test_solve_rho_p6_matches_dense_linear_solve():
    # generic linear-algebra oracle: assemble the full triangular system
    p = 6
    half = p // 2
    A = np.zeros((half + 1, half + 1))
    b = np.zeros(half + 1)
    A[0, 0], b[0] = 1.0, 1.0
    for j in range(1, half + 1):
        for l in range(j + 1):
            A[j, l] = (2 ** l) * absolute_normal_moment(2 * j - 2 * l) \
                      * comb(p - 2 * l, p - 2 * j)
    want = np.linalg.solve(A, b)
    np.testing.assert_allclose(solve_rho(p), want, rtol=1e-13)


def test_solve_rho_invalid_p():
    for bad in (3, 5, 2, 0, -4):
        with pytest.raises(ValueError):
            solve_rho(bad)


def test_absolute_normal_moments():
    assert absolute_normal_moment(0) == 1.0
    assert absolute_normal_moment(2) == 1.0
    assert absolute_normal_moment(4) == 3.0
    assert absolute_normal_moment(6) == 15.0
    # solve_rho asks for even orders only
    for bad in (1, 3, -2):
        with pytest.raises(ValueError):
            absolute_normal_moment(bad)


# ---------------------------------------------------------------------------
# weights and constants
# ---------------------------------------------------------------------------

def moment(w, r):
    return float(w.exact_moment(r))


def test_weight_moments_match_beta_integrals():
    assert moment(PARABOLA, 2) == pytest.approx(EXACT["g2"], abs=1e-10)
    assert moment(PARABOLA, 4) == pytest.approx(EXACT["g4"], abs=1e-10)
    assert moment(TRIANGLE, 2) == pytest.approx(EXACT["h2"], abs=1e-10)
    assert moment(TRIANGLE, 4) == pytest.approx(EXACT["h4"], abs=1e-10)


def test_weight_moments_match_beta_integrals_to_rounding():
    for got, want in ((moment(PARABOLA, 2), EXACT["g2"]), (moment(PARABOLA, 4), EXACT["g4"]),
                      (moment(TRIANGLE, 2), EXACT["h2"]), (moment(TRIANGLE, 4), EXACT["h4"])):
        assert type(got) is float
        assert abs(got - want) <= 1e-14 * want


def test_ajl_constants_default_pair():
    gamma, gamma_p, gamma_pp = ajl_constants(4)
    assert gamma == pytest.approx(0.4, abs=1e-6)
    assert gamma_p == pytest.approx(8 / 63, abs=1e-6)
    assert gamma_pp == pytest.approx(1.26, abs=1e-6)


def exact_moments(r):
    """(parabola, triangle) ``int_0^1 g^r ds`` as fractions, by expanding the polynomials."""
    # (s - s^2)^r = sum_k C(r, k) (-1)^k s^(r+k);  min(s, 1-s) is symmetric about 1/2
    parabola = sum(Fraction((-1) ** k * comb(r, k), r + k + 1) for k in range(r + 1))
    triangle = 2 * Fraction(1, 2) ** (r + 1) / (r + 1)
    return parabola, triangle


@pytest.mark.parametrize("p", range(4, 21, 2))
def test_ajl_constants_match_exact_fractions(p):
    (g2, h2), (gp, hp) = exact_moments(2), exact_moments(p)
    gamma, gamma_p = g2 / h2, gp / hp
    want = (gamma, gamma_p, gamma ** (p // 2) / gamma_p)
    for got, exact in zip(ajl_constants(p), want):
        assert abs(got - exact) <= Fraction(1, 10 ** 15) * exact


# ---------------------------------------------------------------------------
# vbar
# ---------------------------------------------------------------------------

def test_vbar_zero_returns():
    assert vbar(np.zeros(500), PARABOLA) == 0.0


def test_vbar_single_spike_matches_direct_sum():
    d = np.zeros(400)
    d[200] = 0.01
    got = vbar(d, PARABOLA, p=4, k_n=100)
    want = vbar_reference(d, PARABOLA, p=4, k_n=100)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    # closed-form check: only windows overlapping the spike contribute;
    # with yhat = (g'_j d)^2 per window the total is
    # sum_j [ g_j^4 d^4 - 3 g_j^2 d^2 (g'_{j'} d)^2 ... ] collapsed below
    kn = 100
    full = PARABOLA(np.arange(0, kn + 1) / kn)
    wj, wp = full[1:kn], np.diff(full)
    manual = 0.0
    for j in range(1, kn):          # spike sits at offset j within the window
        yb = wj[j - 1] * 0.01
        yh = (wp[j - 1] * 0.01) ** 2
        manual += yb ** 4 - 3 * yb ** 2 * yh + 0.75 * yh ** 2
    # windows where only g'_{kn} touches the spike (ybar misses it)
    manual += 0.75 * ((wp[kn - 1] * 0.01) ** 2) ** 2
    assert got == pytest.approx(manual, rel=1e-12, abs=0)


def test_vbar_iid_gaussian_matches_reference_17280():
    rng = np.random.default_rng(42)
    d = rng.normal(0, 3e-4, 17_280)
    got = vbar(d, PARABOLA, p=4, k_n=100)
    want = vbar_reference(d, PARABOLA, p=4, k_n=100)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_every_day_grid_has_a_5_smooth_price_count():
    # _power_variations pads to the price count, a fast FFT length on these grids
    for f in FREQUENCIES:
        m = DAY_SECONDS // f
        for factor in (2, 3, 5):
            while m % factor == 0:
                m //= factor
        assert m == 1, f


@pytest.mark.parametrize("n", [1_009, 1_080, 100])   # prime, 5-smooth, N == k_n
@pytest.mark.parametrize("w", [PARABOLA, TRIANGLE], ids=lambda w: w.name)
def test_vbar_matches_reference_at_any_length(n, w):
    d = np.random.default_rng(n).normal(0, 3e-4, n)
    assert vbar(d, w, p=4, k_n=100) == pytest.approx(vbar_reference(d, w, p=4, k_n=100),
                                                     rel=1e-12, abs=0)


def test_power_variations_rows_match_vbar_for_both_weights():
    rng = np.random.default_rng(3)
    d = rng.normal(0, 1e-3, (5, 2_001))
    d[2] += np.diff(rng.normal(0, 1e-3, 2_002))     # a noisier row
    rho = solve_rho(4)
    got = _power_variations(d, (PARABOLA, TRIANGLE), 4, 50, rho)
    assert got.shape == (2, 5)
    for i, w in enumerate((PARABOLA, TRIANGLE)):
        for r in range(5):
            assert got[i, r] == pytest.approx(vbar(d[r], w, p=4, k_n=50, rho=rho),
                                              rel=1e-14, abs=0)


def test_vbar_short_series_rejected():
    with pytest.raises(DayRejected):
        vbar(np.zeros(50), PARABOLA, k_n=100)


# ---------------------------------------------------------------------------
# the day-level test
# ---------------------------------------------------------------------------

def noisy_path(seed, n=17_280, sigma2=0.0016, q=0.0005, jump=None):
    rng = np.random.default_rng(seed)
    x = np.log(100.0) + np.cumsum(sqrt(sigma2 / n) * rng.standard_normal(n))
    if jump is not None:
        x[n // 2:] += jump
    return x + q * rng.standard_normal(n)


def test_ajl_test_continuous_vs_jump_decision():
    params = AjlParams(sigma_rj_paths=100, base_seed=1)
    cont = ajl_test(noisy_path(1), params)
    assert not cont.reject_null
    assert cont.s_rj == pytest.approx(1.26, rel=0.15)
    jump = ajl_test(noisy_path(2, jump=0.4), params)
    assert jump.reject_null
    assert jump.s_rj < 1.1
    assert jump.critical_value == pytest.approx(cont.critical_value, rel=0.2)


def test_ajl_test_scale_invariance_power_of_two_exact():
    params = AjlParams(sigma_rj_paths=100, base_seed=1)
    p = noisy_path(3)
    base = ajl_test(p, params)
    for c in (2.0, 0.25, 1024.0):
        scaled = ajl_test(c * p, params)
        assert scaled.s_rj == base.s_rj        # bitwise for power-of-two scales


def test_ajl_test_scale_by_7_same_decision():
    params = AjlParams(sigma_rj_paths=100, base_seed=1)
    p = noisy_path(4, jump=0.4)
    base = ajl_test(p, params)
    scaled = ajl_test(7.0 * p, params)
    assert scaled.s_rj == pytest.approx(base.s_rj, rel=1e-12)
    assert scaled.reject_null == base.reject_null


def test_ajl_test_flat_day_rejected():
    with pytest.raises(DayRejected):
        ajl_test(np.full(1000, 4.6), AjlParams(sigma_rj_paths=100))


def test_ajl_test_short_day_rejected():
    with pytest.raises(DayRejected):
        ajl_test(np.linspace(4.5, 4.6, 150), AjlParams(k_n=100, sigma_rj_paths=100))


def test_ajl_test_rejection_monotone_in_alpha():
    # larger alpha shrinks the rejection region: reject at alpha implies
    # reject at every smaller alpha
    p = noisy_path(5, jump=0.4)
    alphas = (0.9, 0.95, 0.99, 0.999)
    results = [ajl_test(p, AjlParams(alpha=a, sigma_rj_paths=100, base_seed=1))
               for a in alphas]
    crits = [r.critical_value for r in results]
    assert crits == sorted(crits, reverse=True)
    for lo, hi in zip(results, results[1:]):
        if hi.reject_null:
            assert lo.reject_null


def test_ajl_test_deterministic_given_seed():
    params = AjlParams(sigma_rj_paths=100, base_seed=9)
    p = noisy_path(6)
    r1 = ajl_test(p, params)
    r2 = ajl_test(p, params)
    assert r1.s_rj == r2.s_rj
    assert r1.critical_value == r2.critical_value
    assert r1.mc_seed == r2.mc_seed


def test_ajl_test_z_matches_scipy_norm_ppf(monkeypatch):
    from scipy import stats

    # a null std of 1 at n = 2^12 makes Delta_n^{1/4} = 2^-3 and
    # sqrt(Sigma_RJ) = 2^3, so critical = gamma'' - z up to one rounding
    monkeypatch.setattr(ajl_module, "_null_srj_std", lru_cache(lambda *key: (1.0, 0)))
    path = noisy_path(8, n=4_096)
    for alpha in (0.9, 0.99, 0.999, 0.9999):
        res = ajl_test(path, AjlParams(alpha=alpha, k_n=20, sigma_rj_paths=8))
        want = stats.norm.ppf(alpha)
        assert abs((res.gamma_dprime - res.critical_value) - want) <= 1e-15 * want


# ---------------------------------------------------------------------------
# the null-std table and the Monte-Carlo fallback
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
TABLE_SCRIPT = REPO / "scripts" / "make_ajl_null_table.py"
DEFAULT_KEY = (100, 4)


def table_rows():
    """{(n, q/sigma): std} read straight from the packaged file."""
    import csv
    text = (REPO / "src" / "hfjumps" / "data" / ajl_module.NULL_TABLE).read_text()
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return {(int(r["n"]), float(r["q_over_sigma"])): float(r["std"])
            for r in csv.DictReader(body)}


def load_table_script():
    import importlib.util
    spec = importlib.util.spec_from_file_location("make_ajl_null_table", TABLE_SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_table_covers_every_grid_length_and_node():
    rows = table_rows()
    nodes = [0.0] + [10.0 ** (j / 4) for j in range(-12, 1)]
    lengths = {DAY_SECONDS // f for f in FREQUENCIES}      # one day's sampling grids
    assert set(rows) == {(n, r) for n in lengths for r in nodes}
    assert all(std > 0 for std in rows.values())


@pytest.mark.parametrize("n", [5_760, 86_400])
@pytest.mark.parametrize("key", ["0.001", "0.01", "0.1", "1"])
def test_table_lookup_at_a_node_returns_the_stored_std(n, key):
    std, source = ajl_module._table_std(n, *DEFAULT_KEY, key)
    assert std == table_rows()[(n, float(key))]
    assert source == f"table n={n} node {float(key)!r}"


@pytest.mark.parametrize("key, lo, hi", [("0.0125", 0.01, 10 ** -1.75),
                                         ("0.000512", 0.0, 0.001),
                                         ("0.3", 10 ** -0.75, 10 ** -0.5),
                                         ("0.999", 10 ** -0.25, 1.0)])
def test_table_lookup_between_nodes_lies_between_its_neighbours(key, lo, hi):
    rows = table_rows()
    for n in (5_760, 8_640, 17_280, 86_400):
        std, source = ajl_module._table_std(n, *DEFAULT_KEY, key)
        s_lo, s_hi = rows[(n, lo)], rows[(n, hi)]
        assert min(s_lo, s_hi) <= std <= max(s_lo, s_hi)
        assert source.startswith(f"table n={n} nodes {lo!r}..{hi!r} weight ")


def test_table_lookup_interpolates_log_linearly_and_linearly_from_zero():
    rows = table_rows()
    lo, hi = 0.01, 10 ** -1.75
    w = (np.log(0.0125) - np.log(lo)) / (np.log(hi) - np.log(lo))
    want = np.exp((1 - w) * np.log(rows[(17_280, lo)]) + w * np.log(rows[(17_280, hi)]))
    assert ajl_module._table_std(17_280, *DEFAULT_KEY, "0.0125")[0] == \
        pytest.approx(want, rel=1e-14, abs=0)
    want0 = rows[(17_280, 0.0)] + 0.25 * (rows[(17_280, 0.001)] - rows[(17_280, 0.0)])
    assert ajl_module._table_std(17_280, *DEFAULT_KEY, "0.00025")[0] == \
        pytest.approx(want0, rel=1e-14, abs=0)


@pytest.mark.parametrize("n, k_n, key", [(17_280, 100, "0"), (17_280, 100, "inf"),
                                         (17_280, 100, "1.01"), (17_280, 20, "0.0125"),
                                         (17_281, 100, "0.0125")])
def test_uncovered_days_go_to_the_monte_carlo(monkeypatch, n, k_n, key):
    calls = []

    def fake(*args):
        calls.append(args)
        return 0.5, 7

    monkeypatch.setattr(ajl_module, "_null_srj_std", lru_cache(fake))
    params = AjlParams(k_n=k_n, sigma_rj_paths=40, base_seed=3)
    assert ajl_module._table_std(n, k_n, 4, key) is None
    std, seed, source = ajl_module._calibrate(n, params, key)
    assert (std, seed) == (0.5, 7)
    assert calls == [(n, k_n, 4, key, 40, 3)]
    assert source == f"monte carlo key {key} miss"


def test_covered_day_seed_names_the_table_and_node(monkeypatch):
    def boom(*args):
        raise AssertionError("Monte Carlo called for a covered day")

    monkeypatch.setattr(ajl_module, "_null_srj_std", lru_cache(boom))
    res = ajl_test(noisy_path(6), AjlParams())
    ratio_key = ajl_module._quantize_ratio(noise.plugin_noise_ratio(noisy_path(6)))
    digest = ajl_module._null_table().digest
    assert res.mc_seed == ajl_module._mc_seed(
        ("table", digest, 17_280, *DEFAULT_KEY, "parabola", "triangle", ratio_key))
    assert res.calibration.startswith("table n=17280 nodes ")
    # the std, and so the critical value, does not depend on the fallback's knobs
    other = ajl_test(noisy_path(6), AjlParams(sigma_rj_paths=50, base_seed=5))
    assert (other.critical_value, other.mc_seed) == (res.critical_value, res.mc_seed)


def test_fallback_is_still_memoised():
    ajl_module._null_srj_std.cache_clear()
    path = noisy_path(7, n=2_000)
    params = AjlParams(k_n=20, sigma_rj_paths=16, base_seed=11)
    first = ajl_test(path, params)
    second = ajl_test(path, params)
    assert first.calibration.startswith("monte carlo key ") and first.calibration.endswith(" miss")
    assert second.calibration == first.calibration.replace(" miss", " hit")
    assert (second.critical_value, second.mc_seed) == (first.critical_value, first.mc_seed)
    info = ajl_module._null_srj_std.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_table_script_check_passes_and_catches_an_edited_body(tmp_path):
    run = [sys.executable, str(TABLE_SCRIPT), "--check"]
    ok = subprocess.run(run, capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0, ok.stdout + ok.stderr
    edited = tmp_path / "table.csv"
    text = (REPO / "src" / "hfjumps" / "data" / ajl_module.NULL_TABLE).read_text()
    edited.write_text(text.replace("\n5760,0.01,0.", "\n5760,0.01,1.", 1))
    assert edited.read_text() != text
    bad = subprocess.run(run + ["--table", str(edited)], capture_output=True, text=True,
                         timeout=120)
    assert bad.returncode == 1 and "MISMATCH" in bad.stdout


def test_table_script_regenerates_the_5760_nodes():
    script = load_table_script()
    rows = table_rows()
    for ratio in script.RATIOS:
        std, _ = script.node(5_760, ratio)
        assert std == pytest.approx(rows[(5_760, ratio)], rel=1e-12, abs=0), ratio


def test_ajl_params_validation():
    with pytest.raises(ConfigError):
        AjlParams(p=5)
    with pytest.raises(ConfigError):
        AjlParams(alpha=1.5)
    with pytest.raises(ConfigError):
        AjlParams(g=TRIANGLE, h=PARABOLA)   # gamma'' < 1


PARABOLA2 = ajl_module.WeightFunction("parabola2", lambda s: 2 * s * (1 - s),
                                      lambda r: 2 ** r * PARABOLA.exact_moment(r))
OTHER_PARABOLA = ajl_module.WeightFunction("parabola", lambda s: 2 * s * (1 - s),
                                           PARABOLA2.exact_moment)


@pytest.mark.parametrize("g, h", [
    (TRIANGLE, PARABOLA),         # gamma'' = 2.5^2 / 7.875 ~ 0.794 < 1
    (PARABOLA, PARABOLA),         # gamma'' = 1
    (PARABOLA2, TRIANGLE),        # gamma'' = 1.26, but neither table nor seeds are for it
    (OTHER_PARABOLA, TRIANGLE),   # the same, under the table's name
], ids=["swapped", "identical", "new name", "same name"])
def test_ajl_params_refuse_any_other_pair(g, h):
    with pytest.raises(ConfigError, match=f"weight pair is parabola/triangle, not {g.name}/"):
        AjlParams(g=g, h=h)


def test_the_default_pair_constructs_by_every_route():
    from hfjumps.config import RunConfig

    cfg = RunConfig()
    assert cfg.weight_names() == ajl_module.WEIGHTS == ("parabola", "triangle")
    built = AjlParams(p=cfg.ajl_p, k_n=cfg.ajl_kn, g=ajl_module.get_weight("parabola"),
                      h=ajl_module.get_weight("triangle"), alpha=cfg.alpha,
                      sigma_rj_paths=cfg.sigma_rj_paths, base_seed=cfg.seed)
    assert built == AjlParams() == cfg.ajl_params()


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("# weights: parabola/triangle", "# weights: triangle/parabola"),
     "simulated for weights triangle/parabola"),
    (lambda text: text.replace("\n5760,0.01,0.", "\n5760,0.01,1.", 1), "body digest")])
def test_a_table_of_another_pair_or_an_edited_body_is_refused(monkeypatch, tmp_path,
                                                              edit, message):
    text = (REPO / "src" / "hfjumps" / "data" / ajl_module.NULL_TABLE).read_text()
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / ajl_module.NULL_TABLE).write_text(edit(text))
    monkeypatch.setattr(ajl_module.resources, "files", lambda package: tmp_path)
    ajl_module._null_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=message):
            ajl_module._null_table()
    finally:
        ajl_module._null_table.cache_clear()


# ---------------------------------------------------------------------------
# the non-robust diagnostic
# ---------------------------------------------------------------------------

def test_s_j_diagnostic_limits_without_noise():
    # the ratio lives in the demo that prints it
    spec = importlib.util.spec_from_file_location(
        "detector_tour", REPO / "demos" / "detector_tour.py")
    tour = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tour)
    s_j_ratio = tour.s_j_ratio
    rng = np.random.default_rng(7)
    n = 20_000
    cont = np.log(100.0) + np.cumsum(rng.normal(0, 0.04 / sqrt(n), n))
    # p=4, k=2: continuous limit k^{p/2-1} = 2
    assert s_j_ratio(cont, p=4, k=2) == pytest.approx(2.0, rel=0.25)
    jumpy = cont.copy()
    jumpy[n // 2:] += 0.4
    assert s_j_ratio(jumpy, p=4, k=2) == pytest.approx(1.0, rel=0.15)
