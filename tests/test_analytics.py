"""Summary tables, extremes, seasonality, panel regression."""
import math
from datetime import date, datetime, timezone

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfjumps import analytics, noise
from hfjumps.analytics import (PanelRow, _t_two_sided_p, build_panel, build_tables,
                               count_extremes, fe_regression, render_extremes_table,
                               render_regression_table, render_summary_table,
                               seasonality, significance_stars,
                               summarize_returns)
from hfjumps.catalog import parse_iso_ns
from hfjumps.errors import NoVariationError


# ---------------------------------------------------------------------------
# summarize_returns
# ---------------------------------------------------------------------------

def test_summary_two_point_sample():
    s = summarize_returns([-1.0, 1.0])
    assert s.skewness == 0.0
    assert s.kurtosis == 1.0
    assert (s.min, s.max, s.mean, s.median) == (-1.0, 1.0, 0.0, 0.0)


def test_summary_standard_normal_moments():
    rng = np.random.default_rng(12)
    s = summarize_returns(rng.standard_normal(10 ** 6))
    assert abs(s.skewness) <= 0.01
    assert s.kurtosis == pytest.approx(3.0, abs=0.05)


def test_summary_constant_sample_undefined_moments():
    s = summarize_returns([2.0, 2.0, 2.0])
    assert s.skewness is None and s.kurtosis is None


def test_summary_needs_two_points():
    with pytest.raises(ValueError):
        summarize_returns([1.0])


SAMPLES = st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1.0, 1e308, -np.inf, np.nan]),
                   min_size=1, max_size=40)


def same_bits(a, b):
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


@settings(max_examples=400, deadline=None)
@given(SAMPLES)
def test_median_and_quartiles_are_numpys_bit_for_bit(values):
    # they stand in for np.median and np.percentile, which import numpy.ma
    x = np.array(values)
    with np.errstate(all="ignore"):
        assert same_bits(noise._median(x), np.median(x))
        if len(x) >= 2:
            assert same_bits(analytics._quartiles(x), np.percentile(x, [25, 50, 75]))


def summary_oracle(x):
    """Naive sort-and-moment oracle with explicit linear interpolation."""
    xs = sorted(float(v) for v in x)
    n = len(xs)

    def quantile(p):
        h = (n - 1) * p
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

    mean = sum(xs) / n
    m2 = sum((v - mean) ** 2 for v in xs) / n
    m3 = sum((v - mean) ** 3 for v in xs) / n
    m4 = sum((v - mean) ** 4 for v in xs) / n
    return (xs[0], quantile(0.25), quantile(0.5), mean, quantile(0.75), xs[-1],
            m3 / m2 ** 1.5, m4 / m2 ** 2)


def test_summary_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_t(df=3, size=int(rng.integers(5, 400)))
        s = summarize_returns(x)
        o = summary_oracle(x)
        got = (s.min, s.q1, s.median, s.mean, s.q3, s.max, s.skewness, s.kurtosis)
        np.testing.assert_allclose(got, o, rtol=1e-9, atol=1e-12)


def test_summary_ordering_invariant():
    s = summarize_returns([0.3, -0.2, 0.1, 0.0, -0.4])
    assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
    assert s.kurtosis >= 1.0


# ---------------------------------------------------------------------------
# count_extremes
# ---------------------------------------------------------------------------

def test_extremes_examples():
    counts = count_extremes([-0.06, 0.04, 0.11])
    by_tau = {c.threshold: c for c in counts}
    assert by_tau[0.05].n_below == 1 and by_tau[0.05].n_above == 1
    assert by_tau[0.1].n_above == 1 and by_tau[0.1].n_below == 0
    assert by_tau[0.2].n_above == 0


def test_extremes_empty():
    assert all(c.n_below == 0 and c.n_above == 0 for c in count_extremes([]))


def test_extremes_strict_inequalities():
    counts = count_extremes([0.05, -0.05])
    by_tau = {c.threshold: c for c in counts}
    assert by_tau[0.05].n_above == 0 and by_tau[0.05].n_below == 0


def test_extremes_match_bruteforce_on_heavy_tails():
    rng = np.random.default_rng(3)
    x = rng.standard_t(df=2, size=20_000) * 0.02
    for c in count_extremes(x):
        assert c.n_below == sum(1 for v in x if v < -c.threshold)
        assert c.n_above == sum(1 for v in x if v > c.threshold)


# ---------------------------------------------------------------------------
# seasonality
# ---------------------------------------------------------------------------

def ts_ns(y, mo, d, h, mi=0):
    return int(datetime(y, mo, d, h, mi, tzinfo=timezone.utc).timestamp() * 1e9)


def test_seasonality_single_event():
    # 2021-03-03 is a Wednesday
    weekday, hour = seasonality([ts_ns(2021, 3, 3, 14, 30)])
    assert weekday[2] == 1 and weekday.sum() == 1
    assert hour[14] == 1 and hour.sum() == 1


def test_seasonality_last_nanosecond_before_midnight():
    # 2021-01-01 is a Friday; as float seconds this instant rounds to Sat 00:00
    weekday, hour = seasonality([parse_iso_ns("2021-01-01T23:59:59.999999999Z")])
    assert weekday[4] == 1 and weekday.sum() == 1
    assert hour[23] == 1 and hour.sum() == 1


def test_seasonality_no_events():
    weekday, hour = seasonality([])
    assert weekday.tolist() == [0] * 7 and hour.tolist() == [0] * 24


def test_seasonality_uniform_hours():
    events = [ts_ns(2021, 3, 3, h) for h in range(24)]
    _, hour = seasonality(events)
    np.testing.assert_array_equal(hour, np.ones(24, dtype=np.int64))


def test_seasonality_afternoon_cluster_mode():
    rng = np.random.default_rng(5)
    events = [ts_ns(2021, 3, int(d), int(h))
              for d, h in zip(rng.integers(1, 28, 300),
                              rng.integers(13, 18, 300))]
    events += [ts_ns(2021, 3, int(d), int(h))
               for d, h in zip(rng.integers(1, 28, 60), rng.integers(0, 24, 60))]
    _, hour = seasonality(events)
    assert 13 <= int(np.argmax(hour)) <= 17


# ---------------------------------------------------------------------------
# panel construction
# ---------------------------------------------------------------------------

def day_record(symbol, d, tested=True, close=None, jumps=()):
    return {"symbol": symbol, "date": d, "tested": tested,
            "close_log_price": close,
            "accepted_jumps": [{"size": s, "utc_timestamp_ns": 0, "xi": 20.0,
                                "direction": "positive" if s > 0 else "negative"}
                               for s in jumps]}


def test_build_panel_lag_and_drop_rules():
    recs = [
        day_record("BTC", "2021-03-01", close=4.60, jumps=(0.01,)),
        day_record("BTC", "2021-03-02", close=4.62),
        day_record("BTC", "2021-03-03", tested=False),
        day_record("BTC", "2021-03-04", close=4.66, jumps=(-0.02,)),
        day_record("BTC", "2021-03-05", close=4.65, jumps=(0.01, -0.03)),
    ]
    rows, dropped = build_panel(recs)
    by_date = {r.utc_date.isoformat(): r for r in rows}
    # 03-01 dropped (no previous day), 03-04 dropped (previous untested)
    assert sorted(by_date) == ["2021-03-02", "2021-03-05"]
    assert len(dropped) == 2
    r2 = by_date["2021-03-02"]
    assert r2.daily_return == pytest.approx(0.02, abs=1e-12)
    assert (r2.jump_dummy, r2.lagged_jump_dummy) == (0, 1)
    r5 = by_date["2021-03-05"]
    # mixed-sign day sets both sign dummies
    assert (r5.jump_dummy, r5.pos_jump_dummy, r5.neg_jump_dummy) == (1, 1, 1)
    assert r5.lagged_jump_dummy == 1


# ---------------------------------------------------------------------------
# build_tables
# ---------------------------------------------------------------------------

def two_symbol_records(jump_days):
    """Two symbols over six days; ``jump_days`` maps day index to jump sizes."""
    recs = []
    for sym, drift in (("BTC", 0.01), ("ETH", -0.02)):
        close = 4.0
        for i in range(6):
            jumps = jump_days.get(i, ())
            close += drift + 0.5 * sum(jumps) + 0.003 * (i % 3)
            recs.append(day_record(sym, f"2021-03-0{i + 1}", close=close, jumps=jumps))
    return recs


def tables_by_name(recs, hf=None):
    tables, dropped = build_tables(recs, hf or {})
    return {t.name: t for t in tables}, dropped


def test_build_tables_positive_jumps_only_keeps_three_regression_columns():
    tables, _ = tables_by_name(two_symbol_records({1: (0.02,), 3: (0.05,), 4: (0.01,)}))
    reg = tables["regression"]
    assert [row[0] for row in reg.rows] == ["Jumps (all)", "Lagged jumps (all)",
                                            "Jumps (pos.)"]
    assert "Jumps (pos.)" in reg.text and "Jumps (neg.)" not in reg.text


def test_build_tables_regression_text_when_every_column_fails():
    recs = [r for r in two_symbol_records({2: (0.03,)}) if r["symbol"] == "BTC"]
    tables, dropped = tables_by_name(recs)
    assert tables["regression"].rows == []
    assert tables["regression"].text == "insufficient panel variation for regression\n"
    assert dropped == ["BTC 2021-03-01: previous day untested"]


def test_build_tables_file_set_and_fallbacks():
    recs = two_symbol_records({2: (0.03,)})
    for r in recs[6:]:
        r["accepted_jumps"] = []                      # a single jump, on BTC
    tables, _ = tables_by_name(recs)
    assert tables["jump_size_summary"].rows == [] and tables["jump_size_summary"].text is None
    assert tables["returns_hf_summary"].rows == []
    assert tables["returns_hf_summary"].text == "no tested days\n"
    assert tables["seasonality"].rows is None and tables["seasonality"].text
    assert tables["panel"].text is None and len(tables["panel"].rows) == 10
    hf = {"BTC": [np.array([0.01, -0.02]), np.array([0.003])]}
    tables, _ = tables_by_name(two_symbol_records({2: (0.03, -0.01)}), hf)
    assert tables["returns_hf_summary"].rows[0][-1] == 3
    assert [r[0] for r in tables["jump_size_summary"].rows] == ["all"]


# ---------------------------------------------------------------------------
# fixed-effects regression
# ---------------------------------------------------------------------------

def synth_rows(seed=0, n_sym=2, n_days=50, beta=2.0, noise=0.0, fe=(0.5, -1.0)):
    rng = np.random.default_rng(seed)
    rows = []
    for si in range(n_sym):
        for d in range(n_days):
            x = int(rng.integers(0, 2))
            y = fe[si % len(fe)] + beta * x + noise * rng.standard_normal()
            rows.append(PanelRow(symbol=f"S{si}", utc_date=date.fromordinal(date(2021, 1, 1).toordinal() + d),
                                 daily_return=y, jump_dummy=x,
                                 lagged_jump_dummy=x, pos_jump_dummy=x,
                                 neg_jump_dummy=0))
    return rows


def test_fe_regression_exact_noiseless():
    res = fe_regression(synth_rows(beta=2.0, noise=0.0), ("jump_dummy",))
    assert res.coef[0] == pytest.approx(2.0, abs=1e-12)
    assert res.se[0] == pytest.approx(0.0, abs=1e-10)
    assert res.stars[0] == "***"
    assert res.r2 == pytest.approx(1.0, abs=1e-12)


def test_fe_regression_exact_fit_of_a_tiny_panel_has_no_stars():
    def panel(b_jump):
        return [PanelRow(sym, date(2021, 1, 1 + d), ret, jump, 0, jump, 0)
                for sym, d, ret, jump in (("A", 0, 0.1, 1), ("A", 1, -0.1, 0),
                                          ("B", 0, 0.3, b_jump), ("B", 1, 0.1, 0))]
    # the dummy varies in both symbols, whose slopes agree; or in A alone
    for rows in (panel(1), panel(0)):
        res = fe_regression(rows, ("jump_dummy",))
        assert res.coef[0] == pytest.approx(0.2, abs=1e-12)
        assert res.se[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(res.t_stat[0]) and np.isnan(res.p_value[0])
        assert res.stars == ("",)
        assert render_regression_table({"Jumps (all)": res}).splitlines()[1].endswith(" 0.200")


def hc0_oracle(rows, name):
    """Literal matrix formula with an explicit diagonal weight matrix."""
    symbols = sorted({r.symbol for r in rows})
    y = np.array([r.daily_return for r in rows])
    x = np.array([float(getattr(r, name)) for r in rows])
    for s in symbols:
        m = np.array([r.symbol == s for r in rows])
        y[m] -= y[m].mean()
        x[m] -= x[m].mean()
    X = x.reshape(-1, 1)
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    e = y - X @ beta
    cov = xtx_inv @ (X.T @ np.diag(e ** 2) @ X) @ xtx_inv
    return float(beta[0]), float(np.sqrt(cov[0, 0]))


def test_fe_regression_matches_bruteforce():
    rows = synth_rows(seed=4, beta=0.01, noise=0.03)
    res = fe_regression(rows, ("jump_dummy",))
    b, se = hc0_oracle(rows, "jump_dummy")
    assert res.coef[0] == pytest.approx(b, rel=1e-10)
    assert res.se[0] == pytest.approx(se, rel=1e-10)


def test_fe_regression_shift_invariance():
    rows = synth_rows(seed=5, beta=0.01, noise=0.03)
    res1 = fe_regression(rows, ("jump_dummy",))
    shifted = [PanelRow(r.symbol, r.utc_date,
                        r.daily_return + (10.0 if r.symbol == "S0" else -3.0),
                        r.jump_dummy, r.lagged_jump_dummy, r.pos_jump_dummy,
                        r.neg_jump_dummy) for r in rows]
    res2 = fe_regression(shifted, ("jump_dummy",))
    assert res2.coef[0] == pytest.approx(res1.coef[0], abs=1e-12)
    assert res2.se[0] == pytest.approx(res1.se[0], abs=1e-12)
    assert res2.t_stat[0] == pytest.approx(res1.t_stat[0], rel=1e-9)


def test_fe_regression_row_order_invariance():
    rows = synth_rows(seed=6, beta=0.01, noise=0.03)
    res1 = fe_regression(rows, ("jump_dummy",))
    res2 = fe_regression(rows[::-1], ("jump_dummy",))
    assert res2.coef[0] == pytest.approx(res1.coef[0], rel=1e-14)
    assert res2.se[0] == pytest.approx(res1.se[0], rel=1e-14)


def test_fe_regression_no_variation_error():
    rows = synth_rows(seed=7, noise=0.01)
    with pytest.raises(NoVariationError):
        fe_regression(rows, ("neg_jump_dummy",))   # all zero


def test_fe_regression_sign_consistency():
    # positive-jump days built with positive mean returns and vice versa
    rng = np.random.default_rng(9)
    rows = []
    for si in range(3):
        for d in range(80):
            pos = int(rng.random() < 0.3)
            neg = int(not pos and rng.random() < 0.3)
            y = 0.02 * pos - 0.03 * neg + 0.01 * rng.standard_normal() + 0.005 * si
            rows.append(PanelRow(f"S{si}", date.fromordinal(date(2021, 1, 1).toordinal() + d), y,
                                 jump_dummy=int(pos or neg),
                                 lagged_jump_dummy=0,
                                 pos_jump_dummy=pos, neg_jump_dummy=neg))
    assert fe_regression(rows, ("pos_jump_dummy",)).coef[0] > 0
    assert fe_regression(rows, ("neg_jump_dummy",)).coef[0] < 0


def test_fe_regression_multivariate_mode():
    rows = synth_rows(seed=10, beta=0.01, noise=0.02)
    res = fe_regression(rows, ("jump_dummy", "neg_jump_dummy")) if any(
        r.neg_jump_dummy for r in rows) else None
    # neg dummy is all zero in synth_rows, so build a custom pair instead
    rng = np.random.default_rng(11)
    rows = []
    for si in range(2):
        for d in range(60):
            a, b = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            y = 0.01 * a - 0.02 * b + 0.01 * rng.standard_normal()
            rows.append(PanelRow(f"S{si}", date.fromordinal(date(2021, 1, 1).toordinal() + d), y, a, 0, a, b))
    res = fe_regression(rows, ("jump_dummy", "neg_jump_dummy"))
    assert len(res.coef) == 2
    assert res.coef[0] == pytest.approx(0.01, abs=0.01)
    assert res.coef[1] == pytest.approx(-0.02, abs=0.01)


def test_significance_stars_thresholds():
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.001) == "**"
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == ""


# ---------------------------------------------------------------------------
# Student-t p-values
# ---------------------------------------------------------------------------

T_DFS = sorted(set(range(1, 201)) | {int(round(v)) for v in np.geomspace(200, 10_000, 25)})
T_VALUES = [float(v) for v in np.geomspace(1e-8, 40, 25)] + [1.3, 1.8, 2.1, 3.0]


def test_t_two_sided_p_matches_a_50_digit_reference():
    # mpmath, not scipy: scipy's own t.sf is 3e-9 off near t = 0 at df = 1
    worst = (0.0, None)
    with mpmath.workdps(50):
        for df in T_DFS:
            for t in T_VALUES:
                x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                ref = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x,
                                     regularized=True)
                if ref >= mpmath.mpf("1e-300"):
                    err = float(abs(_t_two_sided_p(t, df) - ref) / ref)
                    worst = max(worst, (err, (df, t)))
    assert worst[0] <= 1e-12, worst


def test_t_two_sided_p_special_values():
    for df in (1, 2, 5, 10_000):
        assert _t_two_sided_p(0.0, df) == 1.0
        assert _t_two_sided_p(-0.0, df) == 1.0
        assert _t_two_sided_p(math.inf, df) == 0.0
        assert _t_two_sided_p(-math.inf, df) == 0.0
        assert math.isnan(_t_two_sided_p(math.nan, df))
        for t in (1e-300, 1e-8, 0.7, 1.96, 12.0, 1e200):
            p = _t_two_sided_p(t, df)
            assert _t_two_sided_p(-t, df) == p
            assert 0.0 <= p <= 1.0
    # far beyond where t² overflows, df = 1 still has the Cauchy tail 2/(pi t)
    assert _t_two_sided_p(1e300, 1) == pytest.approx(2 / (math.pi * 1e300), rel=1e-12)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def test_render_regression_layout():
    rows = synth_rows(seed=12, beta=0.014, noise=0.02)
    res = fe_regression(rows, ("jump_dummy",))
    txt = render_regression_table({"Jumps (all)": res})
    lines = txt.splitlines()
    assert "Jumps (all)" in lines[0]
    assert lines[1].startswith("jump_dummy")
    assert "(" in lines[2] and ")" in lines[2]     # SE beneath in parentheses
    assert lines[-4].startswith("R^2")
    assert lines[-3].startswith("Adj. R^2")
    assert lines[-2].startswith("Num. obs.")
    assert lines[-1] == "***p<0.001; **p<0.01; *p<0.05"


def test_render_summary_and_extremes_smoke():
    s = summarize_returns([-0.01, 0.02, 0.0, 0.005])
    txt = render_summary_table({"BTC": s})
    assert txt.splitlines()[0].split() == [
        "Currency", "Min.", "1st", "Qu.", "Median", "Mean", "3rd", "Qu.",
        "Max.", "Skewness", "Kurtosis"]
    txt2 = render_extremes_table(count_extremes([0.06, -0.2]))
    assert "Negative" in txt2 and "Positive" in txt2
