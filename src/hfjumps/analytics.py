"""Descriptive tables, jump seasonality, and the jump-dummy panel regression.

Covers the downstream analyses of the pipeline: return summary tables
(with raw, non-excess kurtosis), two-sided extreme-return counts, jump
counts by UTC weekday and hour, and a one-way fixed-effects regression
of daily returns on jump dummies with White (HC0) standard errors and
Student-t p-values, the latter from a standard-library incomplete beta
function.  ``build_tables`` assembles all of them from a catalog as the
analyze step writes them.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import HfJumpsError, NoVariationError
from .tickstore import DAY_NS

log = logging.getLogger(__name__)

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
HOUR_NS = DAY_NS // 24


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

@dataclass
class SummaryStats:
    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float
    skewness: float | None     # None when the sample is degenerate
    kurtosis: float | None     # raw (non-excess)
    n: int


def _quartiles(x: np.ndarray) -> np.ndarray:
    """``np.percentile(x, [25, 50, 75])`` of 2 or more floats, bit for bit.

    numpy's default linear rule with its virtual indexes, partition and
    interpolation.  ``np.percentile``, and ``np.unique`` asked for values
    only, import ``numpy.ma`` on first use, at ~0.015 CPU-s a process.
    """
    q, n = np.array([0.25, 0.5, 0.75]), len(x)
    at = n * q + (1 + q * -1) - 1                    # virtual indexes, alpha = beta = 1
    lo = np.floor(at).astype(np.intp)
    # numpy's kth, in np.unique's order, so that the partition is the same
    part = np.partition(x, sorted({0, -1, *lo.tolist(), *(lo + 1).tolist()}))
    if np.isnan(part[-1]):            # a NaN sorts last; np.percentile returns it
        return np.full(3, part[-1])
    a, b, t = part[lo], part[lo + 1], at - lo
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def summarize_returns(returns) -> SummaryStats:
    """Five-number summary plus skewness m3/m2^1.5 and kurtosis m4/m2^2.

    Central moments use 1/n normalization; a zero-variance sample leaves
    the shape moments undefined (None).
    """
    x = np.asarray(returns, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    q1, med, q3 = _quartiles(x)
    c = x - x.mean()
    m2 = float(np.mean(c ** 2))
    if m2 == 0:
        skew = kurt = None
    else:
        skew = float(np.mean(c ** 3)) / m2 ** 1.5
        kurt = float(np.mean(c ** 4)) / m2 ** 2
    return SummaryStats(min=float(x.min()), q1=float(q1), median=float(med),
                        mean=float(x.mean()), q3=float(q3), max=float(x.max()),
                        skewness=skew, kurtosis=kurt, n=len(x))


@dataclass(frozen=True)
class ExtremeCount:
    threshold: float
    n_below: int    # returns < -threshold
    n_above: int    # returns > +threshold


def count_extremes(returns, thresholds=(0.05, 0.1, 0.2, 0.3)) -> list[ExtremeCount]:
    """Strict two-sided tail counts per threshold."""
    x = np.asarray(returns, dtype=float)
    out = []
    for tau in thresholds:
        out.append(ExtremeCount(threshold=tau,
                                n_below=int(np.sum(x < -tau)),
                                n_above=int(np.sum(x > tau))))
    return out


# ---------------------------------------------------------------------------
# seasonality
# ---------------------------------------------------------------------------

def seasonality(event_timestamps_ns) -> tuple[np.ndarray, np.ndarray]:
    """Jump counts by UTC weekday (Mon..Sun) and by UTC hour (0..23).

    Binned in integer nanoseconds: a float seconds value cannot resolve
    the last nanosecond before a day boundary.  Day 0 of the epoch,
    1970-01-01, was a Thursday.
    """
    ts = np.asarray(event_timestamps_ns, dtype=np.int64)
    weekday = np.bincount((ts // DAY_NS + 3) % 7, minlength=7)
    hour = np.bincount(ts % DAY_NS // HOUR_NS, minlength=24)
    return weekday, hour


# ---------------------------------------------------------------------------
# panel construction
# ---------------------------------------------------------------------------

@dataclass
class PanelRow:
    symbol: str
    utc_date: date
    daily_return: float
    jump_dummy: int
    lagged_jump_dummy: int
    pos_jump_dummy: int
    neg_jump_dummy: int


def build_panel(day_records: list[dict]) -> tuple[list[PanelRow], list[str]]:
    """Symbol-day rows of close-to-close returns and jump dummies.

    ``day_records`` are catalog entries (dicts with symbol, ISO date
    string, tested, close_log_price, accepted_jumps).  The daily return
    and the lag both reference the previous calendar day only; a row
    whose previous day was untested or absent is dropped and logged.  A
    day with jumps of both signs sets both sign dummies.
    """
    by_key: dict[tuple[str, date], dict] = {}
    for rec in day_records:
        by_key[(rec["symbol"], date.fromisoformat(rec["date"]))] = rec
    rows: list[PanelRow] = []
    dropped: list[str] = []
    for (symbol, d), rec in sorted(by_key.items()):
        if not rec.get("tested"):
            continue
        prev = by_key.get((symbol, date.fromordinal(d.toordinal() - 1)))
        if not prev or not prev.get("tested") or prev.get("close_log_price") is None:
            dropped.append(f"{symbol} {d.isoformat()}: previous day untested")
            continue
        jumps = rec.get("accepted_jumps") or []
        sizes = [j["size"] for j in jumps]
        prev_jumps = prev.get("accepted_jumps") or []
        rows.append(PanelRow(
            symbol=symbol, utc_date=d,
            daily_return=float(rec["close_log_price"]) - float(prev["close_log_price"]),
            jump_dummy=int(bool(sizes)),
            lagged_jump_dummy=int(bool(prev_jumps)),
            pos_jump_dummy=int(any(s > 0 for s in sizes)),
            neg_jump_dummy=int(any(s < 0 for s in sizes)),
        ))
    return rows, dropped


# ---------------------------------------------------------------------------
# fixed-effects regression
# ---------------------------------------------------------------------------

@dataclass
class RegressionResult:
    regressors: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray            # White HC0
    t_stat: np.ndarray
    p_value: np.ndarray
    stars: tuple[str, ...]
    r2: float
    adj_r2: float
    nobs: int
    n_groups: int


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _demean_by_group(values: np.ndarray, group_idx: np.ndarray, n_groups: int) -> np.ndarray:
    sums = np.zeros((n_groups,) + values.shape[1:])
    np.add.at(sums, group_idx, values)
    counts = np.bincount(group_idx, minlength=n_groups).astype(float)
    means = sums / counts.reshape(-1, *([1] * (values.ndim - 1)))
    return values - means[group_idx]


def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + ½) − log Γ(a).

    From a = 20 on this is the asymptotic series, within 4e-15 there.  The
    difference of two ``lgamma`` values of size a·log(a) is off by about
    eps·a·log(a), 9e-12 at a = 5,000, and a p-value inherits that as a
    relative error.
    """
    if a < 20:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    a2 = a * a
    return 0.5 * math.log(a) - (1 / 8 - (1 / 192 - (1 / 640 - 17 / 14336 / a2) / a2) / a2) / a


def _beta_cf(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b)·B(a, b) / (x^a·y^b) by its continued fraction, y = 1 − x.

    The three-term recurrence of DiDonato & Morris (1992), ACM TOMS 18(3),
    algorithm 708 (BFRAC), for lam = (a + b)·y − b ≥ 0.  It carries 1 + lam,
    computed from y, where the textbook form of the fraction subtracts
    (a + b)·x/(a + 1) from 1: for x near 1 and a large that cancels, and a
    modified-Lentz evaluation loses up to 9e-13 relative at df = 10,000.
    """
    c = 1.0 + lam
    c0, c1 = b / a, 1.0 + 1.0 / a
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 10_000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + 2.0 * t) * (c + n * (1.0 + y))
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r_prev, r = r, anp1 / bnp1
        if abs(r - r_prev) <= 1e-15 * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| > |t|) for Student's t with ``df`` degrees of freedom.

    This is I_x(df/2, ½) with x = df/(df + t²) (Numerical Recipes, 3rd ed.,
    §6.4), from ``math.lgamma`` and a continued fraction, or its
    complement 1 − I_{1−x}(½, df/2) beyond the mean of the beta law,
    x > a/(a + b).  Both x and 1 − x come straight from t²/df, never one
    from the other, and so do their logs.
    """
    t = abs(t)
    if math.isnan(t):
        return math.nan
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    a, b = df / 2, 0.5
    if t * t < df:
        tt = t * t / df
        log_x = -math.log1p(tt)
        log_y = 2.0 * math.log(t) - math.log(df) + log_x
        x, y = 1.0 / (1.0 + tt), tt / (1.0 + tt)
    else:       # in s = df/t², which is 0 once t² overflows
        s = df / (t * t)
        log_y = -math.log1p(s)
        log_x = (math.log(s) if s > 0.0 else math.log(df) - 2.0 * math.log(t)) + log_y
        x, y = s / (1.0 + s), 1.0 / (1.0 + s)
    front = math.exp(_log_gamma_ratio(a) - 0.5 * math.log(math.pi) + a * log_x + b * log_y)
    lam = (a + b) * y - b
    if lam >= 0.0:
        return front * _beta_cf(a, b, x, y, lam)
    return 1.0 - front * _beta_cf(b, a, y, x, -lam)


def fe_regression(rows: list[PanelRow], regressors=("jump_dummy",)) -> RegressionResult:
    """Within (entity-demeaned) OLS of daily returns on jump dummies.

    One column per regressor; the default single-regressor form matches
    the published table style, a multi-regressor call is the multivariate
    mode.  Standard errors are the heteroskedasticity-consistent White
    HC0 sandwich on the demeaned design:

        ``(X'X)^-1 X' diag(e^2) X (X'X)^-1``

    R^2 is computed on the demeaned totals and the adjustment charges
    the absorbed group means: ``1 - (1-R2)(N-1)/(N-K-G)``.
    """
    if isinstance(regressors, str):
        regressors = (regressors,)
    regressors = tuple(regressors)
    if len(rows) < 2:
        raise ValueError("need at least 2 panel rows")
    symbols = sorted({r.symbol for r in rows})
    if len(symbols) < 2:
        raise ValueError("need at least 2 symbols for the within estimator")
    sym_idx = {s: i for i, s in enumerate(symbols)}
    gi = np.array([sym_idx[r.symbol] for r in rows])
    y = np.array([r.daily_return for r in rows], dtype=float)
    X = np.column_stack([[float(getattr(r, name)) for r in rows] for name in regressors])

    yt = _demean_by_group(y, gi, len(symbols))
    Xt = _demean_by_group(X, gi, len(symbols))
    if np.allclose(Xt, 0.0):
        raise NoVariationError(
            f"regressor(s) {regressors} constant within every symbol")

    xtx = Xt.T @ Xt
    try:
        xtx_inv = np.linalg.inv(xtx)
    except np.linalg.LinAlgError as exc:
        raise NoVariationError(f"singular design for {regressors}") from exc
    beta = xtx_inv @ (Xt.T @ yt)
    resid = yt - Xt @ beta
    meat = (Xt * (resid ** 2)[:, None]).T @ Xt
    cov = xtx_inv @ meat @ xtx_inv
    se = np.sqrt(np.diag(cov))

    n, k = len(y), len(regressors)
    g = len(symbols)
    sst = float(np.dot(yt, yt))
    ssr = float(np.dot(resid, resid))
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    df_resid = n - k - g
    adj = 1.0 - (1.0 - r2) * (n - 1) / df_resid if df_resid > 0 else float("nan")
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    p = np.array([_t_two_sided_p(float(ti), max(df_resid, 1)) for ti in t])
    # The sandwich sees only rows whose regressors vary within their symbol; fitted
    # exactly with at most one spare degree of freedom, they leave t and p undefined.
    varies = np.any(Xt != 0.0, axis=1)
    if (varies.sum() - np.count_nonzero(np.bincount(gi[varies], minlength=g)) - k <= 1
            and resid[varies] @ resid[varies] <= 1e-24 * (yt[varies] @ yt[varies])):
        t = p = np.full(k, np.nan)
    return RegressionResult(
        regressors=regressors, coef=beta, se=se, t_stat=t, p_value=p,
        stars=tuple(significance_stars(float(pi)) for pi in p),
        r2=r2, adj_r2=adj, nobs=n, n_groups=g)


# ---------------------------------------------------------------------------
# renderers (text tables mirroring the published layouts)
# ---------------------------------------------------------------------------

def render_summary_table(stats_by_name: dict[str, SummaryStats]) -> str:
    hdr = (f"{'Currency':<10}{'Min.':>10}{'1st Qu.':>10}{'Median':>10}{'Mean':>10}"
           f"{'3rd Qu.':>10}{'Max.':>10}{'Skewness':>10}{'Kurtosis':>10}")
    lines = [hdr]
    for name in sorted(stats_by_name):
        s = stats_by_name[name]
        sk = f"{s.skewness:.2f}" if s.skewness is not None else "NA"
        ku = f"{s.kurtosis:.2f}" if s.kurtosis is not None else "NA"
        lines.append(f"{name:<10}{s.min:>10.4f}{s.q1:>10.4f}{s.median:>10.4f}"
                     f"{s.mean:>10.4f}{s.q3:>10.4f}{s.max:>10.4f}{sk:>10}{ku:>10}")
    return "\n".join(lines) + "\n"


def render_extremes_table(counts: list[ExtremeCount]) -> str:
    lines = [f"{'Negative':<12}{'Counts':>8}  {'Positive':<12}{'Counts':>8}"]
    for c in counts:
        lines.append(f"{'< -' + format(c.threshold, 'g'):<12}{c.n_below:>8}  "
                     f"{'> ' + format(c.threshold, 'g'):<12}{c.n_above:>8}")
    return "\n".join(lines) + "\n"


def render_seasonality(weekday: np.ndarray, hour: np.ndarray) -> str:
    lines = ["Jumps per weekday (UTC)"]
    for i, name in enumerate(WEEKDAYS):
        lines.append(f"  {name} {int(weekday[i]):>6}")
    lines.append("Jumps per hour (UTC)")
    for h in range(24):
        lines.append(f"  {h:02d}  {int(hour[h]):>6}")
    return "\n".join(lines) + "\n"


def render_regression_table(columns: dict[str, RegressionResult]) -> str:
    """Four-column layout: coefficient with stars, SE in parentheses below,
    then R^2, Adj. R^2, Num. obs., and the star legend."""
    col_names = list(columns)
    row_names: list[str] = []
    for res in columns.values():
        for rn in res.regressors:
            if rn not in row_names:
                row_names.append(rn)
    width = 22
    label_w = 18
    lines = ["".ljust(label_w) + "".join(f"{c:>{width}}" for c in col_names)]
    for rn in row_names:
        coefs, ses = [], []
        for res in columns.values():
            if rn in res.regressors:
                i = res.regressors.index(rn)
                coefs.append(f"{res.coef[i]:.3f}{res.stars[i]}")
                ses.append(f"({res.se[i]:.3f})")
            else:
                coefs.append("")
                ses.append("")
        lines.append(rn.ljust(label_w) + "".join(f"{c:>{width}}" for c in coefs))
        lines.append("".ljust(label_w) + "".join(f"{s:>{width}}" for s in ses))
    lines.append("R^2".ljust(label_w)
                 + "".join(f"{res.r2:>{width}.3f}" for res in columns.values()))
    lines.append("Adj. R^2".ljust(label_w)
                 + "".join(f"{res.adj_r2:>{width}.3f}" for res in columns.values()))
    lines.append("Num. obs.".ljust(label_w)
                 + "".join(f"{res.nobs:>{width}}" for res in columns.values()))
    lines.append("***p<0.001; **p<0.01; *p<0.05")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# every table of the analyze step
# ---------------------------------------------------------------------------

REGRESSION_COLUMNS = {"Jumps (all)": "jump_dummy",
                      "Lagged jumps (all)": "lagged_jump_dummy",
                      "Jumps (pos.)": "pos_jump_dummy",
                      "Jumps (neg.)": "neg_jump_dummy"}


@dataclass
class Table:
    """One output table: ``<name>.csv`` from header and rows when rows are
    given, ``<name>.txt`` from the text rendering when it is given."""

    name: str
    header: tuple[str, ...] = ()
    rows: list[tuple] | None = None
    text: str | None = None


def _summary_table(name: str, samples: dict, empty_text: str | None) -> Table:
    """Summaries of the samples with two or more values; no text when
    ``empty_text`` is None."""
    stats = {k: summarize_returns(v) for k, v in sorted(samples.items()) if len(v) >= 2}
    rows = [(k, s.min, s.q1, s.median, s.mean, s.q3, s.max, s.skewness, s.kurtosis, s.n)
            for k, s in stats.items()]
    text = None
    if empty_text is not None:
        text = render_summary_table(stats) if stats else empty_text
    return Table(name, ("name", "min", "q1", "median", "mean", "q3", "max",
                        "skewness", "kurtosis", "n"), rows, text)


def _extremes_table(name: str, returns: np.ndarray, thresholds=(0.05, 0.1, 0.2, 0.3),
                    with_text: bool = True) -> Table:
    counts = count_extremes(returns, thresholds=thresholds)
    return Table(name, ("threshold", "n_below_minus", "n_above_plus"),
                 [(c.threshold, c.n_below, c.n_above) for c in counts],
                 render_extremes_table(counts) if with_text else None)


def _regression_table(panel: list[PanelRow]) -> Table:
    """One column per jump dummy; a column that cannot be estimated is skipped."""
    columns = {}
    for title, dummy in REGRESSION_COLUMNS.items():
        try:
            columns[title] = fe_regression(panel, (dummy,))
        except (HfJumpsError, ValueError) as exc:
            log.warning("regression column %r skipped: %s", title, exc)
    rows = [(title, name, float(res.coef[i]), float(res.se[i]), float(res.t_stat[i]),
             float(res.p_value[i]), res.stars[i], float(res.r2), float(res.adj_r2), res.nobs)
            for title, res in columns.items() for i, name in enumerate(res.regressors)]
    text = (render_regression_table(columns) if columns
            else "insufficient panel variation for regression\n")
    return Table("regression", ("column", "regressor", "coef", "se", "t", "p", "stars",
                                "r2", "adj_r2", "nobs"), rows, text)


def build_tables(day_records: list[dict],
                 hf_returns: dict[str, list[np.ndarray]]) -> tuple[list[Table], list[str]]:
    """Every table of the analyze step, and the panel rows dropped on the way.

    ``day_records`` are catalog entries; ``hf_returns`` holds each
    symbol's high-frequency log returns, one array per tested day.  The
    tables are the high-frequency and daily return summaries with their
    extreme counts, the jump-size summary (given two or more jumps) and
    extreme counts, jump seasonality, the daily panel and the four
    jump-dummy regression columns.
    """
    hf = {sym: np.concatenate(parts) for sym, parts in hf_returns.items()}
    panel, dropped = build_panel(day_records)
    daily: dict[str, list[float]] = {}
    for r in panel:
        daily.setdefault(r.symbol, []).append(r.daily_return)
    jumps = [ev for rec in day_records for ev in rec.get("accepted_jumps") or []]
    sizes = np.array([ev["size"] for ev in jumps], dtype=float)
    weekday, hour = seasonality([ev["utc_timestamp_ns"] for ev in jumps])

    tables = [
        _summary_table("returns_hf_summary", hf, "no tested days\n"),
        _extremes_table("extremes_hf", np.concatenate(list(hf.values())) if hf
                        else np.empty(0)),
        _summary_table("returns_daily_summary", daily, "insufficient daily history\n"),
        _extremes_table("extremes_daily", np.array([r.daily_return for r in panel])),
    ]
    if len(sizes) >= 2:
        tables.append(_summary_table("jump_size_summary", {"all": sizes}, None))
    tables += [
        _extremes_table("extreme_jumps", sizes, (0.025, 0.05, 0.1, 0.2), with_text=False),
        Table("seasonality_weekday", ("weekday", "count"),
              [(name, int(weekday[i])) for i, name in enumerate(WEEKDAYS)]),
        Table("seasonality_hour", ("hour", "count"), [(h, int(hour[h])) for h in range(24)]),
        Table("seasonality", text=render_seasonality(weekday, hour)),
        Table("panel", ("symbol", "date", "daily_return", "jump_dummy", "lagged_jump_dummy",
                        "pos_jump_dummy", "neg_jump_dummy"),
              [(r.symbol, r.utc_date.isoformat(), r.daily_return, r.jump_dummy,
                r.lagged_jump_dummy, r.pos_jump_dummy, r.neg_jump_dummy) for r in panel]),
        _regression_table(panel),
    ]
    return tables, dropped
