"""Aggregation, outlier filtering, frequency selection, imputation."""
import logging
from datetime import date

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfjumps.preprocess import (DAY_SECONDS, FREQUENCIES, WARN_REMOVED_SHARE,
                                AggregatedSeries, RemovalRecord,
                                aggregate_cross_exchange, filter_returns,
                                make_equispaced, select_frequency)
from hfjumps.tickstore import SymbolDaySlice

D = date(2021, 3, 1)
T0 = 1_614_556_800_000_000_000


def make_slice(entries):
    """entries: (second_offset, exchange, price)"""
    entries = sorted(entries, key=lambda e: e[0])
    return SymbolDaySlice(
        "BTC", D,
        np.array([T0 + int(s * 1e9) for s, _, _ in entries], dtype=np.int64),
        np.array([e for _, e, _ in entries], dtype=str),
        np.array([p for _, _, p in entries]))


def make_series(seconds, log_prices):
    return AggregatedSeries("BTC", D,
                            T0 + (np.asarray(seconds) * 10 ** 9).astype(np.int64),
                            np.asarray(log_prices, dtype=float))


# ---------------------------------------------------------------------------
# aggregate_cross_exchange
# ---------------------------------------------------------------------------

def test_aggregate_simultaneous_pair_mean():
    agg = aggregate_cross_exchange(make_slice([(0, "A", 100.0), (0, "B", 102.0)]))
    assert len(agg) == 1
    assert agg.log_prices[0] == pytest.approx(np.log(101.0), abs=1e-15)


def test_aggregate_single_exchange_identity():
    prices = [100.0, 101.5, 99.0]
    agg = aggregate_cross_exchange(make_slice(
        [(i, "A", p) for i, p in enumerate(prices)]))
    assert len(agg) == 3
    np.testing.assert_allclose(agg.log_prices, np.log(prices), rtol=0, atol=0)


def test_aggregate_collisions_match_groupby_oracle():
    rng = np.random.default_rng(5)
    entries = []
    for exch, offset in (("A", 0), ("B", 3), ("C", 7)):
        for i in range(40):
            entries.append((offset + 10 * i, exch, float(rng.uniform(90, 110))))
    # engineer two collisions
    entries.append((3, "A", 100.0))
    entries.append((7, "B", 104.0))
    # brute-force per-timestamp mean oracle
    groups = {}
    for s, _, p in entries:
        groups.setdefault(s, []).append(p)
    want_ts = sorted(groups)
    want_logp = [np.log(sum(v) / len(v)) for s in want_ts for v in [groups[s]]]
    agg = aggregate_cross_exchange(make_slice(entries))
    assert len(agg) == len(want_ts)
    np.testing.assert_allclose(agg.log_prices, want_logp, rtol=1e-15)


def test_aggregate_empty_slice_gives_empty_series():
    agg = aggregate_cross_exchange(make_slice([]))
    assert len(agg) == 0


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(12))))
def test_aggregate_permutation_invariant(perm):
    rng = np.random.default_rng(9)
    base = [(int(s), e, float(p)) for s, e, p in
            zip(rng.integers(0, 6, 12), ["A", "B"] * 6, rng.uniform(90, 110, 12))]
    shuffled = [base[i] for i in perm]
    a1 = aggregate_cross_exchange(make_slice(base))
    a2 = aggregate_cross_exchange(make_slice(shuffled))
    np.testing.assert_array_equal(a1.timestamps_ns, a2.timestamps_ns)
    np.testing.assert_array_equal(a1.log_prices, a2.log_prices)


# ---------------------------------------------------------------------------
# filter_returns
# ---------------------------------------------------------------------------

def base_wiggle(n, step=0.001):
    """Deterministic log-price path whose returns are exactly +-step."""
    r = np.empty(n - 1)
    r[0::2] = step
    r[1::2] = -step
    return np.log(100.0) + np.concatenate(([0.0], np.cumsum(r)))


def test_filter_constant_day_removes_nothing():
    series = make_series(range(10), [np.log(100)] * 10)
    out, removed = filter_returns(series)
    assert removed == []
    assert len(out) == 10


def test_filter_bounceback_removed():
    # a ~0.001-sd day, then 100 -> 150 -> 100.2: the up move is ~16 sd of the
    # day's returns (sd inflated by the spike itself) and is 98.5% reversed
    lp = base_wiggle(501)
    spike = np.array([np.log(150.0), np.log(100.2)])
    lp = np.concatenate([lp, spike])
    sd = np.std(np.diff(lp), ddof=1)
    move = np.log(150.0) - lp[500]
    assert move > 10 * sd                      # rule (a) arms
    assert (-(np.log(100.2) - np.log(150.0)) / move) >= 0.75
    series = make_series(range(len(lp)), lp)
    out, removed = filter_returns(series)
    assert len(removed) == 1
    assert removed[0].rule == "bounceback"
    assert removed[0].timestamp_ns == series.timestamps_ns[501]
    assert len(out) == len(lp) - 1


def test_filter_single_12sd_return_not_reversed():
    # spike of ~12 sd, 70% reversed (below the 75% bounceback bar): rule (b)
    # drops the spike point only; the residual +30% move is ~4 sd, kept
    n = 1001
    lp = base_wiggle(n)
    r = 0.0135
    spike_point = lp[-1] + r
    after = spike_point - 0.7 * r
    lp = np.concatenate([lp, [spike_point], [after]])
    sd = np.std(np.diff(lp), ddof=1)
    assert 11 <= r / sd <= 13                  # the spike is ~12 sd
    series = make_series(range(len(lp)), lp)
    out, removed = filter_returns(series)
    assert len(removed) == 1
    assert removed[0].rule == "sd_cutoff"
    assert removed[0].timestamp_ns == series.timestamps_ns[n]
    assert len(out) == len(lp) - 1


def test_filter_level_shift_of_bad_prints_consumed():
    # several consecutive oversized prints at a shifted level, then return to
    # path: every shifted point drops, the original path survives
    lp = base_wiggle(800)
    shifted = lp[400] + 0.05 + base_wiggle(5) - np.log(100.0)
    lp = np.concatenate([lp[:400], shifted, lp[400:]])
    series = make_series(range(len(lp)), lp)
    out, removed = filter_returns(series)
    assert len(removed) == 5
    assert all(rec.rule == "sd_cutoff" for rec in removed)
    assert len(out) == 800


def test_filter_idempotent_on_constructions():
    for maker in (test_filter_bounceback_removed,
                  test_filter_single_12sd_return_not_reversed):
        maker()
    rng = np.random.default_rng(13)
    for _ in range(3):
        lp = np.log(100) + np.cumsum(rng.normal(0, 1e-3, 2000))
        lp[700] += 0.05                        # spike with partial reversal
        lp[701:] += 0.01
        series = make_series(range(len(lp)), lp)
        once, removed1 = filter_returns(series)
        twice, removed2 = filter_returns(once)
        assert removed2 == []
        np.testing.assert_array_equal(once.log_prices, twice.log_prices)


def test_filter_short_series_passthrough():
    series = make_series([0, 1], [4.6, 4.7])
    out, removed = filter_returns(series)
    assert len(out) == 2 and removed == []


def two_loop_filter_pass(lp, ts, sd_cutoff, reversal):
    """Reference for one filter pass: both rules walk every point."""
    removed = []
    n = len(lp)
    r = np.diff(lp)
    sd = float(np.std(r, ddof=1))
    if sd == 0 or not np.isfinite(sd):
        return np.arange(n), removed
    cutoff = sd_cutoff * sd
    if np.max(np.abs(r)) <= cutoff:
        return np.arange(n), removed
    keep = np.ones(n, dtype=bool)
    prev = 0
    for i in range(1, n):
        move = lp[i] - lp[prev]
        if abs(move) > cutoff and i + 1 < n:
            nxt = lp[i + 1] - lp[i]
            if move != 0 and (-nxt / move) >= reversal:
                keep[i] = False
                removed.append(RemovalRecord(int(ts[i]), "bounceback", float(move)))
                continue
        prev = i
    idx = np.nonzero(keep)[0]
    lp2, ts2 = lp[idx], ts[idx]
    keep2 = np.ones(len(lp2), dtype=bool)
    prev = 0
    for i in range(1, len(lp2)):
        move = lp2[i] - lp2[prev]
        if abs(move) > cutoff:
            keep2[i] = False
            removed.append(RemovalRecord(int(ts2[i]), "sd_cutoff", float(move)))
        else:
            prev = i
    return idx[keep2], removed


def two_loop_filter(lp, sd_cutoff, reversal):
    """The reference pass iterated to its fixed point: kept indices and removals."""
    idx, removed = np.arange(len(lp)), []
    while len(idx) >= 3:
        kept, rem = two_loop_filter_pass(lp[idx], idx, sd_cutoff, reversal)
        if not rem:
            break
        removed += rem
        idx = idx[kept]
    return idx, removed


@st.composite
def dirty_paths(draw):
    """A noisy log-price path with spikes, partial reversals, level shifts,
    bursts of bad prints, zero-return runs and a print off the path at its end."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lp = np.log(100.0) + np.cumsum(rng.normal(0.0, 1e-3, n))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["spike", "shift", "burst", "flat", "last"]))
        at = draw(st.integers(0, n - 1))
        size = draw(st.floats(-40.0, 40.0)) * 1e-3
        length = draw(st.integers(1, 12))
        if kind == "spike":       # the next return undoes a drawn share of the spike
            lp[at] += size
            lp[at + 1:] += size * (1.0 - draw(st.floats(0.0, 1.5)))
        elif kind == "shift":
            lp[at:] += size
        elif kind == "burst":
            lp[at:at + length] += size
        elif kind == "flat":
            lp[at:at + length] = lp[at]
        else:
            lp[-1] += size
    return lp


@settings(max_examples=300, deadline=None)
@given(dirty_paths(), st.floats(1.5, 12.0), st.floats(0.3, 1.2))
def test_filter_matches_the_two_loop_reference(lp, sd_cutoff, reversal):
    series = make_series(range(len(lp)), lp)
    out, removed = filter_returns(series, sd_cutoff=sd_cutoff, reversal=reversal)
    idx, want = two_loop_filter(lp, sd_cutoff, reversal)
    np.testing.assert_array_equal(out.timestamps_ns, series.timestamps_ns[idx])
    np.testing.assert_array_equal(out.log_prices, lp[idx])
    assert [(r.timestamp_ns, r.rule, r.value.hex()) for r in removed] == \
        [(int(series.timestamps_ns[r.timestamp_ns]), r.rule, r.value.hex()) for r in want]


def test_filter_warns_when_a_day_loses_more_than_its_share(caplog):
    lp = base_wiggle(1001)
    lp[500:520] += 0.05                       # 20 bad prints: 2% of the day
    caplog.set_level(logging.INFO, logger="hfjumps.preprocess")
    filter_returns(make_series(range(len(lp)), lp))
    lp = base_wiggle(1001)
    lp[500:505] += 0.05                       # 5 bad prints: 0.5%
    filter_returns(make_series(range(len(lp)), lp))
    assert [(r.levelname, r.getMessage().split(" removed ")[1]) for r in caplog.records] == \
        [("WARNING", "20 of 1001 points"), ("INFO", "5 of 1001 points")]
    assert 5 <= WARN_REMOVED_SHARE * 1001 < 20


# ---------------------------------------------------------------------------
# select_frequency
# ---------------------------------------------------------------------------

def test_select_frequency_full_second_coverage():
    series = make_series(np.arange(DAY_SECONDS), np.zeros(DAY_SECONDS))
    assert select_frequency(series) == 1


def test_select_frequency_boundary_82080_accepted():
    # exactly 0.95 * 86,400 populated one-second bins: inclusive boundary
    series = make_series(np.arange(82_080), np.zeros(82_080))
    assert select_frequency(series) == 1


def test_select_frequency_5000_uniform_ticks_rejected():
    # 15s grid needs >= 0.95 * 5,760 = 5,472 populated bins; 5,000 ticks
    # can populate at most 5,000
    seconds = np.linspace(0, DAY_SECONDS - 1, 5000).astype(int)
    series = make_series(np.unique(seconds), np.zeros(len(np.unique(seconds))))
    assert select_frequency(series) is None


def test_select_frequency_prefers_finest():
    # full 5s grid coverage but only 20% of seconds: picks 5, not 1
    seconds = np.arange(0, DAY_SECONDS, 5)
    series = make_series(seconds, np.zeros(len(seconds)))
    assert select_frequency(series) == 5


def test_select_frequency_monotone_under_added_observations():
    rng = np.random.default_rng(21)
    base_sec = np.unique(rng.integers(0, DAY_SECONDS, 40_000))
    series = make_series(base_sec, np.zeros(len(base_sec)))
    f_before = select_frequency(series)
    assert f_before is not None
    extra = np.unique(np.concatenate(
        [base_sec, rng.integers(0, DAY_SECONDS, 50_000)]))
    f_after = select_frequency(make_series(extra, np.zeros(len(extra))))
    assert f_after is not None and f_after <= f_before


# ---------------------------------------------------------------------------
# make_equispaced
# ---------------------------------------------------------------------------

def locf_oracle(offsets_ns, logp, f):
    """Brute-force per-bin last-observation-carried-forward."""
    n_bins = DAY_SECONDS // f
    out = [None] * n_bins
    for o, v in zip(offsets_ns, logp):
        out[int(o) // (f * 10 ** 9)] = v      # inputs are time-ordered
    first = next(i for i, v in enumerate(out) if v is not None)
    for i in range(n_bins):
        if out[i] is None:
            out[i] = out[i - 1] if i > first else out[first]
    return np.array(out)


def test_make_equispaced_full_coverage_is_last_price_per_second():
    rng = np.random.default_rng(3)
    logp = np.cumsum(rng.normal(0, 1e-4, DAY_SECONDS))
    series = make_series(np.arange(DAY_SECONDS), logp)
    eq = make_equispaced(series, 1)
    assert len(eq) == DAY_SECONDS
    np.testing.assert_array_equal(eq.log_prices, logp)


def test_make_equispaced_gap_of_7_carries_value():
    seconds = [0, 1, 9]
    series = make_series(seconds, [1.0, 2.0, 3.0])
    eq = make_equispaced(series, 1)
    np.testing.assert_array_equal(eq.log_prices[1:9], [2.0] * 8)
    assert eq.log_prices[9] == 3.0


def test_make_equispaced_random_mask_matches_oracle():
    rng = np.random.default_rng(17)
    f = 5
    n_bins = DAY_SECONDS // f
    keep = rng.random(n_bins) > 0.30
    keep[rng.integers(0, n_bins)] = True       # ensure non-empty
    seconds = np.nonzero(keep)[0] * f
    logp = rng.normal(0, 1.0, len(seconds))
    series = make_series(seconds, logp)
    eq = make_equispaced(series, f)
    np.testing.assert_array_equal(eq.log_prices,
                                  locf_oracle(seconds * 10 ** 9, logp, f))


def test_make_equispaced_head_backfill():
    series = make_series([100, 101], [5.0, 6.0])
    eq = make_equispaced(series, 1)
    np.testing.assert_array_equal(eq.log_prices[:100], [5.0] * 100)


def test_make_equispaced_last_obs_in_bin_wins():
    series = make_series([10, 12], [1.0, 2.0])   # both in the same 5s bin
    eq = make_equispaced(series, 5)
    assert eq.log_prices[2] == 2.0


@pytest.mark.parametrize("f", [1, 5, 10, 15])
def test_make_equispaced_exact_length(f):
    series = make_series([0, 50_000], [1.0, 2.0])
    assert len(make_equispaced(series, f)) == DAY_SECONDS // f


@st.composite
def day_offsets(draw):
    """Strictly increasing ns offsets within one day.

    Runs of seconds, each after a run of empty seconds (the first of them
    a head gap), populate a drawn share of their seconds with 1-3 ticks
    each, so coarser bins hold many ticks and finer ones are often empty;
    the day's last nanosecond may be added.
    """
    runs = draw(st.lists(st.tuples(st.integers(0, 2_000), st.integers(1, 43_200),
                                   st.sampled_from([1.0, 0.9, 0.5, 0.1]),
                                   st.integers(1, 3)), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts, second = [], 0
    for gap, length, share, ticks in runs:
        seconds = np.arange(second + gap, min(second + gap + length, DAY_SECONDS))
        seconds = seconds[rng.random(len(seconds)) < share]
        second += gap + length
        parts.append((seconds[:, None] * 10 ** 9
                      + rng.integers(0, 10 ** 9, (len(seconds), ticks))).ravel())
    if draw(st.booleans()):
        parts.append(np.array([DAY_SECONDS * 10 ** 9 - 1]))
    offsets = np.unique(np.concatenate(parts).astype(np.int64))
    assume(len(offsets) > 0)
    return offsets, rng.normal(0.0, 1.0, len(offsets))


@settings(max_examples=25, deadline=None)
@given(day_offsets(), st.data())
def test_grid_and_coverage_match_brute_force_oracles(day, data):
    offsets, logp = day
    series = AggregatedSeries("BTC", D, T0 + offsets, logp)
    for f in FREQUENCIES:
        np.testing.assert_array_equal(make_equispaced(series, f).log_prices,
                                      locf_oracle(offsets, logp, f))
    populated = {f: len({int(o) // (f * 10 ** 9) for o in offsets}) for f in FREQUENCIES}
    # any coverage, or one that a frequency reaches exactly
    coverage = data.draw(st.floats(0.01, 1.0) | st.sampled_from(
        [populated[f] / (DAY_SECONDS // f) for f in FREQUENCIES]))
    want = next((f for f in FREQUENCIES
                 if populated[f] >= coverage * (DAY_SECONDS // f) - 1e-9), None)
    assert select_frequency(series, coverage=coverage) == want
