"""Simulator: reproducibility, path law, ground truth, tick emission."""
import csv
import math
import tracemalloc
from datetime import date

import numpy as np
import pytest

from hfjumps.simulate import (BLOCK_TICKS, SimConfig, make_corpus, simulate_day,
                              tick_timestamps_ns, write_tick_csv)
from hfjumps.tickstore import TickStore


def test_flat_config_constant_path():
    sim = simulate_day(SimConfig(sigma=0.0, q=0.0, n=1000, seed=1))
    assert np.all(sim.observed == sim.observed[0])
    assert sim.true_jumps == ()


def test_single_jump_is_step_at_half():
    n = 1000
    sim = simulate_day(SimConfig(sigma=0.0, q=0.0, n=n, seed=1,
                                 jump_times=(0.5,), jump_sizes=(0.05,)))
    x0 = sim.observed[0]
    np.testing.assert_array_equal(sim.observed[: n // 2], np.full(n // 2, x0))
    np.testing.assert_allclose(sim.observed[n // 2:], x0 + 0.05, rtol=0, atol=1e-15)


def test_endpoint_variance_matches_brownian_law():
    # daily variance sigma^2 = 0.0016; sample variance over 1,000 seeds
    n, sigma = 2000, 0.04
    ends = []
    for seed in range(1000):
        sim = simulate_day(SimConfig(sigma=sigma, q=0.0, n=n, seed=seed))
        ends.append(sim.latent[-1] - sim.latent[0])
    var = np.var(ends, ddof=1)
    assert abs(var / sigma ** 2 - 1) < 0.05


def test_same_seed_bitwise_identical():
    cfg = SimConfig(seed=123, n=5000, jump_intensity=2.0)
    a, b = simulate_day(cfg), simulate_day(cfg)
    np.testing.assert_array_equal(a.observed, b.observed)
    np.testing.assert_array_equal(a.latent, b.latent)
    assert a.true_jumps == b.true_jumps


def test_quadratic_variation_converges():
    sigma = 0.04
    errs = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        sim = simulate_day(SimConfig(sigma=sigma, q=0.0, n=n, seed=42))
        qv = float(np.sum(np.diff(sim.latent) ** 2))
        errs.append(abs(qv - sigma ** 2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / sigma ** 2 < 0.01


def test_jump_qv_decomposition():
    sigma = 0.04
    n = 100_000
    sim = simulate_day(SimConfig(sigma=sigma, q=0.0, n=n, seed=7,
                                 jump_times=(0.2, 0.6, 0.9),
                                 jump_sizes=(0.03, -0.05, 0.02)))
    qv = float(np.sum(np.diff(sim.latent) ** 2))
    jump_part = sum(s ** 2 for _, s in sim.true_jumps)
    # QV(X) - continuous QV ~ sum of squared jump sizes, up to MC error
    assert qv - sigma ** 2 == pytest.approx(jump_part, rel=0.05)


def test_poisson_jump_counts_reproducible_and_within_day():
    cfg = SimConfig(seed=11, n=2000, jump_intensity=3.0)
    sim = simulate_day(cfg)
    assert all(0 <= t < 1 for t, _ in sim.true_jumps)
    assert simulate_day(cfg).true_jumps == sim.true_jumps


def test_config_validation():
    # NaN fails every check, as a negative value does
    for bad in ({"sigma": -1.0}, {"sigma": math.nan}, {"q": math.nan}, {"seed": -1},
                {"jump_intensity": -1.0}, {"jump_intensity": math.nan}):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    with pytest.raises(ValueError):
        SimConfig(jump_times=(1.5,))
    with pytest.raises(ValueError):
        SimConfig(jump_times=(0.5,), jump_sizes=(1.0, 2.0))


def test_tick_timestamps_within_day():
    ts = tick_timestamps_ns(date(2021, 3, 1), 17_280)
    assert len(ts) == 17_280
    assert ts[0] == 1_614_556_800_000_000_000
    assert ts[-1] < ts[0] + 86_400 * 10 ** 9
    assert len(np.unique(ts)) == len(ts)


def test_write_tick_csv_deterministic_and_ingestible(tmp_path):
    sim = simulate_day(SimConfig(seed=9, n=500))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = write_tick_csv(sim, p1, "BTC", date(2021, 3, 1))
    write_tick_csv(sim, p2, "BTC", date(2021, 3, 1))
    assert rows == 500
    assert p1.read_bytes() == p2.read_bytes()
    store = TickStore(tmp_path / "store")
    rep = store.ingest_csv(p1)
    assert (rep.accepted, rep.rejected) == (500, 0)
    day = store.slice("BTC", date(2021, 3, 1))
    np.testing.assert_allclose(np.log(day.prices), sim.observed, rtol=1e-15)


def test_write_tick_csv_multi_exchange(tmp_path):
    sim = simulate_day(SimConfig(seed=9, n=200))
    path = tmp_path / "multi.csv"
    rows = write_tick_csv(sim, path, "ETH", date(2021, 3, 1),
                          exchanges=("EXA", "EXB", "EXC"), exchange_noise_q=0.0005)
    assert rows == 600
    store = TickStore(tmp_path / "store")
    store.ingest_csv(path)
    day = store.slice("ETH", date(2021, 3, 1))
    assert len(day) == 600
    assert sorted(set(day.exchanges)) == ["EXA", "EXB", "EXC"]


def write_tick_csv_reference(sim, path, symbol, utc_date, exchanges=("SIM",),
                             exchange_noise_q=0.0):
    """One ``csv.writer.writerow`` per tick and exchange: the bytes
    ``write_tick_csv`` must reproduce."""
    ts = tick_timestamps_ns(utc_date, sim.config.n)
    columns = {}
    for i, exch in enumerate(exchanges):
        if i == 0 and exchange_noise_q == 0.0:
            logp = sim.observed
        else:
            rng = np.random.default_rng((sim.config.seed, 7_001, i))
            logp = sim.latent + exchange_noise_q * rng.standard_normal(sim.config.n)
        columns[exch] = np.exp(logp)
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "exchange", "symbol", "price"])
        for j in range(sim.config.n):
            for exch in exchanges:
                w.writerow([int(ts[j]), exch, symbol, repr(float(columns[exch][j]))])
                rows += 1
    return rows


@pytest.mark.parametrize("noise_q", [0.0, 0.0005])
@pytest.mark.parametrize("exchanges, symbol", [
    (("SIM",), "BTC"),
    (("EXA", "EXB", "EXC"), "ETH"),
    # cells csv.writer quotes (comma, quote, CR, LF) or keeps as they are (blanks)
    (("a,b", 'say "hi"', " pad "), "cr\rlf\n"),
    (("\r\n",), ' x"y,z '),
    (("A", "A"), "BTC"),        # a repeated exchange writes its last column twice
    ((), "BTC"),                # header only
], ids=["one", "three", "quoted", "crlf", "repeated", "none"])
@pytest.mark.parametrize("n", [2, BLOCK_TICKS + 1])
def test_write_tick_csv_matches_the_row_writer(tmp_path, n, exchanges, symbol, noise_q):
    sim = simulate_day(SimConfig(seed=9, n=n, jump_intensity=1.0))
    args = (symbol, date(2021, 3, 1), exchanges, noise_q)
    want = write_tick_csv_reference(sim, tmp_path / "want.csv", *args)
    assert write_tick_csv(sim, tmp_path / "got.csv", *args) == want == n * len(exchanges)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_tick_csv_holds_about_one_block(tmp_path):
    """A day's text never sits in memory at once.  The writer holds the day's
    arrays (timestamps, three price columns and one exchange's noise draw,
    8 bytes a tick each) and one block of text, 1.25 MiB at 2,048 ticks and
    3 exchanges: the bound allows 2 MiB for the block.  4,096-tick blocks
    exceed it; formatting the whole day at once peaks at 61 MiB."""
    n = 86_400
    sim = simulate_day(SimConfig(seed=9, n=n))
    tracemalloc.start()
    try:
        write_tick_csv(sim, tmp_path / "day.csv", "BTC", date(2021, 3, 1),
                       ("EXA", "EXB", "EXC"), 0.0005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 5 + 2 * 2 ** 20


def test_make_corpus_reproducible(tmp_path):
    cfg = SimConfig(seed=77, n=300, jump_intensity=1.0)
    rec1 = make_corpus(tmp_path / "c1", "BTC", date(2021, 1, 1), 3, cfg)
    rec2 = make_corpus(tmp_path / "c2", "BTC", date(2021, 1, 1), 3, cfg)
    assert [r["seed"] for r in rec1] == [r["seed"] for r in rec2]
    assert [r["true_jumps"] for r in rec1] == [r["true_jumps"] for r in rec2]
    for a, b in zip(rec1, rec2):
        assert (tmp_path / "c1" / a["csv"].split("/")[-1]).read_bytes() == \
               (tmp_path / "c2" / b["csv"].split("/")[-1]).read_bytes()
    # per-day seeds differ (independent days)
    assert len({r["seed"] for r in rec1}) == 3
