"""Synthetic symbol-days with known jump ground truth.

The latent log price follows ``dX = sigma dW + Z dJ`` over a 24h day
(T = 1), observed through additive Gaussian microstructure noise of
standard deviation ``q``.  Every statistical acceptance test in the
suite is calibrated against paths produced here, so generation is
strictly reproducible from the seed.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from datetime import date
from math import sqrt
from pathlib import Path

import numpy as np

from .catalog import DAY_NS, day_start_ns

BLOCK_TICKS = 2_048   # ticks formatted per write; larger blocks hold more text in memory
X0 = np.log(100.0)    # every path's opening log price


@dataclass(frozen=True)
class SimConfig:
    sigma: float = 0.04          # daily volatility of the Brownian part
    q: float = 0.0005            # noise standard deviation per observation
    n: int = 86_400              # observations per day
    seed: int = 0
    jump_times: tuple[float, ...] | None = None    # fractions of the day in [0,1)
    jump_sizes: tuple[float, ...] | None = None    # log sizes, paired with jump_times
    jump_intensity: float = 0.0                    # Poisson jumps/day when times not given
    jump_fixed_size: float | None = None           # fixed magnitude (sign still random)
    jump_spread_ticks: int = 1   # >1 spreads each jump linearly over that many ticks

    def __post_init__(self):
        # not (x >= 0) refuses NaN too
        if not (self.sigma >= 0 and self.q >= 0 and self.n >= 2):
            raise ValueError("need sigma >= 0, q >= 0, n >= 2")
        for name in ("jump_intensity", "seed"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0")
        if self.jump_times is not None:
            if any(not 0 <= t < 1 for t in self.jump_times):
                raise ValueError("jump times must lie in [0, 1)")
            if self.jump_sizes is not None and \
               len(self.jump_sizes) != len(self.jump_times):
                raise ValueError("jump_sizes must pair with jump_times")
        if self.jump_spread_ticks < 1:
            raise ValueError("jump_spread_ticks must be >= 1")


@dataclass
class SimDay:
    observed: np.ndarray                 # noisy log prices, length n
    latent: np.ndarray                   # efficient log prices, length n
    true_jumps: tuple[tuple[float, float], ...]   # (time fraction, log size)
    config: SimConfig


def draw_jump_size(rng: np.random.Generator) -> float:
    """Two-sided mixture shaped like observed crypto jumps.

    Negative with probability 2/3; magnitudes lognormal with median
    ~0.8% so most mass sits inside +-2.5% with heavy tails beyond.
    Used for realistic-looking corpora only, never as an oracle value.
    """
    mag = float(rng.lognormal(mean=np.log(0.008), sigma=0.8))
    sign = -1.0 if rng.random() < (2.0 / 3.0) else 1.0
    return sign * mag


def simulate_day(config: SimConfig) -> SimDay:
    """Euler path of the jump-diffusion plus additive observation noise."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    dt = 1.0 / n
    increments = config.sigma * sqrt(dt) * rng.standard_normal(n - 1)

    def draw_size():
        if config.jump_fixed_size is not None:
            sign = -1.0 if rng.random() < (2.0 / 3.0) else 1.0
            return sign * config.jump_fixed_size
        return draw_jump_size(rng)

    if config.jump_times is not None:
        times = list(config.jump_times)
        if config.jump_sizes is not None:
            sizes = list(config.jump_sizes)
        else:
            sizes = [draw_size() for _ in times]
    else:
        count = int(rng.poisson(config.jump_intensity)) if config.jump_intensity > 0 else 0
        times = sorted(float(rng.uniform(0.0, 1.0)) for _ in range(count))
        sizes = [draw_size() for _ in times]

    spread = config.jump_spread_ticks
    for t, size in zip(times, sizes):
        # the step lands at observation floor(t*n): a jump at noon moves
        # every observation from index n/2 onward
        idx = min(max(int(np.floor(t * n)), 1), n - 1)
        hi = min(idx + spread, n)
        increments[idx - 1:hi - 1] += size / (hi - idx)

    latent = X0 + np.concatenate(([0.0], np.cumsum(increments)))
    observed = latent + config.q * rng.standard_normal(n)
    return SimDay(observed=observed, latent=latent,
                  true_jumps=tuple(zip(times, sizes)), config=config)


def day_seeds(master_seed: int, n_days: int) -> list[int]:
    """Deterministic per-day seeds derived from one master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(n_days)]


def tick_timestamps_ns(utc_date: date, n: int) -> np.ndarray:
    return day_start_ns(utc_date) + DAY_NS // n * np.arange(n, dtype=np.int64)


def write_tick_csv(sim: SimDay, path: str | Path, symbol: str, utc_date: date,
                   exchanges: tuple[str, ...] = ("SIM",),
                   exchange_noise_q: float = 0.0) -> int:
    """Emit the day as ingestible tick CSV; returns the row count.

    With several exchanges each one re-observes the latent path through
    its own noise (seeded off the day seed), mimicking cross-market
    micro-disagreement at identical timestamps.  The file holds the bytes
    ``csv.writer`` gives row by row, formatted ``BLOCK_TICKS`` ticks at a
    time, so the text in memory stays bounded whatever the day's length.
    """
    n = sim.config.n
    ts = tick_timestamps_ns(utc_date, n)
    columns = {}
    for i, exch in enumerate(exchanges):
        if i == 0 and exchange_noise_q == 0.0:
            logp = sim.observed
        else:
            rng = np.random.default_rng((sim.config.seed, 7_001, i))
            logp = sim.latent + exchange_noise_q * rng.standard_normal(n)
        columns[exch] = np.exp(logp)
    # each row is "<ns>,<exchange>,<symbol>,<price>"; only the constant
    # middle cells can need quoting, so csv.writer quotes them once
    middles = [f",{_csv_cells(exch, symbol)}," for exch in exchanges]
    width = len(exchanges)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_cells("time", "exchange", "symbol", "price") + "\r\n")
        for start in range(0, n, BLOCK_TICKS):
            stamps = list(map(str, ts[start:start + BLOCK_TICKS].tolist()))
            # rows interleave the exchanges tick by tick; the closing ""
            # ends the last row (and writes nothing when there are no rows)
            lines = [""] * (len(stamps) * width + 1)
            for i, exch in enumerate(exchanges):
                prices = map(repr, columns[exch][start:start + BLOCK_TICKS].tolist())
                lines[i:-1:width] = map(middles[i].join, zip(stamps, prices))
            fh.write("\r\n".join(lines))
    return n * width


def _csv_cells(*cells: str) -> str:
    """The cells as ``csv.writer`` joins and quotes them, less the line end.

    The writer keeps its default ``\\r\\n`` terminator: its quoting of a
    cell holding CR or LF depends on the terminator's characters.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()[:-2]


def make_corpus(out_dir: str | Path, symbol: str, start: date, n_days: int,
                base: SimConfig, exchanges: tuple[str, ...] = ("SIM",),
                exchange_noise_q: float = 0.0) -> list[dict]:
    """Write a multi-day tick corpus plus its ground-truth manifest.

    Returns one record per day: {date, csv, seed, true_jumps}.  Days are
    seeded from ``base.seed`` via a SeedSequence spawn so the corpus is
    bit-reproducible.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = day_seeds(base.seed, n_days)
    records = []
    for i in range(n_days):
        day = date.fromordinal(start.toordinal() + i)
        sim = simulate_day(replace(base, seed=seeds[i]))
        csv_path = out_dir / f"ticks_{symbol}_{day.isoformat()}.csv"
        write_tick_csv(sim, csv_path, symbol, day, exchanges, exchange_noise_q)
        records.append({
            "date": day.isoformat(),
            "csv": csv_path.name,
            "seed": seeds[i],
            "true_jumps": [[t, s] for t, s in sim.true_jumps],
        })
    return records
