"""Benchmark inputs: the workloads and the tick corpora they run on.

Every input is derived from the run's seed.  The simulator
(``hfjumps.simulate``) is only the load generator; the ``dirty``
rewrite turns its clean epoch-ns CSV into what real feeds look like:
ISO-8601 timestamps, a fixed number of malformed rows per file, and a
few single-exchange +5% prints that revert on the next tick.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from hfjumps.simulate import SimConfig, make_corpus

START = date(2021, 1, 4)
MALFORMED_PER_FILE = 10
SPIKES_PER_FILE = 3
SPIKE_FACTOR = 1.05
JUMP_SPREAD_TICKS = 40    # the CLI's simulate --jump-spread default
NOISE_Q = 0.0005          # the CLI's simulate --noise-q default


@dataclass(frozen=True)
class Workload:
    """Inputs and chain of one workload; BENCHMARK.json says why each exists."""

    name: str
    symbols: tuple[str, ...]
    days: int
    ticks_per_day: int
    exchanges: tuple[str, ...] = ("EX1",)
    exchange_noise_q: float = 0.0
    # symbol-day m (symbol-major) has its noise scaled by 1 + noise_step * m
    noise_step: float = 0.0
    dirty: bool = False      # ISO timestamps, malformed rows, spikes
    redetect: bool = False   # detect again at --alpha 0.9999 before analyze
    daily: bool = False      # ingest + detect one day at a time


WORKLOADS = {w.name: w for w in (
    Workload("cli_1s", symbols=("BTC",), days=1, ticks_per_day=86_400, redetect=True),
    Workload("dirty_5s_3ex", symbols=("BTC", "ETH"), days=2, ticks_per_day=17_280,
             exchanges=("EX1", "EX2", "EX3"), exchange_noise_q=NOISE_Q, noise_step=0.25,
             dirty=True),
    Workload("daily_append", symbols=("BTC",), days=3, ticks_per_day=17_280, daily=True),
)}


@dataclass
class InputFile:
    path: Path
    symbol: str
    day: date
    rows: int           # well-formed tick rows
    malformed: int      # injected rows the store must reject


@dataclass
class Corpus:
    files: list[InputFile]
    # (symbol, iso date) -> [(time fraction, log size)]
    truth: dict[tuple[str, str], list[tuple[float, float]]] = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return sum(f.rows for f in self.files)

    @property
    def malformed(self) -> int:
        return sum(f.malformed for f in self.files)

    @property
    def bytes(self) -> int:
        return sum(f.path.stat().st_size for f in self.files)

    def digest(self) -> str:
        h = hashlib.sha256()
        for f in self.files:
            h.update(f.path.name.encode())
            h.update(f.path.read_bytes())
        return h.hexdigest()

    def symbol_days(self) -> list[tuple[str, date]]:
        return sorted({(f.symbol, f.day) for f in self.files})


def _day_seed(seed: int, symbol_index: int, day_index: int) -> int:
    return int(np.random.SeedSequence([seed, symbol_index, day_index]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int, out_dir: Path) -> Corpus:
    """Write the workload's tick files under ``out_dir``.

    Jumps follow the CLI's ``simulate`` defaults: Poisson 1/day, sizes
    from the heavy-tailed mixture, each spread over 40 ticks.  With
    ``noise_step`` every symbol-day gets its own noise level, as real
    feeds do; otherwise two days of one detect process can round to the
    same noise-to-volatility ratio and share one AJL calibration, and
    whether they do would change the run's cost from seed to seed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(files=[])
    for i, symbol in enumerate(w.symbols):
        rng = np.random.default_rng([seed, i, 1])
        for j in range(w.days):
            scale = 1.0 + w.noise_step * (i * w.days + j)
            base = SimConfig(sigma=0.04, q=NOISE_Q * scale, n=w.ticks_per_day,
                             seed=_day_seed(seed, i, j), jump_intensity=1.0,
                             jump_spread_ticks=JUMP_SPREAD_TICKS)
            [rec] = make_corpus(out_dir, symbol, START + timedelta(days=j), 1, base,
                                w.exchanges, w.exchange_noise_q * scale)
            path = out_dir / rec["csv"]
            malformed = _rewrite_dirty(path, rng, len(w.exchanges)) if w.dirty else 0
            corpus.files.append(InputFile(
                path=path, symbol=symbol, day=date.fromisoformat(rec["date"]),
                rows=w.ticks_per_day * len(w.exchanges), malformed=malformed))
            corpus.truth[(symbol, rec["date"])] = [tuple(jump) for jump in rec["true_jumps"]]
    # the daily job delivers files in calendar order
    corpus.files.sort(key=lambda f: (f.day, f.symbol))
    return corpus


def _rewrite_dirty(path: Path, rng: np.random.Generator, n_exchanges: int) -> int:
    """Rewrite one simulator CSV in place; returns the malformed-row count."""
    lines = path.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    ts = np.array([int(r[0]) for r in rows], dtype=np.int64)
    if np.any(ts % 1_000_000):
        raise ValueError("simulated timestamps are not whole milliseconds")
    iso = np.datetime_as_string(ts.astype("datetime64[ns]"), unit="ms")
    for r, text in zip(rows, iso):
        r[0] = text + "Z"

    # one exchange prints +5% at a tick; its next print is clean again
    n_ticks = len(rows) // n_exchanges
    ticks = rng.choice(np.arange(100, n_ticks - 100), SPIKES_PER_FILE, replace=False)
    for t in ticks:
        r = rows[int(t) * n_exchanges + int(rng.integers(n_exchanges))]
        r[3] = repr(float(r[3]) * SPIKE_FACTOR)

    # each variant hits a different reject path of the tick store
    at = set(int(i) for i in rng.choice(np.arange(1, len(rows)),
                                         MALFORMED_PER_FILE, replace=False))
    out = [header]
    n_bad = 0
    for i, r in enumerate(rows):
        if i in at:
            t, exch, sym, price = r
            bad = ([t, exch, sym, "nan"], [t, exch, sym, "abc"],
                   ["not-a-time", exch, sym, price], [t, exch, sym, "-1.0"],
                   [t, "", sym, price])[n_bad % 5]
            out.append(",".join(bad))
            n_bad += 1
        out.append(",".join(r))
    path.write_text("\n".join(out) + "\n")
    return n_bad
