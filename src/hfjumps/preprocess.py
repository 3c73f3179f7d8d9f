"""Turn raw symbol-day slices into test-ready series.

The chain is: average simultaneous cross-exchange observations into one
log-price path, strip bounceback outliers and returns beyond a standard
deviation cutoff (each rule one sweep over just the oversized steps and
the points after a drop), pick the finest sampling frequency of 1, 5, 10
or 15 s with 95% bin coverage, and build the gap-free equispaced series
by carrying the last price forward.  Bin counting relies on an
aggregated series being strictly increasing in time, as aggregation
emits it and the filter, which only deletes points, keeps it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date

import numpy as np

from .catalog import day_start_ns
from .tickstore import SymbolDaySlice

log = logging.getLogger(__name__)

DAY_SECONDS = 86_400
FREQUENCIES = (1, 5, 10, 15)
WARN_REMOVED_SHARE = 0.01      # filter_returns warns when a day loses more of its points


@dataclass
class AggregatedSeries:
    """One symbol-day of cross-exchange mean log prices, strictly time-ordered."""

    symbol: str
    utc_date: date
    timestamps_ns: np.ndarray
    log_prices: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps_ns)


@dataclass
class EquispacedSeries:
    """Gap-free log-price grid covering the 24h day, one price per bin."""

    log_prices: np.ndarray

    def __len__(self) -> int:
        return len(self.log_prices)


@dataclass(frozen=True)
class RemovalRecord:
    timestamp_ns: int
    rule: str          # "bounceback" | "sd_cutoff"
    value: float       # the offending log return


def aggregate_cross_exchange(day: SymbolDaySlice) -> AggregatedSeries:
    """Mean price over exchanges at identical timestamps, then log.

    Order-invariant: ticks are grouped purely by timestamp, so any
    permutation of the input produces the same series.
    """
    if day.empty:
        return AggregatedSeries(day.symbol, day.utc_date,
                                np.empty(0, dtype=np.int64), np.empty(0))
    ts, inverse = np.unique(day.timestamps_ns, return_inverse=True)
    sums = np.bincount(inverse, weights=day.prices)
    counts = np.bincount(inverse)
    return AggregatedSeries(day.symbol, day.utc_date, ts, np.log(sums / counts))


def _sweep(lp: np.ndarray, cutoff: float,
           reversal: float | None = None) -> list[tuple[int, float]]:
    """Index and move of each point one rule drops, in order: its move from
    the last kept point exceeds ``cutoff`` and, given ``reversal``, the next
    return undoes at least that share of the move."""
    n, drops = len(lp), []
    cand = np.flatnonzero(np.abs(np.diff(lp)) > cutoff) + 1
    at = 0
    while at < len(cand):      # on from a kept point to the next oversized step
        i = int(cand[at])
        prev = i - 1
        while i < n:
            move = lp[i] - lp[prev]
            if not abs(move) > cutoff or reversal is not None and not (
                    i + 1 < n and move != 0 and -(lp[i + 1] - lp[i]) / move >= reversal):
                break
            drops.append((i, float(move)))
            i += 1
        at = int(np.searchsorted(cand, i, side="right"))
    return drops


def _one_filter_pass(lp: np.ndarray, ts: np.ndarray, sd_cutoff: float,
                     reversal: float) -> tuple[np.ndarray, list[RemovalRecord]]:
    """Apply rule (a) then rule (b) once; returns surviving indices.

    Up to a drop the last kept point is the one before, so each rule's
    sweep visits only the steps beyond the cutoff and the points right
    after a drop.
    """
    sd = float(np.std(np.diff(lp), ddof=1))
    if sd == 0 or not np.isfinite(sd):
        return np.arange(len(lp)), []
    cutoff = sd_cutoff * sd
    # (a) bounceback: a >cutoff move undone (>= reversal fraction) by the
    # very next return is a data error, drop the spike point
    bounced = _sweep(lp, cutoff, reversal)
    idx = np.delete(np.arange(len(lp)), [i for i, _ in bounced])
    # (b) remaining oversized returns drop their right endpoint; the next
    # return is then measured from the last kept point, so a level shift
    # made of consecutive bad prints is consumed in this single pass
    cut = _sweep(lp[idx], cutoff)
    removed = [RemovalRecord(int(ts[i]), "bounceback", move) for i, move in bounced]
    removed += [RemovalRecord(int(ts[idx[i]]), "sd_cutoff", move) for i, move in cut]
    return np.delete(idx, [i for i, _ in cut]), removed


def filter_returns(series: AggregatedSeries, sd_cutoff: float = 10.0,
                   reversal: float = 0.75) -> tuple[AggregatedSeries, list[RemovalRecord]]:
    """Remove bounceback outliers and returns beyond ``sd_cutoff`` standard deviations.

    The pass is iterated to a fixed point, recomputing the same-day sample
    SD on the surviving points each round, so a second application of
    ``filter_returns`` never removes anything (idempotence).
    """
    if len(series) < 3:
        log.warning("filter_returns: %s %s has %d points, passing through",
                    series.symbol, series.utc_date, len(series))
        return series, []
    lp = series.log_prices
    ts = series.timestamps_ns
    removed: list[RemovalRecord] = []
    while len(lp) >= 3:
        kept, rem = _one_filter_pass(lp, ts, sd_cutoff, reversal)
        if not rem:
            break
        removed.extend(rem)
        lp, ts = lp[kept], ts[kept]
    out = AggregatedSeries(series.symbol, series.utc_date, ts, lp)
    if removed:
        many = len(removed) > WARN_REMOVED_SHARE * len(series)
        log.log(logging.WARNING if many else logging.INFO,
                "filter_returns: %s %s removed %d of %d points",
                series.symbol, series.utc_date, len(removed), len(series))
    return out, removed


def _bins(series: AggregatedSeries, frequency_s: int) -> np.ndarray:
    """Each point's bin of ``frequency_s`` seconds since the day's midnight."""
    offs = series.timestamps_ns - day_start_ns(series.utc_date)
    return offs // (frequency_s * 10 ** 9)


def select_frequency(series: AggregatedSeries, coverage: float = 0.95) -> int | None:
    """Finest frequency whose bin coverage reaches ``coverage``; None rejects the day.

    Coverage counts populated bins, not raw ticks: duplicate ticks inside
    one bin cannot support a finer grid.  The threshold is inclusive
    (exactly 95% qualifies).
    """
    if len(series) == 0:
        return None
    for f in FREQUENCIES:
        populated = 1 + np.count_nonzero(np.diff(_bins(series, f)))
        # small epsilon so 0.95 * total compares exactly at the boundary
        if populated >= coverage * (DAY_SECONDS // f) - 1e-9:
            return f
    return None


def make_equispaced(series: AggregatedSeries, frequency_s: int) -> EquispacedSeries:
    """Last observation per bin, gaps carried forward (LOCF).

    Bins before the first observation are back-filled from it; that
    head fill is the only deviation from pure carry-forward and is
    logged per day.
    """
    bins = _bins(series, frequency_s)
    # the last observation at or before each bin
    last = np.searchsorted(bins, np.arange(DAY_SECONDS // frequency_s), side="right") - 1
    first = int(bins[0])
    if first > 0:
        log.info("make_equispaced: %s %s back-filled %d head bins",
                 series.symbol, series.utc_date, first)
        last[:first] = last[first]
    return EquispacedSeries(series.log_prices[last])
