"""Per-symbol-day orchestration: tick store to jump catalog.

The moment-level test runs on the (irregular) aggregated tick series,
the day-level ratio test on the equispaced grid, and a moment-level
detection only enters the catalog when the day-level test also finds
jumps on that day.  Verdicts serialize to JSON lines; reruns with the
same inputs, config, and seeds are byte-identical.
"""
from __future__ import annotations

import csv
import logging
from datetime import date
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# load_catalog is not used here: the benchmark imports it from this module
from .catalog import REMOVALS_HEADER, DayVerdict, load_catalog, removals_path, write_manifest
from .errors import DayRejected
from .preprocess import (AggregatedSeries, aggregate_cross_exchange, filter_returns,
                         make_equispaced, select_frequency)
from .tickstore import TickStore

if TYPE_CHECKING:
    from .config import RunConfig

log = logging.getLogger(__name__)


def detect_day(series: AggregatedSeries, cfg: RunConfig) -> DayVerdict:
    """Full per-day chain on an aggregated series (pure given config).

    preprocess -> moment scan + dedup -> day-level test -> combination.
    Any stage rejection yields an untested verdict naming the stage.
    """
    # imported on first use: analyze reads the catalog and the store, and
    # needs neither test
    from . import ajl, lee_mykland as lm

    verdict = DayVerdict(symbol=series.symbol, utc_date=series.utc_date,
                         tested=False, config_hash=cfg.hash())
    if len(series) == 0:
        verdict.reason = "no_data"
        return verdict

    verdict.filter = {"sd_cutoff": cfg.sd_cutoff, "reversal": cfg.bounceback_reversal}
    filtered, removed = filter_returns(series, **verdict.filter)
    verdict.removals = removed
    verdict.n_removed = len(removed)
    verdict.n_points = len(filtered)
    if len(filtered):
        verdict.close_log_price = float(filtered.log_prices[-1])

    freq = select_frequency(filtered, coverage=cfg.coverage)
    if freq is None:
        verdict.reason = "frequency"
        return verdict
    verdict.frequency_s = freq

    try:
        k = lm.select_k(filtered.log_prices)
        params = lm.LmParams.for_series(
            n=len(filtered), k=k, C=cfg.lm_C, alpha=cfg.alpha,
            bonferroni=cfg.bonferroni != "off")
        scan = lm.lm_scan(filtered.log_prices, params,
                          timestamps_ns=filtered.timestamps_ns)
    except DayRejected as exc:
        verdict.reason = exc.reason
        return verdict

    deduped = lm.dedup_consecutive(scan.moments, window=cfg.dedup_window)

    ajl_params = cfg.ajl_params()
    try:
        grid = make_equispaced(filtered, freq)
        day_ajl = ajl.ajl_test(grid.log_prices, ajl_params, frequency_s=freq)
    except DayRejected as exc:
        verdict.reason = exc.reason
        return verdict
    log.debug("%s %s: AJL null std from %s", series.symbol, series.utc_date,
              day_ajl.calibration)

    verdict.tested = True
    verdict.lm_jump_count_raw = len(scan.flagged)
    verdict.lm = {
        "k": params.k, "M": params.M, "C": params.C,
        "n_blocks": scan.n_blocks,
        "q_hat_sq": scan.noise.q_hat_sq,
        "sigma_hat_sq": scan.noise.sigma_hat_sq,
        "v_n": scan.v_n,
        "jumps": [{"time": int(scan.starts[j]), "size": float(scan.pbar[j]),
                   "xi": float(scan.xi[j])} for j in deduped],
    }
    verdict.ajl = {
        "p": ajl_params.p, "k_n": ajl_params.k_n,
        "weights": "/".join(ajl.WEIGHTS),
        "s_rj": day_ajl.s_rj, "gamma_dprime": day_ajl.gamma_dprime,
        "sigma_rj": day_ajl.sigma_rj, "critical_value": day_ajl.critical_value,
        "reject_null": day_ajl.reject_null, "mc_seed": day_ajl.mc_seed,
    }
    # the combination rule: moment detections count only on days where the
    # day-level test also rejects the no-jump null
    if day_ajl.reject_null:
        verdict.accepted_jumps = [
            {"utc_timestamp_ns": jump["time"], "size": jump["size"],
             "direction": "positive" if jump["size"] > 0 else "negative", "xi": jump["xi"]}
            for jump in verdict.lm["jumps"]]
    return verdict


def load_day(store: TickStore, symbol: str, utc_date: date) -> AggregatedSeries:
    """One stored symbol-day, aggregated across exchanges."""
    return aggregate_cross_exchange(store.slice(symbol, utc_date))


def tested_returns(store: TickStore,
                   records: list[dict]) -> dict[str, list[np.ndarray]]:
    """Log returns of each tested catalog day, per symbol in catalog order.

    Each day is re-derived from the store with the filter settings its
    record names, so the tables describe the series the tests saw.  A day
    the store no longer yields at the recorded length raises OSError.
    """
    out: dict[str, list[np.ndarray]] = {}
    for rec in records:
        if not rec.get("tested"):
            continue
        if not rec.get("filter"):
            raise OSError(f"{rec['symbol']} {rec['date']}: the record names no filter settings")
        series = load_day(store, rec["symbol"], date.fromisoformat(rec["date"]))
        filtered, _ = filter_returns(series, **rec["filter"])
        if len(filtered) != rec["n_points"]:
            raise OSError(f"{rec['symbol']} {rec['date']}: the store gives "
                          f"{len(filtered)} filtered points, the catalog records "
                          f"{rec['n_points']}; the store lacks the day or changed after detect")
        if len(filtered) >= 2:
            out.setdefault(rec["symbol"], []).append(np.diff(filtered.log_prices))
    return out


def render_symbol_summary(verdicts: list[DayVerdict]) -> str:
    """Fixed-width per-asset table: symbol, jump count, test days, % jumps."""
    counts: dict[str, list[int]] = {}
    for v in verdicts:
        row = counts.setdefault(v.symbol, [0, 0])
        if v.tested:
            row[0] += len(v.accepted_jumps)
            row[1] += 1
    lines = [f"{'Symbol':<8}{'N jumps':>9}{'N test days':>13}{'% jumps':>9}"]
    for symbol, (n_jumps, n_days) in sorted(counts.items()):
        pct = 100.0 * n_jumps / n_days if n_days else 0.0
        lines.append(f"{symbol:<8}{n_jumps:>9}{n_days:>13}{pct:>9.2f}")
    return "\n".join(lines) + "\n"


def run_range(store: TickStore, symbols: list[str], dates: list[date],
              cfg: RunConfig, catalog_path) -> list[DayVerdict]:
    """Detect over a symbol-date grid; day failures never abort the run.

    Verdicts stream to the JSON-lines catalog as they complete, each
    day's removed points to the removal log beside it in the same step,
    and a completion manifest is written next to the catalog even on
    interruption.
    """
    verdicts: list[DayVerdict] = []
    Path(catalog_path).parent.mkdir(parents=True, exist_ok=True)
    total = len(symbols) * len(dates)
    with open(catalog_path, "w") as sink, \
            open(removals_path(catalog_path), "w", newline="") as removals_fh:
        removals = csv.writer(removals_fh)
        removals.writerow(REMOVALS_HEADER)
        try:
            for symbol, day in product(symbols, dates):
                try:
                    v = detect_day(load_day(store, symbol, day), cfg)
                except Exception as exc:   # report, keep going
                    log.error("day %s %s failed: %s", symbol, day, exc)
                    v = DayVerdict(symbol=symbol, utc_date=day, tested=False,
                                   reason=f"error:{type(exc).__name__}",
                                   config_hash=cfg.hash())
                verdicts.append(v)
                sink.write(v.to_json() + "\n")
                removals.writerows(v.removal_rows())
        finally:
            # both files hold every finished day before the manifest counts it
            sink.close()
            removals_fh.close()
            write_manifest(catalog_path, cfg, len(verdicts), total)
    return verdicts
