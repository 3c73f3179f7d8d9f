"""Per-symbol-day orchestration and the jump catalog.

The moment-level test runs on the (irregular) aggregated tick series,
the day-level ratio test on the equispaced grid, and a moment-level
detection only enters the catalog when the day-level test also finds
jumps on that day.  Verdicts serialize to JSON lines; reruns with the
same inputs, config, and seeds are byte-identical.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DayRejected
from .preprocess import (AggregatedSeries, RemovalRecord, aggregate_cross_exchange,
                         filter_returns, make_equispaced, select_frequency)
from .tickstore import TickStore

if TYPE_CHECKING:
    from .config import RunConfig

log = logging.getLogger(__name__)

SCHEMA_VERSION = 3


@dataclass
class DayVerdict:
    symbol: str
    utc_date: date
    tested: bool
    reason: str = ""
    frequency_s: int | None = None
    lm_jump_count_raw: int = 0
    accepted_jumps: list[dict] = field(default_factory=list)
    lm: dict | None = None
    ajl: dict | None = None
    n_points: int = 0
    n_removed: int = 0
    close_log_price: float | None = None
    filter: dict | None = None          # filter_returns' keyword arguments
    removals: list[RemovalRecord] = field(default_factory=list)
    config_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "symbol": self.symbol,
            "date": self.utc_date.isoformat(),
            "tested": self.tested,
            "reason": self.reason,
            "frequency_s": self.frequency_s,
            "n_points": self.n_points,
            "n_removed": self.n_removed,
            "close_log_price": self.close_log_price,
            "filter": self.filter,
            "lm_jump_count_raw": self.lm_jump_count_raw,
            "lm": self.lm,
            "ajl": self.ajl,
            "accepted_jumps": self.accepted_jumps,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def detect_day(series: AggregatedSeries, cfg: RunConfig,
               family_multiplier: int = 1) -> DayVerdict:
    """Full per-day chain on an aggregated series (pure given config).

    preprocess -> moment scan + dedup -> day-level test -> combination.
    Any stage rejection yields an untested verdict naming the stage.
    """
    # imported on first use: analyze and report read the catalog and the
    # store, and need neither test
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
            bonferroni=cfg.bonferroni != "off", family_multiplier=family_multiplier)
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
        "v_n": scan.noise.v_n,
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
        day = f"{rec['symbol']} {rec['date']}"
        if not rec.get("filter"):
            raise OSError(f"{day}: the catalog record names no filter settings "
                          f"(schema {rec.get('schema_version')}); rerun detect")
        series = load_day(store, rec["symbol"], date.fromisoformat(rec["date"]))
        filtered, _ = filter_returns(series, **rec["filter"])
        if len(filtered) != rec["n_points"]:
            raise OSError(f"{day}: the store gives {len(filtered)} filtered points, "
                          f"the catalog records {rec['n_points']}; the store lacks "
                          "the day or changed after detect")
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
              cfg: RunConfig, catalog_path=None,
              removal_log_dir=None) -> list[DayVerdict]:
    """Detect over a symbol-date grid; day failures never abort the run.

    With ``bonferroni="corpus"`` the correction family is all requested
    symbol-days rather than one day's blocks.  When ``catalog_path`` is
    given, verdicts stream to JSON lines as they complete and a
    completion manifest is written next to the catalog even on
    interruption.
    """
    family = max(1, len(symbols) * len(dates)) if cfg.bonferroni == "corpus" else 1
    verdicts: list[DayVerdict] = []
    if catalog_path:
        Path(catalog_path).parent.mkdir(parents=True, exist_ok=True)
    sink = open(catalog_path, "w") if catalog_path else None
    total = len(symbols) * len(dates)
    try:
        for symbol in symbols:
            for day in dates:
                try:
                    v = detect_day(load_day(store, symbol, day), cfg,
                                   family_multiplier=family)
                except Exception as exc:   # report, keep going
                    log.error("day %s %s failed: %s", symbol, day, exc)
                    v = DayVerdict(symbol=symbol, utc_date=day, tested=False,
                                   reason=f"error:{type(exc).__name__}",
                                   config_hash=cfg.hash())
                verdicts.append(v)
                if sink:
                    sink.write(v.to_json() + "\n")
                if removal_log_dir and v.removals:
                    _write_removal_log(removal_log_dir, v)
    finally:
        if sink:
            sink.close()
            _write_manifest(catalog_path, cfg, len(verdicts), total)
    return verdicts


def _write_removal_log(dir_path, verdict: DayVerdict) -> None:
    import csv
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / f"removals_{verdict.symbol}_{verdict.utc_date.isoformat()}.csv",
              "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_ns", "rule", "value"])
        for r in verdict.removals:
            w.writerow([r.timestamp_ns, r.rule, repr(r.value)])


def _write_manifest(catalog_path, cfg: RunConfig, completed: int, total: int) -> None:
    manifest = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
                "config_hash": cfg.hash(), "completed_days": completed,
                "total_days": total, "complete": completed == total}
    manifest_path(catalog_path).write_text(json.dumps(manifest, indent=1, sort_keys=True))


def manifest_path(catalog_path) -> Path:
    """The completion manifest beside a catalog: ``<catalog>.manifest.json``."""
    p = Path(catalog_path)
    return p.with_name(p.name + ".manifest.json")


def load_catalog(path) -> list[dict]:
    """Read a verdict JSONL catalog back into dictionaries.

    A line that is not a JSON object with a ``schema_version`` key, as
    every verdict has, raises OSError: the file is not a catalog.
    """
    out = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    rec = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise OSError(f"{path} line {n}: not a JSON record: {exc}") from None
                if not isinstance(rec, dict) or "schema_version" not in rec:
                    raise OSError(f"{path} line {n}: not a catalog record "
                                  "(no schema_version)")
                out.append(rec)
    return out
