"""Traced run: times each module's public functions from outside.

The spans are recorded by the benchmark around its own calls into the
package; nothing inside ``src/`` is instrumented.  For each symbol-day
the calls follow the order ``pipeline.detect_day`` uses, so the verdict
fields they produce can be checked against the untraced CLI catalog.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hfjumps import ajl, analytics
from hfjumps.config import RunConfig
from hfjumps.errors import DayRejected, HfJumpsError
from hfjumps.lee_mykland import LmParams, dedup_consecutive, lm_scan, select_k
from hfjumps.preprocess import (aggregate_cross_exchange, filter_returns,
                                make_equispaced, select_frequency)
from hfjumps.tickstore import TickStore

IMPORT_SAMPLES = 3


class Tracer:
    """In-memory spans: name, start, end (perf_counter seconds) and parent id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


# the spans on detect_day's own path; the warm test and the separate vbar
# calls are measurements the pipeline does not make
DETECT_DAY_SPANS = ("tickstore.slice", "preprocess.aggregate", "preprocess.filter",
                    "preprocess.select_frequency", "lee_mykland.select_k",
                    "lee_mykland.for_series", "lee_mykland.scan",
                    "lee_mykland.dedup", "preprocess.equispaced", "ajl.test_cold")


def _drop_calibration_memo() -> None:
    # the null calibration is memoised per process; clearing it makes the
    # next ajl_test pay the calibration a fresh CLI process pays
    clear = getattr(getattr(ajl, "_null_srj_std", None), "cache_clear", None)
    if clear is not None:
        clear()


def _trace_day(tr: Tracer, store: TickStore, symbol, day, cfg: RunConfig,
               ajl_params: ajl.AjlParams) -> dict:
    """Verdict fields of one symbol-day, computed span by span."""
    out = {"tested": False, "reason": "", "frequency_s": None, "n_removed": 0,
           "slice_rows": 0, "blocks": 0, "flags_raw": 0, "flags_dedup": 0,
           "hf_returns": None}
    with tr.span("tickstore.slice"):
        ticks = store.slice(symbol, day)
    out["slice_rows"] = len(ticks)
    with tr.span("preprocess.aggregate"):
        series = aggregate_cross_exchange(ticks)
    if len(series) == 0:
        out["reason"] = "no_data"
        return out
    with tr.span("preprocess.filter"):
        filtered, removed = filter_returns(series, sd_cutoff=cfg.sd_cutoff,
                                           reversal=cfg.bounceback_reversal)
    out["n_removed"] = len(removed)
    with tr.span("preprocess.select_frequency"):
        freq = select_frequency(filtered, coverage=cfg.coverage)
    if freq is None:
        out["reason"] = "frequency"
        return out
    out["frequency_s"] = freq
    try:
        with tr.span("lee_mykland.select_k"):
            k = select_k(filtered.log_prices)
        with tr.span("lee_mykland.for_series"):
            params = LmParams.for_series(n=len(filtered), k=k, C=cfg.lm_C,
                                         alpha=cfg.alpha,
                                         bonferroni=cfg.bonferroni != "off")
        with tr.span("lee_mykland.scan"):
            scan = lm_scan(filtered.log_prices, params,
                           timestamps_ns=filtered.timestamps_ns)
    except DayRejected as exc:
        out["reason"] = exc.reason
        return out
    with tr.span("lee_mykland.dedup"):
        deduped = dedup_consecutive(scan.moments, window=cfg.dedup_window)
    out.update(k=k, blocks=scan.n_blocks, flags_raw=len(scan.flagged),
               flags_dedup=len(deduped))
    try:
        with tr.span("preprocess.equispaced"):
            grid = make_equispaced(filtered, freq)
        returns = np.diff(grid.log_prices)
        rho = ajl.solve_rho(ajl_params.p)
        for w in (ajl_params.g, ajl_params.h):
            with tr.span("ajl.vbar", weight=w.name):
                ajl.vbar(returns, w, ajl_params.p, ajl_params.k_n, rho)
        _drop_calibration_memo()
        with tr.span("ajl.test_cold"):
            cold = ajl.ajl_test(grid.log_prices, ajl_params, frequency_s=freq)
        with tr.span("ajl.test_warm"):
            ajl.ajl_test(grid.log_prices, ajl_params, frequency_s=freq)
    except DayRejected as exc:
        out["reason"] = exc.reason
        return out
    out.update(tested=True, s_rj=cold.s_rj, mc_seed=cold.mc_seed,
               hf_returns=np.diff(filtered.log_prices))
    return out


def _tables(records: list[dict], hf_by_symbol: dict[str, list[np.ndarray]]) -> None:
    """The analytics calls ``hfjumps analyze`` makes, without the file writing."""
    pooled = []
    for sym, parts in sorted(hf_by_symbol.items()):
        r = np.concatenate(parts)
        pooled.append(r)
        analytics.render_summary_table({sym: analytics.summarize_returns(r)})
    analytics.render_extremes_table(
        analytics.count_extremes(np.concatenate(pooled) if pooled else np.empty(0)))
    panel, _ = analytics.build_panel(records)
    daily: dict[str, list[float]] = {}
    for row in panel:
        daily.setdefault(row.symbol, []).append(row.daily_return)
    for sym, values in sorted(daily.items()):
        if len(values) >= 2:
            analytics.summarize_returns(np.array(values))
    sizes = [ev["size"] for rec in records for ev in rec.get("accepted_jumps") or []]
    times = [ev["utc_timestamp_ns"] for rec in records
             for ev in rec.get("accepted_jumps") or []]
    analytics.count_extremes(np.array(sizes) if sizes else np.empty(0),
                             thresholds=(0.025, 0.05, 0.1, 0.2))
    analytics.render_seasonality(*analytics.seasonality(times))
    for column in ("jump_dummy", "lagged_jump_dummy", "pos_jump_dummy",
                   "neg_jump_dummy"):
        try:
            analytics.fe_regression(panel, (column,))
        except (HfJumpsError, ValueError):
            pass   # too few panel rows or no variation; analyze skips it too


def _import_seconds(tr: Tracer, env: dict) -> float:
    """Median wall time of ``import hfjumps.cli`` in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        with tr.span("cli.import") as s:
            subprocess.run([sys.executable, "-c", "import hfjumps.cli"],
                           env=env, check=True, timeout=60)
        samples.append(s["end"] - s["start"])
    return statistics.median(samples)


def traced_run(tr: Tracer, corpus, records: list[dict], work: Path,
               env: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics and the verdict mismatches against ``records``."""
    cfg = RunConfig()
    g_name, h_name = cfg.weight_names()
    ajl_params = ajl.AjlParams(p=cfg.ajl_p, k_n=cfg.ajl_kn,
                               g=ajl.get_weight(g_name), h=ajl.get_weight(h_name),
                               alpha=cfg.alpha, sigma_rj_paths=cfg.sigma_rj_paths,
                               base_seed=cfg.seed)
    mismatches: list[str] = []
    accepted = rejected = 0
    with tr.span("trace") as whole:
        store = TickStore(work / "store")
        for f in corpus.files:
            with tr.span("tickstore.ingest", file=f.path.name):
                rep = store.ingest_csv(f.path)
            accepted += rep.accepted
            rejected += rep.rejected
            with tr.span("tickstore.reingest", file=f.path.name):
                again = store.ingest_csv(f.path)
            if not again.already_ingested:
                mismatches.append(f"re-ingest of {f.path.name} was not a no-op")
        store_bytes = sum(p.stat().st_size for p in store.root.rglob("*") if p.is_file())

        by_key = {(r["symbol"], r["date"]): r for r in records}
        days = []
        hf_by_symbol: dict[str, list[np.ndarray]] = {}
        for symbol, day in corpus.symbol_days():
            with tr.span("pipeline.day", symbol=symbol, date=day.isoformat()):
                got = _trace_day(tr, store, symbol, day, cfg, ajl_params)
            days.append(got)
            if got["tested"]:
                hf_by_symbol.setdefault(symbol, []).append(got["hf_returns"])
            mismatches += _compare(got, by_key.get((symbol, day.isoformat())),
                                   f"{symbol} {day}")
        with tr.span("analytics.tables"):
            _tables(records, hf_by_symbol)
        import_s = _import_seconds(tr, env)
    wall = whole["end"] - whole["start"]

    rows = accepted + rejected
    sliced = sum(d["slice_rows"] for d in days)
    cold, warm = tr.total("ajl.test_cold"), tr.total("ajl.test_warm")
    layer = {
        "ajl.calibration_s": cold - warm,
        "ajl.test_cold_s": cold,
        "ajl.test_warm_s": warm,
        "ajl.statistic_s": tr.total("ajl.vbar"),
        "tickstore.ingest_s": tr.total("tickstore.ingest"),
        "tickstore.ingest_us_per_row": 1e6 * tr.total("tickstore.ingest") / max(rows, 1),
        "tickstore.rows_accepted": accepted,
        "tickstore.rows_rejected": rejected,
        "tickstore.slice_s": tr.total("tickstore.slice"),
        "tickstore.slice_us_per_row": 1e6 * tr.total("tickstore.slice") / max(sliced, 1),
        "tickstore.reingest_s": tr.total("tickstore.reingest"),
        "tickstore.store_bytes": store_bytes,
        "preprocess.aggregate_s": tr.total("preprocess.aggregate"),
        "preprocess.filter_s": tr.total("preprocess.filter"),
        "preprocess.points_removed": sum(d["n_removed"] for d in days),
        "preprocess.select_frequency_s": tr.total("preprocess.select_frequency"),
        "preprocess.equispaced_s": tr.total("preprocess.equispaced"),
        "lee_mykland.select_k_s": tr.total("lee_mykland.select_k"),
        "lee_mykland.scan_s": tr.total("lee_mykland.scan"),
        "lee_mykland.blocks": sum(d["blocks"] for d in days),
        "lee_mykland.flags_raw": sum(d["flags_raw"] for d in days),
        "lee_mykland.flags_dedup": sum(d["flags_dedup"] for d in days),
        "pipeline.detect_day_s": sum(tr.total(n) for n in DETECT_DAY_SPANS),
        "pipeline.days_tested": sum(d["tested"] for d in days),
        "pipeline.days_untested": sum(not d["tested"] for d in days),
        "analytics.tables_s": tr.total("analytics.tables"),
        "cli.import_s": import_s,
        "trace.wall_s": wall,
    }
    return layer, mismatches


def _compare(got: dict, rec: dict | None, where: str) -> list[str]:
    if rec is None:
        return [f"{where}: no verdict in the untraced catalog"]
    want = {"tested": rec["tested"], "reason": rec["reason"],
            "frequency_s": rec["frequency_s"], "n_removed": rec["n_removed"]}
    if rec["tested"]:
        want.update(k=rec["lm"]["k"], s_rj=rec["ajl"]["s_rj"],
                    mc_seed=rec["ajl"]["mc_seed"])
    return [f"{where}: traced {key}={got.get(key)!r} != catalog {value!r}"
            for key, value in want.items() if got.get(key) != value]
