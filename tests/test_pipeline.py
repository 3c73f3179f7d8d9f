"""Orchestration: per-day verdicts, combination rule, catalog determinism."""
import json
from datetime import date, timedelta
from functools import lru_cache

import numpy as np
import pytest
from hfjumps.catalog import DayVerdict, load_catalog, manifest_path, removals_path
from hfjumps.config import RunConfig
from hfjumps.pipeline import detect_day, load_day, render_symbol_summary, run_range
from hfjumps.preprocess import AggregatedSeries
from hfjumps.simulate import SimConfig, simulate_day, tick_timestamps_ns
from hfjumps.tickstore import TickStore

D = date(2021, 3, 1)
CFG = RunConfig(sigma_rj_paths=100)


def sim_series(seed, n=17_280, jumps=None, spread=20):
    cfg = SimConfig(seed=seed, n=n,
                    jump_times=tuple(t for t, _ in jumps or ()),
                    jump_sizes=tuple(s for _, s in jumps or ()) or None,
                    jump_spread_ticks=spread) if jumps else SimConfig(seed=seed, n=n)
    sim = simulate_day(cfg)
    return AggregatedSeries("BTC", D, tick_timestamps_ns(D, n), sim.observed)


def test_empty_series_untested():
    v = detect_day(AggregatedSeries("BTC", D, np.empty(0, dtype=np.int64),
                                    np.empty(0)), CFG)
    assert not v.tested and v.reason == "no_data"
    assert v.lm_jump_count_raw == 0 and v.accepted_jumps == []


def test_sparse_day_fails_frequency_rule():
    ts = tick_timestamps_ns(D, 5000)
    v = detect_day(AggregatedSeries("BTC", D, ts, np.full(5000, 4.6)), CFG)
    assert not v.tested and v.reason == "frequency"
    assert v.lm is None and v.accepted_jumps == []


def test_continuous_day_tested_no_jumps():
    v = detect_day(sim_series(31), CFG)
    assert v.tested
    assert v.frequency_s == 5
    assert v.accepted_jumps == []
    assert v.lm is not None and v.ajl is not None
    assert v.lm["k"] >= 3 and v.lm["v_n"] > 0
    assert v.ajl["mc_seed"] > 0


def test_jump_day_accepted_events_match_combination():
    v = detect_day(sim_series(32, jumps=[(0.5, 0.03)]), CFG)
    assert v.tested
    assert len(v.lm["jumps"]) >= 1
    assert v.ajl["reject_null"]
    assert len(v.accepted_jumps) == len(v.lm["jumps"])
    ev = v.accepted_jumps[0]
    assert ev["direction"] == "positive" and ev["size"] > 0
    inj_ns = sim_series(32).timestamps_ns[int(0.5 * 17_280)]
    assert abs(ev["utc_timestamp_ns"] - inj_ns) < 300 * 10 ** 9


def test_catalog_jumps_hold_python_numbers():
    # the scan's numpy scalars must not leak into the JSON records
    v = detect_day(sim_series(32, jumps=[(0.5, 0.03)]), CFG)
    assert v.lm["jumps"] and v.accepted_jumps
    for jump in v.lm["jumps"]:
        assert [type(jump[key]) for key in ("time", "size", "xi")] == [int, float, float]
    for ev in v.accepted_jumps:
        assert [type(ev[key]) for key in ("utc_timestamp_ns", "size", "xi")] == \
            [int, float, float]


@pytest.mark.parametrize("n, freq", [(86_400, 1), (17_280, 5)])
def test_default_detect_day_runs_no_monte_carlo(monkeypatch, n, freq):
    import hfjumps.ajl as ajl

    def boom(*args):
        raise AssertionError("the null calibration ran a Monte Carlo")

    monkeypatch.setattr(ajl, "_null_srj_std", lru_cache(boom))
    for seed, jumps in ((36, None), (37, [(0.5, 0.03)])):
        v = detect_day(sim_series(seed, n=n, jumps=jumps), RunConfig())
        assert v.tested and v.frequency_s == freq
        assert v.ajl["critical_value"] < v.ajl["gamma_dprime"]


def test_verdict_invariant_no_events_without_ajl_reject():
    # combination rule applied to the verdict dataclass directly
    for seed in (33, 34):
        v = detect_day(sim_series(seed), CFG)
        if not v.ajl["reject_null"]:
            assert v.accepted_jumps == []
        if v.accepted_jumps:
            assert v.ajl["reject_null"]


def test_combination_rule_counts_preserved_when_ajl_accepts(monkeypatch):
    # LM flags but the day-level gate does not reject: zero accepted events,
    # LM counts preserved in the verdict
    import hfjumps.ajl as ajl
    from hfjumps.ajl import AjlDayResult

    def no_reject(lp, params, frequency_s=None):
        return AjlDayResult(s_rj=1.25, gamma_dprime=1.26, critical_value=1.2,
                            sigma_rj=0.01, reject_null=False, mc_seed=1,
                            frequency_s=frequency_s)

    monkeypatch.setattr(ajl, "ajl_test", no_reject)
    v = detect_day(sim_series(32, jumps=[(0.5, 0.03)]), CFG)
    assert v.tested
    assert len(v.lm["jumps"]) >= 1
    assert not v.ajl["reject_null"]
    assert v.accepted_jumps == []


def test_day_verdict_json_round_trip():
    v = detect_day(sim_series(35, jumps=[(0.3, -0.02)]), CFG)
    blob = json.loads(v.to_json())
    # the schema-3 keys: every DayVerdict field but removals, utc_date as date
    assert set(blob) == {"schema_version", "config_hash", "symbol", "date", "tested", "reason",
                         "frequency_s", "n_points", "n_removed", "close_log_price", "filter",
                         "lm_jump_count_raw", "lm", "ajl", "accepted_jumps"}
    assert blob["schema_version"] == 3
    assert blob["config_hash"] == CFG.hash()
    assert blob["filter"] == {"sd_cutoff": CFG.sd_cutoff,
                              "reversal": CFG.bounceback_reversal}
    assert blob["symbol"] == "BTC" and blob["date"] == "2021-03-01"
    assert isinstance(blob["accepted_jumps"], list)
    assert set(blob["lm"]) >= {"k", "M", "C", "n_blocks", "q_hat_sq",
                               "sigma_hat_sq", "v_n", "jumps"}
    assert set(blob["ajl"]) >= {"p", "k_n", "weights", "s_rj",
                                "gamma_dprime", "sigma_rj", "critical_value",
                                "reject_null", "mc_seed"}
    assert not {"lm_jump_count_dedup", "ajl_reject"} & set(blob)
    assert "frequency_s" not in blob["ajl"] and blob["frequency_s"] == 5
    assert blob["accepted_jumps"] == [
        {"utc_timestamp_ns": j["time"], "size": j["size"], "xi": j["xi"],
         "direction": "positive" if j["size"] > 0 else "negative"}
        for j in blob["lm"]["jumps"]]


def test_missing_partition_is_no_data(tmp_path):
    store = TickStore(tmp_path / "store")
    v = detect_day(load_day(store, "BTC", D), CFG)
    assert not v.tested and v.reason == "no_data"


def make_store_corpus(tmp_path, n_days=4, jump_days=(1, 3), n=17_280):
    base = SimConfig(seed=5, n=n)
    out = tmp_path / "corpus"
    store = TickStore(tmp_path / "store")
    days = []
    from dataclasses import replace
    from hfjumps.simulate import day_seeds, write_tick_csv
    seeds = day_seeds(5, n_days)
    out.mkdir()
    for i in range(n_days):
        day = D + timedelta(days=i)
        cfg = replace(base, seed=seeds[i],
                      jump_times=(0.5,) if i in jump_days else None,
                      jump_sizes=(0.03,) if i in jump_days else None,
                      jump_spread_ticks=20)
        sim = simulate_day(cfg)
        p = out / f"{day}.csv"
        write_tick_csv(sim, p, "BTC", day)
        store.ingest_csv(p)
        days.append(day)
    return store, days


def test_run_range_catalog_and_summary(tmp_path):
    store, days = make_store_corpus(tmp_path)
    catalog = tmp_path / "catalog.jsonl"
    verdicts = run_range(store, ["BTC"], days, CFG, catalog_path=catalog)
    assert [v.tested for v in verdicts] == [True] * 4
    assert sum(len(v.accepted_jumps) for v in verdicts) >= 2   # both injected days
    assert render_symbol_summary(verdicts).splitlines()[1].split()[:3] == \
        ["BTC", str(sum(len(v.accepted_jumps) for v in verdicts)), "4"]
    clean_days = {str(days[0]), str(days[2])}
    for rec in load_catalog(catalog):
        if rec["date"] in clean_days:
            assert rec["accepted_jumps"] == []
    manifest = json.loads((tmp_path / "catalog.jsonl.manifest.json").read_text())
    assert manifest["complete"] and manifest["completed_days"] == 4


def test_run_range_deterministic_bytes(tmp_path):
    store, days = make_store_corpus(tmp_path, n_days=2, jump_days=(0,))
    c1, c2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    run_range(store, ["BTC"], days, CFG, catalog_path=c1)
    run_range(store, ["BTC"], days, CFG, catalog_path=c2)
    assert c1.read_bytes() == c2.read_bytes()


def test_run_range_empty(tmp_path):
    catalog = tmp_path / "catalog.jsonl"
    out = run_range(TickStore(tmp_path / "store"), [], [], CFG, catalog)
    assert out == []
    assert render_symbol_summary(out) == "Symbol    N jumps  N test days  % jumps\n"
    assert catalog.read_text() == ""
    assert removals_path(catalog).read_bytes() == b"symbol,date,timestamp_ns,rule,value\r\n"
    manifest = json.loads(manifest_path(catalog).read_text())
    assert manifest["complete"] and (manifest["completed_days"], manifest["total_days"]) == (0, 0)


def test_render_symbol_summary_layout():
    def days(symbol, n_jumps, n_test_days, n_untested=0):
        jumps = [1] * n_jumps + [0] * (n_test_days - n_jumps)
        return ([DayVerdict(symbol, D, True, accepted_jumps=[{}] * j) for j in jumps]
                + [DayVerdict(symbol, D, False, reason="frequency")] * n_untested)
    # symbols sort; untested days count nowhere; a symbol never tested reads 0
    verdicts = days("ETH", 324, 559, 3) + days("XRP", 0, 0, 2) + days("BTC", 423, 645)
    want = ("Symbol    N jumps  N test days  % jumps\n"
            "BTC           423          645    65.58\n"
            "ETH           324          559    57.96\n"
            "XRP             0            0     0.00\n")
    assert render_symbol_summary(verdicts) == want


def test_config_hash_changes_with_settings():
    assert RunConfig().hash() != RunConfig(alpha=0.99).hash()
    assert RunConfig().hash() == RunConfig().hash()
