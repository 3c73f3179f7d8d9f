"""The package API that the benchmark's traced run calls.

``perfbench/tracing.py`` repeats each detect stage through the public
functions and checks its fields against the catalog ``run_range``
wrote.  Running it here on two simulated days catches a renamed or
reshaped attribute without a traced benchmark run.
"""
import os
import sys
from datetime import date
from pathlib import Path
from types import SimpleNamespace

from hfjumps.config import RunConfig
from hfjumps.pipeline import load_catalog, run_range
from hfjumps.simulate import SimConfig, simulate_day, write_tick_csv
from hfjumps.tickstore import TickStore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

DAYS = (date(2021, 3, 1), date(2021, 3, 2))


def two_days(tmp_path):
    """Two simulated BTC days, one with a jump: their files, store and catalog records."""
    store, paths = TickStore(tmp_path / "store"), []
    for day, sim_cfg in zip(DAYS, (
            SimConfig(seed=32, n=17_280, jump_times=(0.5,), jump_sizes=(0.03,),
                      jump_spread_ticks=20),
            SimConfig(seed=31, n=17_280))):
        paths.append(tmp_path / f"{day}.csv")
        write_tick_csv(simulate_day(sim_cfg), paths[-1], "BTC", day)
        store.ingest_csv(paths[-1])
    catalog = tmp_path / "catalog.jsonl"
    run_range(store, ["BTC"], list(DAYS), RunConfig(), catalog_path=catalog)
    records = load_catalog(catalog)
    assert [bool(r["accepted_jumps"]) for r in records] == [True, False]
    return paths, store, records


def test_traced_days_match_the_catalog(tmp_path):
    _, store, records = two_days(tmp_path)
    cfg = RunConfig()
    tr = tracing.Tracer()
    hf_returns = []
    for day, rec in zip(DAYS, records):
        got = tracing._trace_day(tr, store, "BTC", day, cfg, cfg.ajl_params())
        assert got["tested"]
        assert tracing._compare(got, rec, f"BTC {day}") == []
        hf_returns.append(got["hf_returns"])
    assert {s["name"] for s in tr.spans} >= set(tracing.DETECT_DAY_SPANS)
    tracing._tables(records, {"BTC": hf_returns})


def test_traced_run_matches_the_catalog(tmp_path):
    paths, _, records = two_days(tmp_path)
    # what traced_run reads of a benchmark corpus
    corpus = SimpleNamespace(files=[SimpleNamespace(path=p) for p in paths],
                             symbol_days=lambda: [("BTC", day) for day in DAYS])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    layer, mismatches = tracing.traced_run(tracing.Tracer(), corpus, records,
                                           tmp_path / "trace", env)
    assert mismatches == []
    assert layer["pipeline.days_tested"] == 2 and layer["tickstore.rows_rejected"] == 0
